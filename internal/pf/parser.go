package pf

import (
	"fmt"

	"identxx/internal/netaddr"
)

// Parse parses a PF+=2 source unit. file names the source for diagnostics.
//
// The parser pulls tokens from the lexer one at a time, keeping only the
// current token and the next; a pre-pass that lexes the whole unit first
// and keeps nothing but a statement count reports a lexical error ahead of
// any parse error, wherever in the unit each sits, and sizes the
// statement list.
func Parse(file, src string) (*File, error) {
	n, err := countStmts(file, src)
	if err != nil {
		return nil, err
	}
	p := &parser{file: file, lex: newLexer(file, src)}
	p.tok = p.lexNext()
	p.next = p.lexNext()
	return p.parseFile(n)
}

// countStmts lexes src through and returns an upper bound on the number of
// statements it holds (each table, dict, pass or block keyword and each
// word followed by '=' may start one), or the first lexical error.
func countStmts(file, src string) (int, error) {
	l := newLexer(file, src)
	n := 0
	var prev tokKind
	for {
		t, err := l.next()
		if err != nil {
			return 0, err
		}
		switch {
		case t.kind == tokEOF:
			return n, nil
		case t.kind == tokWord && (t.text == "table" || t.text == "dict" || t.text == "pass" || t.text == "block"):
			n++
		case t.kind == tokAssign && prev == tokWord:
			n++
		}
		prev = t.kind
	}
}

// ParseRules parses rule-only source, as carried in ident++ `requirements`
// values (Figure 3/4/6): definitions are rejected so that externally
// supplied rules cannot shadow the administrator's tables or macros.
func ParseRules(origin, src string) ([]*Rule, error) {
	f, err := Parse(origin, src)
	if err != nil {
		return nil, err
	}
	for _, s := range f.Stmts {
		if _, ok := s.(*Rule); !ok {
			return nil, fmt.Errorf("%s: definitions not allowed in embedded rules (%s)", origin, s)
		}
	}
	return f.Rules(), nil
}

type parser struct {
	file string
	lex  lexer
	tok  token // the current token
	next token // the one after it
}

// lexNext scans the token after p.next. Parse has lexed the unit once
// already, so the lexer cannot fail here; at the end of input it keeps
// returning EOF.
func (p *parser) lexNext() token {
	t, err := p.lex.next()
	if err != nil {
		return token{kind: tokEOF, line: p.lex.line}
	}
	return t
}

func (p *parser) cur() token  { return p.tok }
func (p *parser) peek() token { return p.next }
func (p *parser) advance() token {
	t := p.tok
	if t.kind != tokEOF {
		p.tok, p.next = p.next, p.lexNext()
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", p.file, t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(kind tokKind) (token, error) {
	t := p.cur()
	if t.kind != kind {
		return t, p.errorf(t, "expected %s, found %s %q", kind, t.kind, t.text)
	}
	return p.advance(), nil
}

func (p *parser) parseFile(stmts int) (*File, error) {
	f := &File{Stmts: make([]Stmt, 0, stmts)}
	for p.cur().kind != tokEOF {
		t := p.cur()
		switch {
		case t.kind == tokWord && t.text == "table":
			st, err := p.parseTableDef()
			if err != nil {
				return nil, err
			}
			f.Stmts = append(f.Stmts, st)
		case t.kind == tokWord && t.text == "dict":
			st, err := p.parseDictDef()
			if err != nil {
				return nil, err
			}
			f.Stmts = append(f.Stmts, st)
		case t.kind == tokWord && (t.text == "pass" || t.text == "block"):
			st, err := p.parseRule()
			if err != nil {
				return nil, err
			}
			f.Stmts = append(f.Stmts, st)
		case t.kind == tokWord && p.peek().kind == tokAssign:
			st, err := p.parseMacroDef()
			if err != nil {
				return nil, err
			}
			f.Stmts = append(f.Stmts, st)
		default:
			return nil, p.errorf(t, "expected statement, found %s %q", t.kind, t.text)
		}
	}
	return f, nil
}

func (p *parser) parseTableDef() (*TableDef, error) {
	kw := p.advance() // "table"
	name, err := p.expect(tokTable)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	def := &TableDef{Name: name.text, Pos: Pos{p.file, kw.line}}
	for p.cur().kind != tokRBrace {
		t := p.cur()
		switch t.kind {
		case tokTable:
			p.advance()
			def.Elems = append(def.Elems, TableElem{Ref: t.text})
		case tokWord:
			p.advance()
			pref, err := netaddr.ParsePrefix(t.text)
			if err != nil {
				return nil, p.errorf(t, "bad address %q in table <%s>", t.text, def.Name)
			}
			def.Elems = append(def.Elems, TableElem{Prefix: pref})
		case tokComma:
			p.advance() // PF permits comma separators in lists
		case tokEOF:
			return nil, p.errorf(t, "unterminated table <%s>", def.Name)
		default:
			return nil, p.errorf(t, "unexpected %s in table <%s>", t.kind, def.Name)
		}
	}
	p.advance() // '}'
	return def, nil
}

func (p *parser) parseDictDef() (*DictDef, error) {
	kw := p.advance() // "dict"
	name, err := p.expect(tokTable)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	def := &DictDef{Name: name.text, Pairs: make(map[string]string), Pos: Pos{p.file, kw.line}}
	for p.cur().kind != tokRBrace {
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		if p.cur().kind == tokEOF {
			return nil, p.errorf(p.cur(), "unterminated dict <%s>", def.Name)
		}
		k, err := p.expect(tokWord)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		v := p.cur()
		if v.kind != tokWord && v.kind != tokString {
			return nil, p.errorf(v, "expected value after %q in dict <%s>", k.text, def.Name)
		}
		p.advance()
		if _, dup := def.Pairs[k.text]; !dup {
			def.Keys = append(def.Keys, k.text)
		}
		def.Pairs[k.text] = v.text
	}
	p.advance() // '}'
	return def, nil
}

func (p *parser) parseMacroDef() (*MacroDef, error) {
	name := p.advance()
	p.advance() // '='
	v := p.cur()
	if v.kind != tokString && v.kind != tokWord {
		return nil, p.errorf(v, "expected macro value after %s =", name.text)
	}
	p.advance()
	return &MacroDef{Name: name.text, Value: v.text, Pos: Pos{p.file, name.line}}, nil
}

// parseRule parses one pass/block rule. Clauses (`quick`, `all`,
// `from ... [port ...]`, `to ... [port ...]`, `with f(...)`, `keep state`)
// may appear in any order — the paper interleaves `with` between `from`
// and `to` (Figure 2) and after `to` (Figure 7).
func (p *parser) parseRule() (*Rule, error) {
	kw := p.advance()
	r := &Rule{
		From: AnyAddr(),
		To:   AnyAddr(),
		Pos:  Pos{p.file, kw.line},
	}
	if kw.text == "pass" {
		r.Action = Pass
	}
	sawFrom, sawTo, sawAll := false, false, false
	for {
		t := p.cur()
		if t.kind != tokWord {
			break
		}
		switch t.text {
		case "quick":
			p.advance()
			r.Quick = true
		case "all":
			if sawFrom || sawTo {
				return nil, p.errorf(t, "'all' cannot be combined with from/to")
			}
			p.advance()
			sawAll = true
		case "from":
			if sawAll {
				return nil, p.errorf(t, "'from' cannot follow 'all'")
			}
			if sawFrom {
				return nil, p.errorf(t, "duplicate 'from'")
			}
			p.advance()
			addr, err := p.parseAddrExpr()
			if err != nil {
				return nil, err
			}
			r.From = addr
			sawFrom = true
			if pe, ok, err := p.maybeParsePort(); err != nil {
				return nil, err
			} else if ok {
				r.FromPort = pe
			}
		case "to":
			if sawAll {
				return nil, p.errorf(t, "'to' cannot follow 'all'")
			}
			if sawTo {
				return nil, p.errorf(t, "duplicate 'to'")
			}
			p.advance()
			addr, err := p.parseAddrExpr()
			if err != nil {
				return nil, err
			}
			r.To = addr
			sawTo = true
			if pe, ok, err := p.maybeParsePort(); err != nil {
				return nil, err
			} else if ok {
				r.ToPort = pe
			}
		case "with":
			p.advance()
			fc, err := p.parseFuncCall()
			if err != nil {
				return nil, err
			}
			r.Withs = append(r.Withs, fc)
		case "keep":
			p.advance()
			st := p.cur()
			if st.kind != tokWord || st.text != "state" {
				return nil, p.errorf(st, "expected 'state' after 'keep'")
			}
			p.advance()
			r.KeepState = true
		case "log":
			// The paper notes "We do not currently use the log action" but
			// vanilla PF rules carry it; accept and ignore for compatibility.
			p.advance()
		default:
			// Start of the next statement.
			return r, nil
		}
	}
	return r, nil
}

func (p *parser) parseAddrExpr() (AddrExpr, error) {
	var a AddrExpr
	if p.cur().kind == tokBang {
		p.advance()
		a.Neg = true
	}
	t := p.cur()
	switch t.kind {
	case tokWord:
		if t.text == "any" {
			p.advance()
			a.Kind = AddrAny
			return a, nil
		}
		pref, err := netaddr.ParsePrefix(t.text)
		if err != nil {
			return a, p.errorf(t, "bad address %q", t.text)
		}
		p.advance()
		a.Kind = AddrPrefix
		a.Prefix = pref
		return a, nil
	case tokTable:
		p.advance()
		a.Kind = AddrTable
		a.Table = t.text
		return a, nil
	case tokLBrace:
		p.advance()
		a.Kind = AddrList
		for p.cur().kind != tokRBrace {
			if p.cur().kind == tokComma {
				p.advance()
				continue
			}
			if p.cur().kind == tokEOF {
				return a, p.errorf(p.cur(), "unterminated address list")
			}
			elem, err := p.parseAddrExpr()
			if err != nil {
				return a, err
			}
			a.List = append(a.List, elem)
		}
		p.advance()
		return a, nil
	}
	return a, p.errorf(t, "expected address, table, 'any', or list; found %s", t.kind)
}

// maybeParsePort consumes `port <spec>` if present.
func (p *parser) maybeParsePort() (PortExpr, bool, error) {
	t := p.cur()
	if t.kind != tokWord || t.text != "port" {
		return PortExpr{}, false, nil
	}
	p.advance()
	var pe PortExpr
	spec := p.cur()
	switch spec.kind {
	case tokWord:
		p.advance()
		r, err := netaddr.ParsePortRange(spec.text)
		if err != nil {
			return pe, false, p.errorf(spec, "bad port %q", spec.text)
		}
		pe.Ranges = append(pe.Ranges, r)
	case tokLBrace:
		p.advance()
		for p.cur().kind != tokRBrace {
			if p.cur().kind == tokComma {
				p.advance()
				continue
			}
			w, err := p.expect(tokWord)
			if err != nil {
				return pe, false, err
			}
			r, err := netaddr.ParsePortRange(w.text)
			if err != nil {
				return pe, false, p.errorf(w, "bad port %q", w.text)
			}
			pe.Ranges = append(pe.Ranges, r)
		}
		p.advance()
	default:
		return pe, false, p.errorf(spec, "expected port after 'port'")
	}
	return pe, true, nil
}

func (p *parser) parseFuncCall() (FuncCall, error) {
	name, err := p.expect(tokWord)
	if err != nil {
		return FuncCall{}, err
	}
	fc := FuncCall{Name: name.text, Pos: Pos{p.file, name.line}}
	if _, err := p.expect(tokLParen); err != nil {
		return fc, err
	}
	for p.cur().kind != tokRParen {
		if p.cur().kind == tokComma {
			p.advance()
			continue
		}
		if p.cur().kind == tokEOF {
			return fc, p.errorf(p.cur(), "unterminated call to %s", fc.Name)
		}
		arg, err := p.parseArg()
		if err != nil {
			return fc, err
		}
		fc.Args = append(fc.Args, arg)
	}
	p.advance() // ')'
	return fc, nil
}

func (p *parser) parseArg() (Arg, error) {
	t := p.cur()
	switch t.kind {
	case tokWord, tokString:
		p.advance()
		return Arg{Kind: ArgLiteral, Text: t.text}, nil
	case tokMacro:
		p.advance()
		return Arg{Kind: ArgMacro, Text: t.text}, nil
	case tokAt, tokStarAt:
		p.advance()
		if _, err := p.expect(tokLBracket); err != nil {
			return Arg{}, err
		}
		key, err := p.expect(tokWord)
		if err != nil {
			return Arg{}, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return Arg{}, err
		}
		kind := ArgDict
		if t.kind == tokStarAt {
			kind = ArgDictConcat
		}
		return Arg{Kind: kind, Text: t.text, Key: key.text}, nil
	case tokTable:
		// A table used as a set argument, e.g. member(@src[host], <lan>)
		// is not in the paper; reserve the syntax with a clear error.
		return Arg{}, p.errorf(t, "table references are not valid function arguments")
	}
	return Arg{}, p.errorf(t, "expected argument, found %s", t.kind)
}
