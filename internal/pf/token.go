// Package pf implements PF+=2, the paper's policy language (§3.3): the
// subset of OpenBSD PF the paper uses — `pass`/`block` rules evaluated
// last-match-wins with `quick`, tables, macros, lists, port operands,
// `keep state` — extended with the `dict` keyword, `with` predicates over
// ident++ response dictionaries (@src/@dst), the `*@src[key]` concatenation
// accessor, and user-definable boolean functions including the predefined
// eq/gt/lt/gte/lte/member/allowed/verify set (plus `includes`, which
// Figure 8 of the paper uses).
//
// Rule statements are keyword-delimited rather than line-delimited: daemon
// configuration files embed multiple rules in a single logical line
// (Figure 3's `requirements` value), so a new statement begins at each
// `pass`, `block`, `table`, `dict`, or macro assignment.
package pf

import "fmt"

type tokKind int

const (
	tokEOF      tokKind = iota
	tokWord             // bare word: identifiers, numbers, IPs, CIDRs
	tokString           // "quoted string"
	tokTable            // <name>
	tokMacro            // $name
	tokAt               // @name
	tokStarAt           // *@name
	tokBang             // !
	tokComma            // ,
	tokColon            // :
	tokAssign           // =
	tokLParen           // (
	tokRParen           // )
	tokLBracket         // [
	tokRBracket         // ]
	tokLBrace           // {
	tokRBrace           // }
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokWord:
		return "word"
	case tokString:
		return "string"
	case tokTable:
		return "<table>"
	case tokMacro:
		return "$macro"
	case tokAt:
		return "@dict"
	case tokStarAt:
		return "*@dict"
	case tokBang:
		return "'!'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokAssign:
		return "'='"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokLBracket:
		return "'['"
	case tokRBracket:
		return "']'"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	}
	return "unknown token"
}

type token struct {
	kind tokKind
	text string // semantic text (without sigils/brackets)
	line int
}

// lexer scans PF+=2 source into tokens. Comments (# to end of line) and
// backslash-newline continuations are treated as whitespace; newlines are
// otherwise insignificant because statements are keyword-delimited.
type lexer struct {
	src  string
	pos  int
	line int
	file string
}

func newLexer(file, src string) lexer {
	return lexer{src: src, line: 1, file: file}
}

func (l *lexer) errorf(line int, format string, args ...any) error {
	return fmt.Errorf("%s:%d: %s", l.file, line, fmt.Sprintf(format, args...))
}

// isWordChar reports whether c can appear inside a bare word. Words carry
// identifiers (app-name, research-app), versions (210), addresses
// (192.168.0.0/24), patch ids (MS08-067), domains (skype.com) and unpadded
// base64 key material (A-Za-z0-9+/).
func isWordChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return true
	}
	switch c {
	case '-', '_', '.', '/', '+':
		return true
	}
	return false
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '\\':
			// Line continuation: backslash followed by optional spaces and a
			// newline. A backslash anywhere else is an error.
			j := l.pos + 1
			for j < len(l.src) && (l.src[j] == ' ' || l.src[j] == '\t' || l.src[j] == '\r') {
				j++
			}
			if j < len(l.src) && l.src[j] == '\n' {
				l.line++
				l.pos = j + 1
			} else if j >= len(l.src) {
				l.pos = j
			} else {
				return token{}, l.errorf(l.line, "stray '\\'")
			}
		case c == '#':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return l.scanToken()
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
}

func (l *lexer) scanToken() (token, error) {
	line := l.line
	c := l.src[l.pos]
	switch c {
	case '!':
		l.pos++
		return token{tokBang, "!", line}, nil
	case ',':
		l.pos++
		return token{tokComma, ",", line}, nil
	case ':':
		l.pos++
		return token{tokColon, ":", line}, nil
	case '=':
		l.pos++
		return token{tokAssign, "=", line}, nil
	case '(':
		l.pos++
		return token{tokLParen, "(", line}, nil
	case ')':
		l.pos++
		return token{tokRParen, ")", line}, nil
	case '[':
		l.pos++
		return token{tokLBracket, "[", line}, nil
	case ']':
		l.pos++
		return token{tokRBracket, "]", line}, nil
	case '{':
		l.pos++
		return token{tokLBrace, "{", line}, nil
	case '}':
		l.pos++
		return token{tokRBrace, "}", line}, nil
	case '"':
		return l.scanString()
	case '<':
		return l.scanTableRef()
	case '$':
		l.pos++
		w, err := l.scanWordText()
		if err != nil {
			return token{}, err
		}
		return token{tokMacro, w, line}, nil
	case '@':
		l.pos++
		w, err := l.scanWordText()
		if err != nil {
			return token{}, err
		}
		return token{tokAt, w, line}, nil
	case '*':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '@' {
			l.pos += 2
			w, err := l.scanWordText()
			if err != nil {
				return token{}, err
			}
			return token{tokStarAt, w, line}, nil
		}
		return token{}, l.errorf(line, "stray '*' (did you mean *@src[...]?)")
	}
	if isWordChar(c) {
		w, err := l.scanWordText()
		if err != nil {
			return token{}, err
		}
		return token{tokWord, w, line}, nil
	}
	return token{}, l.errorf(line, "unexpected character %q", string(c))
}

func (l *lexer) scanWordText() (string, error) {
	start := l.pos
	for l.pos < len(l.src) && isWordChar(l.src[l.pos]) {
		l.pos++
	}
	if l.pos == start {
		return "", l.errorf(l.line, "expected identifier")
	}
	return l.src[start:l.pos], nil
}

func (l *lexer) scanTableRef() (token, error) {
	line := l.line
	l.pos++ // consume '<'
	start := l.pos
	for l.pos < len(l.src) && isWordChar(l.src[l.pos]) {
		l.pos++
	}
	if l.pos == start || l.pos >= len(l.src) || l.src[l.pos] != '>' {
		return token{}, l.errorf(line, "malformed table reference")
	}
	name := l.src[start:l.pos]
	l.pos++ // consume '>'
	return token{tokTable, name, line}, nil
}

// scanString scans a quoted string. Its text is a slice of the source
// unless a backslash-newline continuation splits it, which only then is
// joined into a string of its own.
func (l *lexer) scanString() (token, error) {
	line := l.line
	l.pos++ // consume opening quote
	seg := l.pos
	var joined []byte // the segments before the last continuation
	split := false
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '"':
			text := l.src[seg:l.pos]
			if split {
				text = string(append(joined, text...))
			}
			l.pos++
			return token{tokString, text, line}, nil
		case '\n':
			l.line++
			l.pos++
		case '\\':
			// Inside strings a backslash-newline is a continuation; any
			// other escape is kept verbatim (PF strings are not C strings).
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\n' {
				joined, split = append(joined, l.src[seg:l.pos]...), true
				l.line++
				l.pos += 2
				seg = l.pos
				continue
			}
			l.pos++
		default:
			l.pos++
		}
	}
	return token{}, l.errorf(line, "unterminated string")
}
