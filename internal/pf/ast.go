package pf

import (
	"fmt"
	"strings"
	"sync/atomic"

	"identxx/internal/netaddr"
)

// Action is a rule's verdict. The paper defines exactly two: "Currently,
// only two are defined: pass and block" (§3.3).
type Action int

// Rule actions.
const (
	Block Action = iota
	Pass
)

func (a Action) String() string {
	if a == Pass {
		return "pass"
	}
	return "block"
}

// Pos locates a construct in its source file for diagnostics and audit.
type Pos struct {
	File string
	Line int
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("line %d", p.Line)
	}
	return fmt.Sprintf("%s:%d", p.File, p.Line)
}

// File is a parsed PF+=2 source unit.
type File struct {
	Stmts []Stmt
}

// Stmt is a top-level statement: TableDef, DictDef, MacroDef, or *Rule.
type Stmt interface {
	stmt()
	String() string
}

// TableElem is one element of a table body: a prefix or a nested table
// reference ("table <int_hosts> { <lan> <server> }").
type TableElem struct {
	Prefix netaddr.Prefix
	Ref    string // non-empty for a table reference
}

// TableDef declares an address table.
type TableDef struct {
	Name  string
	Elems []TableElem
	Pos   Pos
}

func (*TableDef) stmt() {}

func (t *TableDef) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		if e.Ref != "" {
			parts[i] = "<" + e.Ref + ">"
		} else {
			parts[i] = e.Prefix.String()
		}
	}
	return fmt.Sprintf("table <%s> { %s }", t.Name, strings.Join(parts, " "))
}

// DictDef declares a dictionary (PF+=2's `dict` keyword), e.g. the
// <pubkeys> dictionaries of Figures 5 and 7.
type DictDef struct {
	Name  string
	Keys  []string // insertion order, for deterministic printing
	Pairs map[string]string
	Pos   Pos
}

func (*DictDef) stmt() {}

func (d *DictDef) String() string {
	parts := make([]string, len(d.Keys))
	for i, k := range d.Keys {
		parts[i] = k + " : " + d.Pairs[k]
	}
	return fmt.Sprintf("dict <%s> { %s }", d.Name, strings.Join(parts, " "))
}

// MacroDef declares a macro, e.g. `allowed = "{ http ssh }"`.
type MacroDef struct {
	Name  string
	Value string
	Pos   Pos
}

func (*MacroDef) stmt() {}

func (m *MacroDef) String() string { return fmt.Sprintf("%s = %q", m.Name, m.Value) }

// AddrKind discriminates AddrExpr variants.
type AddrKind int

// Address expression kinds.
const (
	AddrAny AddrKind = iota
	AddrTable
	AddrPrefix
	AddrList
)

// AddrExpr is a from/to operand: `any`, `<table>`, a literal address or
// CIDR, or a braces list of those; optionally negated with `!`.
type AddrExpr struct {
	Kind   AddrKind
	Neg    bool
	Table  string
	Prefix netaddr.Prefix
	List   []AddrExpr
}

// AnyAddr matches every address.
func AnyAddr() AddrExpr { return AddrExpr{Kind: AddrAny} }

func (a AddrExpr) String() string {
	var s string
	switch a.Kind {
	case AddrAny:
		s = "any"
	case AddrTable:
		s = "<" + a.Table + ">"
	case AddrPrefix:
		s = a.Prefix.String()
	case AddrList:
		parts := make([]string, len(a.List))
		for i, e := range a.List {
			parts[i] = e.String()
		}
		s = "{ " + strings.Join(parts, " ") + " }"
	}
	if a.Neg {
		return "!" + s
	}
	return s
}

// PortExpr constrains a port operand; an empty Ranges slice means any port.
type PortExpr struct {
	Ranges []netaddr.PortRange
}

// Matches reports whether p satisfies the expression.
func (pe PortExpr) Matches(p netaddr.Port) bool {
	if len(pe.Ranges) == 0 {
		return true
	}
	for _, r := range pe.Ranges {
		if r.Contains(p) {
			return true
		}
	}
	return false
}

// IsAny reports whether the expression is unconstrained.
func (pe PortExpr) IsAny() bool { return len(pe.Ranges) == 0 }

func (pe PortExpr) String() string {
	if pe.IsAny() {
		return ""
	}
	if len(pe.Ranges) == 1 {
		return "port " + pe.Ranges[0].String()
	}
	parts := make([]string, len(pe.Ranges))
	for i, r := range pe.Ranges {
		parts[i] = r.String()
	}
	return "port { " + strings.Join(parts, " ") + " }"
}

// ArgKind discriminates function-call argument variants.
type ArgKind int

// Argument kinds.
const (
	ArgLiteral    ArgKind = iota // bare word, number, or quoted string
	ArgMacro                     // $name
	ArgDict                      // @name[key] — name is src, dst, or a dict
	ArgDictConcat                // *@name[key]
)

// Arg is one argument to a `with` function call.
type Arg struct {
	Kind ArgKind
	Text string // literal text or macro/dict name
	Key  string // dictionary key for ArgDict/ArgDictConcat
}

func (a Arg) String() string {
	switch a.Kind {
	case ArgMacro:
		return "$" + a.Text
	case ArgDict:
		return fmt.Sprintf("@%s[%s]", a.Text, a.Key)
	case ArgDictConcat:
		return fmt.Sprintf("*@%s[%s]", a.Text, a.Key)
	}
	if strings.ContainsAny(a.Text, " \t") {
		return fmt.Sprintf("%q", a.Text)
	}
	return a.Text
}

// FuncCall is one `with` predicate.
type FuncCall struct {
	Name string
	Args []Arg
	Pos  Pos
}

func (f FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// Rule is one pass/block rule.
type Rule struct {
	Action    Action
	Quick     bool
	From      AddrExpr
	FromPort  PortExpr
	To        AddrExpr
	ToPort    PortExpr
	Withs     []FuncCall
	KeepState bool
	Pos       Pos

	// audit memoizes AuditString. Rules are immutable after parsing, so the
	// rendering never changes; caching it keeps rule naming off the
	// per-decision allocation budget (every audit entry names its rule).
	audit atomic.Pointer[string]
}

func (*Rule) stmt() {}

// AuditString renders the rule with its source position, the form audit
// entries record ("pass from any to any @ policy:3"). The string is computed
// once per rule and cached; concurrent callers may race the first render but
// always observe a complete string.
func (r *Rule) AuditString() string { return *r.AuditLabel() }

// AuditLabel returns the cached AuditString itself: every call returns the
// same pointer, so a record can keep it in place of a copy of the string.
func (r *Rule) AuditLabel() *string {
	if s := r.audit.Load(); s != nil {
		return s
	}
	s := fmt.Sprintf("%s @ %s", r, r.Pos)
	if r.audit.CompareAndSwap(nil, &s) {
		return &s
	}
	return r.audit.Load()
}

func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Action.String())
	if r.Quick {
		b.WriteString(" quick")
	}
	fromAny := r.From.Kind == AddrAny && !r.From.Neg && r.FromPort.IsAny()
	toAny := r.To.Kind == AddrAny && !r.To.Neg && r.ToPort.IsAny()
	if fromAny && toAny {
		b.WriteString(" all")
	} else {
		b.WriteString(" from ")
		b.WriteString(r.From.String())
		if !r.FromPort.IsAny() {
			b.WriteString(" ")
			b.WriteString(r.FromPort.String())
		}
		b.WriteString(" to ")
		b.WriteString(r.To.String())
		if !r.ToPort.IsAny() {
			b.WriteString(" ")
			b.WriteString(r.ToPort.String())
		}
	}
	for _, w := range r.Withs {
		b.WriteString(" with ")
		b.WriteString(w.String())
	}
	if r.KeepState {
		b.WriteString(" keep state")
	}
	return b.String()
}

// Rules returns the rule statements of the file in order.
func (f *File) Rules() []*Rule {
	var out []*Rule
	for _, s := range f.Stmts {
		if r, ok := s.(*Rule); ok {
			out = append(out, r)
		}
	}
	return out
}
