package pf

import (
	"fmt"
	"strings"
	"testing"

	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// The tree-walking interpreter: the original evaluator, kept as the
// reference the compiled program (program.go, vm.go) is differentially
// tested against. It walks the parsed rules (Policy.Rules) and resolves
// every table, macro and dictionary at evaluation time, so it shares no
// lowering with the engine it checks. It lives in the test binary only:
// identctl links the compiled program and nothing else.
//
// evaluate and evaluateTraced are how the package's tests evaluate: they
// run the compiled program and hold its verdict to the interpreter's.

// evaluate is p.Evaluate(in), failing t when the interpreter disagrees.
func evaluate(t testing.TB, p *Policy, in Input) Decision {
	t.Helper()
	d := p.Evaluate(in)
	if diff := disagreement(p, in, d); diff != "" {
		t.Errorf("compiled program and interpreter disagree on %s:\n%s", in.Flow, diff)
	}
	return d
}

// evaluateTraced is p.EvaluateTraced(in), failing t when the interpreter
// disagrees with the traced verdict.
func evaluateTraced(t testing.TB, p *Policy, in Input) (Decision, Trace) {
	t.Helper()
	d, tr := p.EvaluateTraced(in)
	if diff := disagreement(p, in, d); diff != "" {
		t.Errorf("traced program and interpreter disagree on %s:\n%s", in.Flow, diff)
	}
	return d, tr
}

// disagreement returns "" when the interpreter reaches d's action, rule,
// matched flag and keep state on in, and both verdicts otherwise.
func disagreement(p *Policy, in Input, d Decision) string {
	ref := p.EvaluateInterpreted(in)
	if d.Action == ref.Action && d.Rule == ref.Rule && d.Matched == ref.Matched && d.KeepState == ref.KeepState {
		return ""
	}
	return fmt.Sprintf("  compiled:    %+v\n  interpreted: %+v", d, ref)
}

// EvaluateInterpreted walks the parsed rule AST — the original evaluator,
// kept as the reference the compiled program is differentially tested
// against.
func (p *Policy) EvaluateInterpreted(in Input) Decision {
	c := acquireEvalCtx(p, in, 0)
	d := c.run(p.Rules, Decision{Action: p.Default})
	d.Diags = c.diags
	releaseEvalCtx(c)
	return d
}

// run applies the last-match-wins scan to rules, starting from the given
// default decision. Shared by EvaluateInterpreted and allowed.
func (c *evalCtx) run(rules []*Rule, d Decision) Decision {
	for _, r := range rules {
		if !c.ruleMatches(r) {
			continue
		}
		d.Action = r.Action
		d.Rule = r
		d.Matched = true
		d.KeepState = r.KeepState
		if r.Quick {
			break
		}
	}
	return d
}

func (c *evalCtx) ruleMatches(r *Rule) bool {
	if !c.addrMatches(r.From, c.in.Flow.SrcIP) {
		return false
	}
	if !r.FromPort.Matches(c.in.Flow.SrcPort) {
		return false
	}
	if !c.addrMatches(r.To, c.in.Flow.DstIP) {
		return false
	}
	if !r.ToPort.Matches(c.in.Flow.DstPort) {
		return false
	}
	for _, w := range r.Withs {
		ok, err := c.callFunc(w)
		if err != nil {
			c.diagf("%s: %s: %v", r.Pos, w, err)
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

func (c *evalCtx) addrMatches(a AddrExpr, ip netaddr.IP) bool {
	var base bool
	switch a.Kind {
	case AddrAny:
		base = true
	case AddrPrefix:
		base = a.Prefix.Contains(ip)
	case AddrTable:
		t, ok := c.p.Tables[a.Table]
		if !ok {
			c.diagf("undefined table <%s>", a.Table)
			return false
		}
		base = t.Contains(ip)
	case AddrList:
		for _, e := range a.List {
			if c.addrMatches(e, ip) {
				base = true
				break
			}
		}
	}
	if a.Neg {
		return !base
	}
	return base
}

func (c *evalCtx) callFunc(fc FuncCall) (bool, error) {
	fn, ok := c.p.funcs.Lookup(fc.Name)
	if !ok {
		return false, fmt.Errorf("unknown function %q", fc.Name)
	}
	// Resolve into the context's scratch when it fits. Calls within one rule
	// run sequentially and a recursing `allowed` gets its own pooled context,
	// so the scratch is never live twice.
	vals := c.valBuf[:0]
	if len(fc.Args) > len(c.valBuf) {
		vals = make([]Value, 0, len(fc.Args))
	}
	for _, a := range fc.Args {
		vals = append(vals, c.resolveArg(a))
	}
	if fc.Name == "allowed" && !c.p.funcs.Overridden("allowed") {
		return c.allowed(vals)
	}
	return fn(&c.pub, vals)
}

// allowed is the built-in fnAllowed with Ctx.EvalEmbedded inlined, the
// embedded rules parsed afresh and interpreted. Through the built-in they
// would run as the memoized compiled program — the engine under test — and
// a lowering bug inside an `allowed(...)` rule set would agree with itself.
// Everything else matches EvalEmbedded: the depth bound, default-deny, and
// the parse error as the rule's diagnostic.
func (c *evalCtx) allowed(args []Value) (bool, error) {
	if err := need(args, 1, "allowed"); err != nil {
		return false, err
	}
	if !args[0].Present {
		return false, nil
	}
	src := strings.TrimSpace(args[0].S)
	if src == "" {
		return false, nil
	}
	if c.depth >= maxAllowedDepth {
		return false, fmt.Errorf("allowed() recursion deeper than %d", maxAllowedDepth)
	}
	rules, err := ParseRules("allowed("+args[0].Arg.String()+")", src)
	if err != nil {
		return false, err
	}
	sub := acquireEvalCtx(c.p, c.in, c.depth+1)
	d := sub.run(rules, Decision{Action: Block})
	c.diags = append(c.diags, sub.diags...)
	releaseEvalCtx(sub)
	return d.Action == Pass, nil
}

func (c *evalCtx) resolveArg(a Arg) Value {
	switch a.Kind {
	case ArgLiteral:
		return Value{S: a.Text, Present: true, Arg: a}
	case ArgMacro:
		v, ok := c.p.Macros[a.Text]
		if !ok {
			c.diagf("undefined macro $%s", a.Text)
			return Value{Arg: a}
		}
		return Value{S: v, Present: true, Arg: a}
	case ArgDict, ArgDictConcat:
		return c.resolveDict(a)
	}
	return Value{Arg: a}
}

func (c *evalCtx) resolveDict(a Arg) Value {
	var resp *wire.Response
	switch a.Text {
	case "src":
		resp = c.in.Src
	case "dst":
		resp = c.in.Dst
	default:
		d, ok := c.p.Dicts[a.Text]
		if !ok {
			c.diagf("undefined dict <%s>", a.Text)
			return Value{Arg: a}
		}
		v, ok := d[a.Key]
		return Value{S: v, Present: ok, Arg: a}
	}
	if resp == nil {
		return Value{Arg: a}
	}
	if a.Kind == ArgDictConcat {
		v, ok := resp.Concat(a.Key)
		return Value{S: v, Present: ok, Arg: a}
	}
	v, ok := resp.Latest(a.Key)
	return Value{S: v, Present: ok, Arg: a}
}
