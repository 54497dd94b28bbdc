package pf

import (
	"fmt"

	"identxx/internal/wire"
)

// The VM: a non-recursive executor for the compiled program (program.go).
// One flat loop applies PF's last-match-wins scan to the candidates the
// dispatch index (dispatch.go) yields, in rule order; matchers and
// arguments were pre-resolved at lower time, so the per-candidate work is
// pointer-chasing-free header checks plus direct predicate calls.
// The VM shares the pooled evalCtx (and its inline argument scratch) with
// the interpreter, so steady-state execution allocates nothing.

// runProgram applies the last-match-wins scan to the compiled rules it
// yields, starting from the given default decision. The compiled
// counterpart of evalCtx.run.
func (c *evalCtx) runProgram(rules []progRule, it candIter, d Decision) Decision {
	for i := it.pop(); i >= 0; i = it.pop() {
		r := &rules[i]
		if !c.progRuleMatches(r) {
			continue
		}
		d.Action = r.action
		d.Rule = r.src
		d.Matched = true
		d.KeepState = r.keepState
		if r.quick {
			break
		}
	}
	return d
}

// progRuleMatches evaluates one compiled rule against the context's
// input: header guards first, then the predicates in order.
func (c *evalCtx) progRuleMatches(r *progRule) bool {
	if !r.headerMatches(c, c.in.Flow) {
		return false
	}
	return c.progCallsMatch(r)
}

// progCallsMatch runs a rule's compiled predicates. An erroring predicate
// records a diagnostic and fails the rule, as in the interpreter.
func (c *evalCtx) progCallsMatch(r *progRule) bool {
	for i := range r.calls {
		pc := &r.calls[i]
		ok, err := c.callProg(pc)
		if err != nil {
			c.diagf("%s: %s: %v", r.src.Pos, pc.fc, err)
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// callProg invokes one compiled predicate, resolving its arguments into
// the context's inline scratch.
func (c *evalCtx) callProg(pc *progCall) (bool, error) {
	fn, ok := c.p.funcs.Lookup(pc.name)
	if !ok {
		return false, fmt.Errorf("unknown function %q", pc.name)
	}
	vals := c.valBuf[:0]
	if len(pc.args) > len(c.valBuf) {
		vals = make([]Value, 0, len(pc.args))
	}
	for i := range pc.args {
		vals = append(vals, c.resolveProgArg(&pc.args[i]))
	}
	return fn(&c.pub, vals)
}

// resolveProgArg materializes one compiled argument. Constants were
// resolved at lower time; only endpoint reads touch the responses.
func (c *evalCtx) resolveProgArg(a *progArg) Value {
	switch a.kind {
	case argConst:
		return a.val
	case argSrcKey:
		c.traceSrcEndpointRead()
		return latestValue(c.in.Src, a)
	case argDstKey:
		c.traceDstEndpointRead()
		return latestValue(c.in.Dst, a)
	case argSrcConcat:
		c.traceSrcEndpointRead()
		return concatValue(c.in.Src, a)
	case argDstConcat:
		c.traceDstEndpointRead()
		return concatValue(c.in.Dst, a)
	case argDiag:
		c.diags = append(c.diags, a.diag)
		return a.val
	}
	return Value{Arg: a.arg}
}

// traceSrcEndpointRead records that the verdict read the source end's
// daemon answer. A daemon's answer is a function of its own end's
// addressing (the daemon resolves the querying flow to a socket owner by
// its local IP and port), so any flow sharing that end shares the answer
// — the trace pins the end's IP and port, and SrcRead marks the widened
// entry as depending on that endpoint's facts for revocation.
func (c *evalCtx) traceSrcEndpointRead() {
	if c.tracing {
		c.traceFields |= TraceSrcIP | TraceSrcPort
		c.traceSrcRead = true
	}
}

// traceDstEndpointRead is traceSrcEndpointRead for the destination end.
func (c *evalCtx) traceDstEndpointRead() {
	if c.tracing {
		c.traceFields |= TraceDstIP | TraceDstPort
		c.traceDstRead = true
	}
}

func latestValue(resp *wire.Response, a *progArg) Value {
	if resp == nil {
		return Value{Arg: a.arg}
	}
	v, ok := resp.Latest(a.key)
	return Value{S: v, Present: ok, Arg: a.arg}
}

func concatValue(resp *wire.Response, a *progArg) Value {
	if resp == nil {
		return Value{Arg: a.arg}
	}
	v, ok := resp.Concat(a.key)
	return Value{S: v, Present: ok, Arg: a.arg}
}
