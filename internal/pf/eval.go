package pf

import (
	"fmt"
	"sync"
	"sync/atomic"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// maxAllowedDepth bounds recursion through the `allowed` function: a
// malicious `requirements` value whose rules call allowed() on themselves
// must not hang the controller.
const maxAllowedDepth = 4

// Policy is a compiled PF+=2 ruleset: resolved tables, dictionaries,
// macros, the ordered rule list, and the function registry. A Policy is
// safe for concurrent Evaluate calls. The definition maps (Tables,
// Dicts, Macros) must not be mutated after Compile — the lowered
// decision program (program.go) pre-resolves against them; Default and
// Register stay live.
//
// Because controller configuration is the concatenation of several files
// (§3.4), Compile merges definitions across files: tables union their
// elements, dict entries and macros are overridden by later files.
type Policy struct {
	Tables map[string]*netaddr.IPSet
	Dicts  map[string]map[string]string
	Macros map[string]string
	Rules  []*Rule

	// Default is the verdict when no rule matches. Vanilla PF defaults to
	// pass; the paper's configurations always open with "block all".
	Default Action

	funcs *FuncRegistry

	// prog is the lowered decision program (compile.go); set by Compile,
	// lazily by Program() for hand-assembled policies.
	prog atomic.Pointer[Program]

	// ruleCache memoizes parse+lower results for `allowed` arguments,
	// which repeat across flows from the same application. The memo is
	// bounded (maxRuleCacheEntries, compile.go): its keys arrive from the
	// network, so without a cap a churning `requirements` value would
	// grow it forever.
	ruleCache          sync.Map // string -> *allowedEntry
	ruleCacheN         atomic.Int64
	ruleCacheEvictions atomic.Int64

	// ruleCacheRing/ruleCacheHand drive CLOCK eviction over the memo
	// (compile.go): the ring holds insertion-ordered keys, the hand sweeps
	// it granting second chances to entries used since the last sweep, so
	// a hot `allowed` argument survives a churning cold one.
	ruleCacheMu   sync.Mutex
	ruleCacheRing []string
	ruleCacheHand int
}

// Compile resolves the definitions of one or more parsed files (in order)
// into an executable policy.
func Compile(files ...*File) (*Policy, error) {
	p := &Policy{
		Tables:  make(map[string]*netaddr.IPSet),
		Dicts:   make(map[string]map[string]string),
		Macros:  make(map[string]string),
		Default: Pass,
		funcs:   DefaultFuncs(),
	}
	// Definitions first, so rules may reference tables defined later in the
	// concatenation (the paper's 99-local-footer constrains rules in 50-).
	var tableDefs []*TableDef
	for _, f := range files {
		for _, s := range f.Stmts {
			switch st := s.(type) {
			case *TableDef:
				tableDefs = append(tableDefs, st)
			case *DictDef:
				d := p.Dicts[st.Name]
				if d == nil {
					d = make(map[string]string)
					p.Dicts[st.Name] = d
				}
				for k, v := range st.Pairs {
					d[k] = v
				}
			case *MacroDef:
				p.Macros[st.Name] = st.Value
			case *Rule:
				p.Rules = append(p.Rules, st)
			}
		}
	}
	if err := p.resolveTables(tableDefs); err != nil {
		return nil, err
	}
	// Validate rule references eagerly: a typo'd table name should fail at
	// load time, not silently never-match at enforcement time.
	for _, r := range p.Rules {
		for _, a := range []AddrExpr{r.From, r.To} {
			if err := p.checkAddr(a, r.Pos); err != nil {
				return nil, err
			}
		}
	}
	// Lower to the flat decision program here, once, so SetPolicy swaps
	// never lower on the decision path (and statically-known embedded
	// `allowed` rules are pre-parsed into the rule cache).
	p.prog.Store(lowerPolicy(p))
	return p, nil
}

// MustCompile parses and compiles src, panicking on error; for tests and
// example setup.
func MustCompile(name, src string) *Policy {
	f, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	p, err := Compile(f)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Policy) checkAddr(a AddrExpr, pos Pos) error {
	switch a.Kind {
	case AddrTable:
		if _, ok := p.Tables[a.Table]; !ok {
			return fmt.Errorf("%s: undefined table <%s>", pos, a.Table)
		}
	case AddrList:
		for _, e := range a.List {
			if err := p.checkAddr(e, pos); err != nil {
				return err
			}
		}
	}
	return nil
}

// resolveTables flattens nested table references with cycle detection.
func (p *Policy) resolveTables(defs []*TableDef) error {
	merged := make(map[string][]TableElem)
	for _, d := range defs {
		merged[d.Name] = append(merged[d.Name], d.Elems...)
	}
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var resolve func(name string) (*netaddr.IPSet, error)
	resolve = func(name string) (*netaddr.IPSet, error) {
		if s, ok := p.Tables[name]; ok {
			return s, nil
		}
		elems, ok := merged[name]
		if !ok {
			return nil, fmt.Errorf("pf: undefined table <%s>", name)
		}
		switch state[name] {
		case visiting:
			return nil, fmt.Errorf("pf: table <%s> is defined in terms of itself", name)
		}
		state[name] = visiting
		set := netaddr.NewIPSet()
		for _, e := range elems {
			if e.Ref != "" {
				sub, err := resolve(e.Ref)
				if err != nil {
					return nil, err
				}
				set.AddSet(sub)
				continue
			}
			set.Add(e.Prefix)
		}
		state[name] = done
		p.Tables[name] = set
		return set, nil
	}
	for name := range merged {
		if _, err := resolve(name); err != nil {
			return err
		}
	}
	return nil
}

// Register installs (or replaces) a named predicate function, the paper's
// "functions are user-definable and new functions can be added" (§3.3).
//
// Replacing a built-in invalidates the compiled program's static key
// analysis (a replacement may read anything), so the policy re-lowers and
// drops memoized embedded analyses. Controllers snapshot the compiled
// program: Register before handing the policy to a controller, or
// re-issue SetPolicy afterwards — Register is not synchronized with
// in-flight evaluations.
func (p *Policy) Register(name string, fn Func) {
	p.funcs.Register(name, fn)
	// The registry is the single authority on which names invalidate the
	// static analysis (it records them as overridden); re-lower and drop
	// memoized embedded analyses when this registration was one.
	if p.funcs.Overridden(name) {
		p.ruleCache.Range(func(k, _ any) bool {
			if _, loaded := p.ruleCache.LoadAndDelete(k); loaded {
				p.ruleCacheN.Add(-1)
			}
			return true
		})
		p.ruleCacheMu.Lock()
		p.ruleCacheRing = nil
		p.ruleCacheHand = 0
		p.ruleCacheMu.Unlock()
		p.prog.Store(lowerPolicy(p))
	}
}

// Input is what a policy decision is made from: the flow's 5-tuple and the
// ident++ responses from its two ends (either may be nil when an end did
// not answer, e.g. hosts outside the ident++ deployment, §4 "Incremental
// Benefit").
//
// Ownership contract: Evaluate BORROWS Src and Dst for the duration of the
// call — it reads their sections in place and never copies, mutates, or
// retains them past return. The caller therefore stays the owner: it may
// hand the same responses to many Evaluate calls (the controller's response
// cache does exactly that) or recycle them through AcquireResponse /
// ReleaseResponse the moment the decision is made. The only thing that
// outlives Evaluate is the returned Decision, which aliases nothing from
// the responses.
type Input struct {
	Flow flow.Five
	Src  *wire.Response
	Dst  *wire.Response
}

// Decision is the outcome of evaluating a policy over an input.
type Decision struct {
	Action Action
	// Rule is the rule that decided the action; nil when no rule matched
	// and the default applied.
	Rule *Rule
	// Matched reports whether any rule matched.
	Matched bool
	// KeepState is set when the deciding rule carries `keep state`; the
	// controller then also admits the reverse flow.
	KeepState bool
	// Diags collects evaluation problems (unknown function, missing macro,
	// malformed embedded rules). A rule with a failing predicate does not
	// match; diagnostics surface why.
	Diags []string
}

// Field-use trace bits: the header fields an evaluation actually consulted.
// Two flows identical in every traced field take the same path through the
// compiled program and receive the same verdict — the OVS megaflow insight,
// applied to policy decisions. The bits are set lazily during a traced
// evaluation (EvaluateTraced): a guard that never ran, or that admits every
// value alike (non-negated `any`), contributes nothing.
const (
	TraceSrcIP uint8 = 1 << iota
	TraceSrcPort
	TraceDstIP
	TraceDstPort
)

// TraceAllFields is every traceable header field; a trace equal to it
// describes an exact-tuple decision that cannot be widened.
const TraceAllFields = TraceSrcIP | TraceSrcPort | TraceDstIP | TraceDstPort

// Trace is the per-evaluation field-use record EvaluateTraced returns: which
// header fields the verdict read, and whether it read endpoint keys from
// each end. An endpoint-key read forces that end's IP and port into Fields —
// a daemon's answer is a function of its own end's addressing (the daemon
// resolves the owning process from its local socket), so two flows sharing
// the queried end's IP and port are served the same answer. Proto is never
// traced: it is always part of the equivalence class key (Mask keeps it).
type Trace struct {
	Fields uint8
	// SrcRead/DstRead report that the verdict read at least one endpoint
	// key (or the absence of a response) from that end; the megaflow layer
	// registers fact dependencies only for ends actually read.
	SrcRead, DstRead bool
}

// Mask returns f with every field the evaluation never consulted zeroed,
// the canonical representative of f's traffic equivalence class under this
// trace. Proto is always kept: PF+=2 header guards cannot test it, but
// daemon answers for dynamic per-connection keys can differ across
// protocols, so it is never wildcarded.
func (t Trace) Mask(f flow.Five) flow.Five {
	m := flow.Five{Proto: f.Proto}
	if t.Fields&TraceSrcIP != 0 {
		m.SrcIP = f.SrcIP
	}
	if t.Fields&TraceSrcPort != 0 {
		m.SrcPort = f.SrcPort
	}
	if t.Fields&TraceDstIP != 0 {
		m.DstIP = f.DstIP
	}
	if t.Fields&TraceDstPort != 0 {
		m.DstPort = f.DstPort
	}
	return m
}

// Evaluate runs the ruleset over in with PF's last-match-wins semantics:
// every rule is consulted in order, the final matching rule decides, and a
// matching `quick` rule short-circuits immediately (§3.3).
//
// Since the policy compiler landed, Evaluate is a thin wrapper over the
// lowered decision program (program.go, vm.go); the tree-walking
// interpreter survives as EvaluateInterpreted, the reference
// implementation the differential mode (SetDifferential) checks every
// verdict against.
//
// Evaluation is allocation-free in steady state: the evaluation context
// (including the argument scratch every `with` call resolves into) comes
// from a pool, and in.Src/in.Dst are borrowed, never copied — see Input for
// the ownership contract. Only diagnostics (which indicate a broken policy,
// not a normal decision) allocate.
func (p *Policy) Evaluate(in Input) Decision {
	d := p.EvaluateCompiled(in)
	if differential.Load() {
		ref := p.EvaluateInterpreted(in)
		if d.Action != ref.Action || d.Rule != ref.Rule ||
			d.Matched != ref.Matched || d.KeepState != ref.KeepState {
			panic(fmt.Sprintf(
				"pf: compiled program and interpreter disagree on %s:\n  compiled:    %+v\n  interpreted: %+v",
				in.Flow, d, ref))
		}
	}
	return d
}

// EvaluateCompiled executes the lowered decision program. Callers
// normally use Evaluate; this entry point exists for the differential
// tests and benchmarks that need to name one engine explicitly.
func (p *Policy) EvaluateCompiled(in Input) Decision {
	prog := p.Program()
	c := acquireEvalCtx(p, in, 0)
	c.compiled = true
	d := c.runProgram(prog.rules, prog.candidates(c, in.Flow), Decision{Action: p.Default})
	d.Diags = c.diags
	releaseEvalCtx(c)
	return d
}

// EvaluateTraced executes the compiled program with field-use tracing on:
// alongside the verdict it returns the trace of header fields and endpoint
// reads the evaluation actually performed, preserving the engine's
// short-circuit structure (a guard that never ran is not traced). The
// verdict is identical to Evaluate's; the trace is what lets a caller cache
// it for the whole traffic equivalence class instead of the exact tuple.
// Differential mode cross-checks the traced execution against the
// interpreter exactly as Evaluate does.
func (p *Policy) EvaluateTraced(in Input) (Decision, Trace) {
	prog := p.Program()
	c := acquireEvalCtx(p, in, 0)
	c.compiled = true
	c.tracing = true
	d := c.runProgram(prog.rules, prog.candidates(c, in.Flow), Decision{Action: p.Default})
	d.Diags = c.diags
	tr := Trace{Fields: c.traceFields, SrcRead: c.traceSrcRead, DstRead: c.traceDstRead}
	releaseEvalCtx(c)
	if differential.Load() {
		ref := p.EvaluateInterpreted(in)
		if d.Action != ref.Action || d.Rule != ref.Rule ||
			d.Matched != ref.Matched || d.KeepState != ref.KeepState {
			panic(fmt.Sprintf(
				"pf: traced program and interpreter disagree on %s:\n  compiled:    %+v\n  interpreted: %+v",
				in.Flow, d, ref))
		}
	}
	return d, tr
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
// default decision. Shared by Evaluate and EvalEmbedded.
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

// evalScratchArgs is the inline capacity for resolved `with` arguments; a
// call with more arguments falls back to one heap slice. verify() calls
// with long endorsement chains are the only realistic way past it.
const evalScratchArgs = 8

type evalCtx struct {
	p     *Policy
	in    Input
	depth int
	diags []string

	// compiled selects the engine embedded `allowed` rules run under, so
	// a differential evaluation exercises each engine end to end rather
	// than converging on shared embedded execution.
	compiled bool

	// tracing arms the field-use trace (EvaluateTraced); the VM and the
	// argument resolver record into traceFields/traceSrcRead/traceDstRead
	// as guards and reads actually execute. Off (the default), the trace
	// hooks cost one predicted branch each.
	tracing                    bool
	traceFields                uint8
	traceSrcRead, traceDstRead bool

	// pub is the *Ctx handed to predicate functions, pointing back at this
	// context; embedding it here keeps the per-call &Ctx{} off the heap.
	pub Ctx
	// valBuf is the argument scratch callFunc resolves into. Arguments are
	// borrowed by the callee for the duration of the call only (see Func).
	valBuf [evalScratchArgs]Value
}

// evalCtxPool recycles evaluation contexts across decisions; evaluation
// sits on the controller's packet-in fast path, where a per-decision
// context allocation (plus its Ctx and argument slice) was measurable.
var evalCtxPool = sync.Pool{New: func() any {
	c := new(evalCtx)
	c.pub.c = c
	return c
}}

func acquireEvalCtx(p *Policy, in Input, depth int) *evalCtx {
	c := evalCtxPool.Get().(*evalCtx)
	c.p = p
	c.in = in
	c.depth = depth
	return c
}

// releaseEvalCtx returns c to the pool. Ownership of c.diags has passed to
// the caller's Decision, so the slice is dropped, not truncated; response
// pointers and resolved values are cleared so the pool never pins a
// response or its strings past the decision that borrowed them.
func releaseEvalCtx(c *evalCtx) {
	c.p = nil
	c.in = Input{}
	c.depth = 0
	c.diags = nil
	c.compiled = false
	c.tracing = false
	c.traceFields = 0
	c.traceSrcRead, c.traceDstRead = false, false
	c.valBuf = [evalScratchArgs]Value{}
	evalCtxPool.Put(c)
}

func (c *evalCtx) diagf(format string, args ...any) {
	c.diags = append(c.diags, fmt.Sprintf(format, args...))
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

// Value is a resolved function argument. Present distinguishes a genuinely
// empty value from a missing key: comparisons against missing information
// are false, never errors — an end-host that stays silent must not be able
// to satisfy (or crash) a predicate.
type Value struct {
	S       string
	Present bool
	// Arg preserves the syntactic form, letting set-valued functions like
	// member re-resolve macros by name.
	Arg Arg
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
	return fn(&c.pub, vals)
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

// Ctx is the interface the predicate functions see. It exposes controlled
// access to the evaluation state: macro expansion for set arguments and
// recursive rule evaluation for `allowed`.
type Ctx struct {
	c *evalCtx
}

// Flow returns the flow under decision.
func (x *Ctx) Flow() flow.Five {
	if x.c.tracing {
		// A policy function saw the raw tuple; anything it computed may
		// depend on any field, so the verdict cannot be widened at all.
		x.c.traceFields = TraceAllFields
	}
	return x.c.in.Flow
}

// LookupMacro returns a macro body by name.
func (x *Ctx) LookupMacro(name string) (string, bool) {
	v, ok := x.c.p.Macros[name]
	return v, ok
}

// EvalEmbedded parses src as a rule-only PF+=2 fragment and evaluates it
// against the current flow and responses, implementing `allowed` (§3.3).
// The embedded rules run with this policy's tables, dicts, macros and
// functions visible, under the same engine (compiled program or
// interpreter) as the evaluation that reached them. Parse and lowering
// results are memoized in the policy's bounded rule cache.
func (x *Ctx) EvalEmbedded(origin, src string) (Decision, error) {
	if x.c.depth >= maxAllowedDepth {
		return Decision{}, fmt.Errorf("allowed() recursion deeper than %d", maxAllowedDepth)
	}
	entry := x.c.p.embeddedEntry(origin, src, x.c.depth+1)
	if entry.err != nil {
		return Decision{}, entry.err
	}
	sub := acquireEvalCtx(x.c.p, x.c.in, x.c.depth+1)
	sub.compiled = x.c.compiled
	sub.tracing = x.c.tracing
	// Embedded rule sets are default-deny.
	var d Decision
	if sub.compiled {
		d = sub.runProgram(entry.prog, denseIter(len(entry.prog)), Decision{Action: Block})
	} else {
		d = sub.run(entry.rules, Decision{Action: Block})
	}
	x.c.diags = append(x.c.diags, sub.diags...)
	x.c.traceFields |= sub.traceFields
	x.c.traceSrcRead = x.c.traceSrcRead || sub.traceSrcRead
	x.c.traceDstRead = x.c.traceDstRead || sub.traceDstRead
	releaseEvalCtx(sub)
	return d, nil
}
