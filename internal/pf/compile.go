package pf

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// This file is the lowering pass: Policy (parsed AST + resolved
// definitions) → Program (flat decision program, program.go). Lowering
// runs once per Compile (and once per distinct embedded `allowed` rule
// set, cached); it never fails — references Compile could not validate
// (tables inside embedded rules, macros, dicts) lower to diagnostic
// operations that fail their rule at evaluation time, exactly as the
// interpreter treats them.

// staticFuncs are the built-in predicates whose endpoint reads are fully
// described by their argument lists: they inspect the resolved Values
// (and, for member, a macro body) and nothing else. Any function outside
// this set — `allowed`, operator-registered functions, typos — may
// evaluate embedded rules against the full responses, so the key
// analysis must assume it can read anything.
var staticFuncs = map[string]bool{
	"eq": true, "gt": true, "lt": true, "gte": true, "lte": true,
	"member": true, "includes": true, "verify": true,
}

// lowerCtx carries one lowering pass's state: the policy the rules
// resolve against and whether the static analysis was truncated by the
// allowed-depth cap anywhere beneath this pass. Truncated analyses carry
// key sets valid only for the depth they were computed at, so they are
// never memoized (embeddedEntry) — a shallower call site re-analyzes at
// its own depth.
type lowerCtx struct {
	p         *Policy
	truncated bool
}

// lowerPolicy compiles p's rules into a Program.
func lowerPolicy(p *Policy) *Program {
	pr := &Program{policy: p}
	lc := lowerCtx{p: p}
	rules := lc.lowerRules(p.Rules, 0)
	pr.rules = rules
	pr.index = buildDispatch(rules)

	srcSets, dstSets := make([][]string, len(rules)), make([][]string, len(rules))
	for i := range rules {
		srcSets[i], dstSets[i] = rules[i].srcKeys, rules[i].dstKeys
	}
	pr.srcKeysAll = sortedKeyUnion(srcSets...)
	pr.dstKeysAll = sortedKeyUnion(dstSets...)
	pr.refKeys = sortedKeyUnion(pr.srcKeysAll, pr.dstKeysAll)
	pr.maybeHeaderOnly = computeMaybeHeaderOnly(rules)
	return pr
}

// computeMaybeHeaderOnly decides at compile time whether the header-only
// pre-pass can ever succeed: a rule whose header guards match every flow
// and which requires endpoint keys makes every flow undecidable — the
// paper's canonical "block all / pass all with eq(...)" shape — unless an
// earlier unconditional quick rule stops evaluation before it for every
// flow.
func computeMaybeHeaderOnly(rules []progRule) bool {
	for i := range rules {
		r := &rules[i]
		if !universalHeader(r) {
			continue
		}
		if r.needsEndpointKeys() {
			return false
		}
		if r.quick && len(r.calls) == 0 {
			// Matches and stops the scan for every flow: rules past this
			// one are unreachable.
			return true
		}
	}
	return true
}

// universalHeader reports whether the rule's header guards match every
// possible flow.
func universalHeader(r *progRule) bool {
	return r.from.kind == matchAny && !r.from.neg && r.fromPort.IsAny() &&
		r.to.kind == matchAny && !r.to.neg && r.toPort.IsAny()
}

// lowerRules lowers a rule list. depth bounds recursion through the
// static analysis of embedded `allowed` arguments, mirroring the
// evaluator's maxAllowedDepth so a self-referential macro cannot hang
// the compiler.
func (lc *lowerCtx) lowerRules(rules []*Rule, depth int) []progRule {
	out := make([]progRule, len(rules))
	for i, r := range rules {
		out[i] = lc.lowerRule(r, depth)
	}
	return out
}

func (lc *lowerCtx) lowerRule(r *Rule, depth int) progRule {
	p := lc.p
	pr := progRule{
		src:       r,
		action:    r.Action,
		quick:     r.Quick,
		keepState: r.KeepState,
		from:      lowerAddr(p, r.From),
		to:        lowerAddr(p, r.To),
		fromPort:  r.FromPort,
		toPort:    r.ToPort,
	}
	for i := range r.Withs {
		pr.calls = append(pr.calls, lc.lowerCall(&r.Withs[i], &pr, depth))
	}
	sort.Strings(pr.srcKeys)
	sort.Strings(pr.dstKeys)
	return pr
}

// lowerAddr compiles an address expression, resolving table references
// and flattening nested non-negated lists into one term slice. A table
// unresolved here (possible only in embedded rules; Compile validates
// top-level references) lowers to a matcher that diagnoses and fails.
func lowerAddr(p *Policy, a AddrExpr) addrMatcher {
	switch a.Kind {
	case AddrAny:
		return addrMatcher{kind: matchAny, neg: a.Neg}
	case AddrPrefix:
		return addrMatcher{kind: matchPrefix, neg: a.Neg, prefix: a.Prefix}
	case AddrTable:
		set, ok := p.Tables[a.Table]
		if !ok {
			return addrMatcher{kind: matchUndefined, neg: a.Neg, table: a.Table}
		}
		return addrMatcher{kind: matchSet, neg: a.Neg, set: set}
	case AddrList:
		m := addrMatcher{kind: matchList, neg: a.Neg}
		for _, e := range a.List {
			sub := lowerAddr(p, e)
			if sub.kind == matchList && !sub.neg {
				// OR is associative: splice a non-negated nested list's
				// terms directly into this one.
				m.list = append(m.list, sub.list...)
				continue
			}
			m.list = append(m.list, sub)
		}
		return m
	}
	return addrMatcher{kind: matchAny, neg: a.Neg}
}

// lowerCall compiles one `with` predicate and folds its endpoint reads
// into the rule's static key sets.
func (lc *lowerCtx) lowerCall(fc *FuncCall, pr *progRule, depth int) progCall {
	p := lc.p
	call := progCall{name: fc.Name, fc: fc}
	for _, a := range fc.Args {
		call.args = append(call.args, lowerArg(p, a))
		switch a.Kind {
		case ArgDict, ArgDictConcat:
			switch a.Text {
			case "src":
				pr.srcKeys = appendKeyHints(pr.srcKeys, []string{a.Key})
			case "dst":
				pr.dstKeys = appendKeyHints(pr.dstKeys, []string{a.Key})
			}
		}
	}
	// A built-in name the operator has replaced (Register) no longer has
	// the built-in's read behavior — the replacement may EvalEmbedded
	// anything — so it falls through to the conservative bound below.
	if staticFuncs[fc.Name] && !p.funcs.Overridden(fc.Name) {
		return call
	}
	if fc.Name == "allowed" && !p.funcs.Overridden("allowed") {
		lc.analyzeAllowed(fc, pr, depth)
		return call
	}
	// Unknown (possibly operator-registered later) function: it may hand
	// any of its arguments to EvalEmbedded, whose rules can read every
	// key of both responses. Conservative bound.
	pr.srcAll, pr.dstAll = true, true
	return call
}

// analyzeAllowed bounds the key requirements of one `allowed` call. When
// the embedded rules are statically known — a literal argument, a macro,
// or a policy-local dictionary entry — they are parsed, lowered (and
// cached for the evaluator), and their key requirements folded into the
// host rule's. A dynamic argument (@src/@dst) leaves the embedded rules
// unknowable until the responses arrive, so the rule is bounded only by
// "may read anything from either end".
func (lc *lowerCtx) analyzeAllowed(fc *FuncCall, pr *progRule, depth int) {
	p := lc.p
	if len(fc.Args) != 1 {
		return // arity error at eval time; the rule can never match
	}
	a := fc.Args[0]
	var src string
	switch {
	case a.Kind == ArgLiteral:
		src = a.Text
	case a.Kind == ArgMacro:
		v, ok := p.Macros[a.Text]
		if !ok {
			return // undefined macro: diagnostic at eval time, never matches
		}
		src = v
	case a.Kind == ArgDict && a.Text != "src" && a.Text != "dst":
		d, ok := p.Dicts[a.Text]
		if !ok {
			return
		}
		v, ok := d[a.Key]
		if !ok {
			return // absent value fails the predicate; never matches
		}
		src = v
	default:
		pr.srcAll, pr.dstAll = true, true
		return
	}
	src = strings.TrimSpace(src)
	if src == "" {
		return
	}
	if depth >= maxAllowedDepth {
		// At THIS depth the evaluator refuses the nesting too, so the
		// rule cannot match through it and contributes no keys — but the
		// same source analyzed from a shallower call site would descend
		// further, so this pass's results must not be memoized for reuse.
		lc.truncated = true
		return
	}
	entry := p.embeddedEntry("allowed("+a.String()+")", src, depth+1)
	if entry.truncated {
		lc.truncated = true
	}
	if entry.err != nil {
		return // never matches
	}
	for i := range entry.prog {
		er := &entry.prog[i]
		pr.srcKeys = appendKeyHints(pr.srcKeys, er.srcKeys)
		pr.dstKeys = appendKeyHints(pr.dstKeys, er.dstKeys)
		pr.srcAll = pr.srcAll || er.srcAll
		pr.dstAll = pr.dstAll || er.dstAll
	}
}

// lowerArg compiles one argument, pre-resolving everything that does not
// depend on the flow's responses.
func lowerArg(p *Policy, a Arg) progArg {
	switch a.Kind {
	case ArgLiteral:
		return progArg{kind: argConst, val: Value{S: a.Text, Present: true, Arg: a}}
	case ArgMacro:
		v, ok := p.Macros[a.Text]
		if !ok {
			return progArg{
				kind: argDiag,
				val:  Value{Arg: a},
				diag: fmt.Sprintf("undefined macro $%s", a.Text),
			}
		}
		return progArg{kind: argConst, val: Value{S: v, Present: true, Arg: a}}
	case ArgDict, ArgDictConcat:
		switch a.Text {
		case "src":
			if a.Kind == ArgDictConcat {
				return progArg{kind: argSrcConcat, key: a.Key, arg: a}
			}
			return progArg{kind: argSrcKey, key: a.Key, arg: a}
		case "dst":
			if a.Kind == ArgDictConcat {
				return progArg{kind: argDstConcat, key: a.Key, arg: a}
			}
			return progArg{kind: argDstKey, key: a.Key, arg: a}
		}
		d, ok := p.Dicts[a.Text]
		if !ok {
			return progArg{
				kind: argDiag,
				val:  Value{Arg: a},
				diag: fmt.Sprintf("undefined dict <%s>", a.Text),
			}
		}
		v, ok := d[a.Key]
		return progArg{kind: argConst, val: Value{S: v, Present: ok, Arg: a}}
	}
	return progArg{kind: argConst, val: Value{Arg: a}}
}

// maxRuleCacheEntries bounds the embedded-rules memo (Policy.ruleCache).
// `allowed` arguments repeat across flows from the same application, so
// the cache is essential on the hot path — but its keys arrive from the
// network (a `requirements` value is whatever an end-host sends), so an
// unbounded memo is a remotely-fillable memory leak. Past the cap, CLOCK
// eviction reclaims an entry not used since the hand's last sweep, so an
// attacker churning cold keys cannot evict the deployment's hot entries
// (arbitrary map-iteration eviction could, and re-admitting a hot entry
// costs a full parse+lower on the decision path).
const maxRuleCacheEntries = 1024

// allowedEntry is one memoized embedded rule set, lowered. truncated
// marks an analysis cut short by the depth cap — such entries are
// returned to their caller but never cached, because their key sets are
// only valid for the depth they were computed at.
type allowedEntry struct {
	prog      []progRule
	err       error
	truncated bool

	// used is the CLOCK reference bit: set on every cache hit, cleared by
	// the sweeping hand, which evicts only entries it finds cleared — i.e.
	// untouched for a full revolution.
	used atomic.Bool
}

// embeddedEntry parses, lowers, and memoizes one embedded rule source.
// depth bounds the static analysis recursion of nested `allowed` calls.
func (p *Policy) embeddedEntry(origin, src string, depth int) *allowedEntry {
	if cached, ok := p.ruleCache.Load(src); ok {
		e := cached.(*allowedEntry)
		e.used.Store(true)
		return e
	}
	rules, err := ParseRules(origin, src)
	e := &allowedEntry{err: err}
	if err == nil {
		lc := lowerCtx{p: p}
		e.prog = lc.lowerRules(rules, depth)
		e.truncated = lc.truncated
	}
	if e.truncated {
		return e // depth-dependent analysis; see allowedEntry
	}
	e.used.Store(true)
	if prev, loaded := p.ruleCache.LoadOrStore(src, e); loaded {
		pe := prev.(*allowedEntry)
		pe.used.Store(true)
		return pe
	}
	p.ruleCacheMu.Lock()
	p.ruleCacheRing = append(p.ruleCacheRing, src)
	p.ruleCacheMu.Unlock()
	if p.ruleCacheN.Add(1) > maxRuleCacheEntries {
		p.evictRuleCacheEntry(src)
	}
	return e
}

// evictRuleCacheEntry reclaims one resident entry other than keep, by
// CLOCK: the hand sweeps the insertion ring, clearing each live entry's
// reference bit and evicting the first it finds already cleared — hot
// entries (referenced since the previous sweep) get a second chance,
// cold ones leave. Slots whose entry is already gone (a Register flush,
// a concurrent evictor) are compacted out in passing. LoadAndDelete
// makes concurrent evictors racing onto the same victim decrement the
// size exactly once per actual removal — a plain Delete would let both
// decrement and the counter would drift under the cap while the map
// grows past it.
func (p *Policy) evictRuleCacheEntry(keep string) {
	p.ruleCacheMu.Lock()
	defer p.ruleCacheMu.Unlock()
	// Two revolutions suffice: the first clears every reference bit, so
	// the second's first live non-keep slot is evictable. The +1 absorbs
	// the keep slot.
	for spins := 2*len(p.ruleCacheRing) + 1; spins > 0 && len(p.ruleCacheRing) > 0; spins-- {
		if p.ruleCacheHand >= len(p.ruleCacheRing) {
			p.ruleCacheHand = 0
		}
		k := p.ruleCacheRing[p.ruleCacheHand]
		v, ok := p.ruleCache.Load(k)
		if !ok {
			// Dangling slot: the entry left by another path. Compact.
			p.ruleCacheRing = append(p.ruleCacheRing[:p.ruleCacheHand], p.ruleCacheRing[p.ruleCacheHand+1:]...)
			continue
		}
		if k == keep || v.(*allowedEntry).used.Swap(false) {
			p.ruleCacheHand++
			continue
		}
		if _, loaded := p.ruleCache.LoadAndDelete(k); loaded {
			p.ruleCacheN.Add(-1)
			p.ruleCacheEvictions.Add(1)
		}
		p.ruleCacheRing = append(p.ruleCacheRing[:p.ruleCacheHand], p.ruleCacheRing[p.ruleCacheHand+1:]...)
		return
	}
}

// RuleCacheStats reports the embedded-rules memo's resident entry count
// and lifetime evictions, for operators watching a churning
// `requirements` source.
func (p *Policy) RuleCacheStats() (entries, evictions int64) {
	return p.ruleCacheN.Load(), p.ruleCacheEvictions.Load()
}

// Program returns the compiled program for p, lowering lazily for
// policies assembled without Compile (tests building Policy values by
// hand). Compile pre-lowers, so the controller never pays this on a
// policy swap.
func (p *Policy) Program() *Program {
	if pr := p.prog.Load(); pr != nil {
		return pr
	}
	p.prog.CompareAndSwap(nil, lowerPolicy(p))
	return p.prog.Load()
}
