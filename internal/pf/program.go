package pf

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// This file defines the compiled form of a policy: a flat, first-class
// decision program the VM (vm.go) executes instead of walking the parsed
// AST per decision. Compile lowers the ordered rule list once per
// SetPolicy — the way real packet filters (BPF, pf, iptables) compile
// their rulesets — so a decision runs pre-resolved matchers over the few
// rules its header can reach:
//
//   - a dispatch index over one header field (dispatch.go) hands each
//     decision its candidates — the rules filed under the flow's value
//     plus the rules that field cannot discriminate — not the ruleset,
//   - table references are resolved to *netaddr.IPSet pointers,
//   - address lists are flattened (nested non-negated lists collapse),
//   - CIDR prefixes and port ranges are the parsed value types,
//   - macro and local-dict arguments are interned as constant Values,
//   - every rule carries its static key-requirement set: which @src/@dst
//     keys the rule can actually read, including the keys inside
//     statically-known embedded `allowed` rules, with a conservative
//     "may read anything" bound for dynamic ones.
//
// The key sets power two controller-side optimizations (§3.2's "list of
// keys that the controller is interested in"): per-flow key hints (ask a
// daemon only for keys a still-matching rule could read) and the
// header-only pre-pass (if no rule that could match a flow reads any
// endpoint key, decide from the header alone and query nothing).
//
// The definition maps of a Policy (Tables, Dicts, Macros) must not be
// mutated after Compile: the program pre-resolves against them. Default
// and Register remain live — the VM reads Policy.Default per evaluation
// and looks functions up per call, exactly as the interpreter does.

// Program is the compiled, flat form of a Policy's ruleset.
type Program struct {
	policy *Policy
	rules  []progRule
	// index orders every scan of rules: Prepass, Hints and evaluation all
	// draw their candidates from it (dispatch.go).
	index dispatchIndex

	// srcKeysAll/dstKeysAll are the sorted unions of every rule's static
	// key set for that end; the hint fallback when a rule's requirements
	// are not statically bounded. refKeys is their union — the policy's
	// ReferencedKeys.
	srcKeysAll, dstKeysAll []string
	refKeys                []string

	// maybeHeaderOnly gates the per-flow pre-pass: false when some rule
	// with universal header guards requires endpoint keys, in which case
	// no flow can ever be decided header-only and the pre-pass would be a
	// wasted scan on every packet-in.
	maybeHeaderOnly bool
}

// progRule is one lowered rule.
type progRule struct {
	src       *Rule // the parsed rule: verdict identity, audit naming, positions
	action    Action
	quick     bool
	keepState bool

	from, to         addrMatcher
	fromPort, toPort PortExpr

	calls []progCall

	// Static key requirements: the @src/@dst dictionary keys this rule's
	// predicates can read. srcAll/dstAll flag rules whose reads are not
	// statically bounded (dynamic embedded `allowed` rules, unknown or
	// operator-registered functions that may evaluate embedded rules).
	srcKeys, dstKeys []string
	srcAll, dstAll   bool
}

// needsEndpointKeys reports whether the rule can read any endpoint
// information at all. Rules for which this is false are decidable from
// the flow header (plus policy-local constants) alone.
func (r *progRule) needsEndpointKeys() bool {
	return len(r.srcKeys) > 0 || len(r.dstKeys) > 0 || r.srcAll || r.dstAll
}

// addrMatchKind discriminates addrMatcher variants.
type addrMatchKind uint8

const (
	matchAny addrMatchKind = iota
	matchPrefix
	matchSet       // resolved table pointer
	matchList      // OR over terms (flattened where possible)
	matchUndefined // table unresolved at lower time (embedded rules only)
)

// addrMatcher is a lowered AddrExpr: tables resolved to IPSet pointers,
// nested non-negated lists flattened into one term slice.
type addrMatcher struct {
	kind   addrMatchKind
	neg    bool
	prefix netaddr.Prefix
	set    *netaddr.IPSet
	list   []addrMatcher
	table  string // matchUndefined: name for the diagnostic
}

// matches reports whether ip satisfies the matcher. c carries the
// diagnostic sink and may be nil (the hint walk needs no diagnostics);
// top-level programs never contain matchUndefined — Compile validates
// table references — so only embedded rules can hit it.
func (m *addrMatcher) matches(c *evalCtx, ip netaddr.IP) bool {
	var base bool
	switch m.kind {
	case matchAny:
		base = true
	case matchPrefix:
		base = m.prefix.Contains(ip)
	case matchSet:
		base = m.set.Contains(ip)
	case matchList:
		for i := range m.list {
			if m.list[i].matches(c, ip) {
				base = true
				break
			}
		}
	case matchUndefined:
		// Same shape as the interpreter: diagnose and fail the match
		// outright, negation notwithstanding.
		if c != nil {
			c.diagf("undefined table <%s>", m.table)
		}
		return false
	}
	return base != m.neg
}

// progArgKind discriminates compiled argument variants.
type progArgKind uint8

const (
	// argConst is a fully pre-resolved Value: literals, macros, and
	// policy-local dictionary lookups.
	argConst progArgKind = iota
	argSrcKey
	argDstKey
	argSrcConcat
	argDstConcat
	// argDiag records a broken reference (undefined macro or dict); it
	// resolves to an absent Value and emits its diagnostic on every
	// evaluation, as the interpreter does.
	argDiag
)

// progArg is one compiled function argument.
type progArg struct {
	kind progArgKind
	val  Value  // argConst/argDiag: the pre-built Value (Arg preserved)
	key  string // argSrc*/argDst*: the dictionary key
	arg  Arg    // original syntactic form for dynamically-built Values
	diag string // argDiag: message to record per evaluation
}

// progCall is one compiled `with` predicate.
type progCall struct {
	name string
	args []progArg
	fc   *FuncCall // original call, for diagnostics
}

// MaybeHeaderOnly reports whether any flow could possibly be decided by
// the header-only pre-pass under this program. False means Prepass would
// fail for every flow and the controller skips it entirely.
func (pr *Program) MaybeHeaderOnly() bool { return pr.maybeHeaderOnly }

// NumRules returns the number of compiled rules.
func (pr *Program) NumRules() int { return len(pr.rules) }

// ScanWorstCase returns the most rules any one decision can have to look
// at: NumRules when no header field discriminates the ruleset, else the
// dispatch field's residual plus its largest bucket. A reload that moves
// this toward NumRules has de-optimised every decision's scan.
func (pr *Program) ScanWorstCase() int { return pr.index.worst }

// ReferencedKeys returns the sorted set of @src/@dst keys the program's
// rules can read, including keys inside statically-known embedded
// `allowed` rules. This is the one source of truth behind
// Policy.ReferencedKeys.
func (pr *Program) ReferencedKeys() []string {
	return append([]string(nil), pr.refKeys...)
}

// appendKeyHints appends the members of keys not already in hints,
// preserving hint order; hint sets are small enough that the linear
// containment scan beats any set structure.
func appendKeyHints(hints, keys []string) []string {
outer:
	for _, k := range keys {
		for _, h := range hints {
			if h == k {
				continue outer
			}
		}
		hints = append(hints, k)
	}
	return hints
}

// examines reports whether the matcher's outcome can depend on the
// candidate address at all. matchAny is constant by construction (and
// stays constant under negation), and matchUndefined fails every address
// unconditionally — neither constrains the flow, so a traced evaluation
// must not pin the field they guard.
func (m *addrMatcher) examines() bool {
	switch m.kind {
	case matchAny, matchUndefined:
		return false
	}
	return true
}

// headerMatches applies only the from/to address and port guards — the
// part of a rule decidable from the packet header.
//
// Under tracing, each guard marks its field consumed before evaluating:
// if the guard passes, members of the equivalence class share the passing
// value; if it fails (short-circuiting the rest), members fail it
// identically — either way the verdict transfers. Guards never reached
// contribute nothing, and guards with constant outcomes (any, undefined
// tables, unbounded port ranges) examine nothing.
func (r *progRule) headerMatches(c *evalCtx, f flow.Five) bool {
	if c == nil || !c.tracing {
		return r.from.matches(c, f.SrcIP) &&
			r.fromPort.Matches(f.SrcPort) &&
			r.to.matches(c, f.DstIP) &&
			r.toPort.Matches(f.DstPort)
	}
	if r.from.examines() {
		c.traceFields |= TraceSrcIP
	}
	if !r.from.matches(c, f.SrcIP) {
		return false
	}
	if !r.fromPort.IsAny() {
		c.traceFields |= TraceSrcPort
	}
	if !r.fromPort.Matches(f.SrcPort) {
		return false
	}
	if r.to.examines() {
		c.traceFields |= TraceDstIP
	}
	if !r.to.matches(c, f.DstIP) {
		return false
	}
	if !r.toPort.IsAny() {
		c.traceFields |= TraceDstPort
	}
	return r.toPort.Matches(f.DstPort)
}

// collectHints folds one key-requiring rule's requirements into the two
// hint slices, falling back to the program-wide unions when the rule's
// reads are not statically bounded (hints are advisory; an unbounded
// rule can at best be served every key the policy names anywhere).
func (pr *Program) collectHints(r *progRule, srcHints, dstHints []string) ([]string, []string) {
	if r.srcAll {
		srcHints = appendKeyHints(srcHints, pr.srcKeysAll)
	} else {
		srcHints = appendKeyHints(srcHints, r.srcKeys)
	}
	if r.dstAll {
		dstHints = appendKeyHints(dstHints, pr.dstKeysAll)
	} else {
		dstHints = appendKeyHints(dstHints, r.dstKeys)
	}
	return srcHints, dstHints
}

// Prepass is the header-only pre-pass over the program for one flow. It
// scans the flow's candidates applying only the header guards:
//
//   - A rule that cannot match the header is skipped.
//   - A header-matching rule that requires endpoint keys makes the flow
//     undecidable from the header; its key set is folded into the hint
//     slices and the scan continues (last-match-wins: later rules still
//     matter either way).
//   - A header-matching rule with no endpoint requirements is evaluated
//     exactly (its predicates, if any, read only policy-local constants).
//     A matching `quick` rule ends the scan: nothing after it can ever be
//     consulted, whatever the endpoint keys would have said.
//
// When no key-requiring rule was header-matched before the scan ended,
// the returned Decision is the flow's final verdict (headerOnly=true) and
// no endpoint need be queried at all. Otherwise headerOnly is false and
// the returned hint slices name every key that can still matter for this
// flow — the §3.2 query hints, per flow and per end.
//
// srcHints/dstHints are appended into (callers pass recycled capacity);
// they are returned even when headerOnly is true (empty).
func (pr *Program) Prepass(f flow.Five, srcHints, dstHints []string) (d Decision, headerOnly bool, src, dst []string) {
	c := acquireEvalCtx(pr.policy, Input{Flow: f}, 0)
	decidable := true
	d = Decision{Action: pr.policy.Default}
	it := pr.candidates(c, f)
	for i := it.pop(); i >= 0; i = it.pop() {
		r := &pr.rules[i]
		if !r.headerMatches(c, f) {
			continue
		}
		if r.needsEndpointKeys() {
			decidable = false
			srcHints, dstHints = pr.collectHints(r, srcHints, dstHints)
			continue
		}
		if !c.progCallsMatch(r) {
			continue
		}
		d.Action = r.action
		d.Rule = r.src
		d.Matched = true
		d.KeepState = r.keepState
		if r.quick {
			// A definite quick match: evaluation can never consult a rule
			// past this one, so neither its verdict nor its keys matter.
			break
		}
	}
	if decidable {
		d.Diags = c.diags
	} else {
		// The constant predicates evaluated above will run again in the
		// full evaluation; their diagnostics must not surface twice.
		d = Decision{}
	}
	releaseEvalCtx(c)
	return d, decidable, srcHints, dstHints
}

// Hints is the hint-collection half of Prepass without predicate
// evaluation, for programs where MaybeHeaderOnly is false (the pre-pass
// can never decide, but a cache-missing flow still wants its per-flow
// key hints). Returns the appended-to slices.
func (pr *Program) Hints(f flow.Five, srcHints, dstHints []string) (src, dst []string) {
	it := pr.candidates(nil, f)
	for i := it.pop(); i >= 0; i = it.pop() {
		r := &pr.rules[i]
		if !r.headerMatches(nil, f) {
			continue
		}
		if r.needsEndpointKeys() {
			srcHints, dstHints = pr.collectHints(r, srcHints, dstHints)
			continue
		}
		if r.quick && len(r.calls) == 0 {
			// An unconditional quick match: nothing past it is reachable
			// for this flow.
			break
		}
	}
	return srcHints, dstHints
}

// Explain writes a human-readable dump of the compiled program: each
// rule with its static key requirements and header-only classification,
// plus the program-level summary pfcheck -explain prints for operators,
// the dispatch index's shape included.
func (pr *Program) Explain(w io.Writer) {
	fmt.Fprintf(w, "program: %d rules, default %s, header-only pre-pass %s\n",
		len(pr.rules), pr.policy.Default, map[bool]string{true: "possible", false: "never applies"}[pr.maybeHeaderOnly])
	if len(pr.refKeys) > 0 {
		fmt.Fprintf(w, "referenced keys: %s\n", strings.Join(pr.refKeys, ", "))
	}
	if ix := &pr.index; ix.field == 0 {
		fmt.Fprintf(w, "dispatch: none (no header field narrows the scan), worst case %d candidates per decision\n", ix.worst)
	} else {
		fmt.Fprintf(w, "dispatch: on %s, %d distinct values, residual %d rules, worst case %d candidates per decision\n",
			fieldNames[ix.field], len(ix.keys), len(ix.residual()), ix.worst)
	}
	for i, r := range pr.rules {
		fmt.Fprintf(w, "  %3d  %s\n", i, r.src)
		fmt.Fprintf(w, "       keys: %s\n", r.keyRequirements())
	}
}

// fieldNames names the header fields by their Trace* bit.
var fieldNames = map[uint8]string{
	TraceSrcIP: "source address", TraceSrcPort: "source port",
	TraceDstIP: "destination address", TraceDstPort: "destination port",
}

// keyRequirements renders one rule's static key analysis.
func (r *progRule) keyRequirements() string {
	if !r.needsEndpointKeys() {
		return "none (header-only)"
	}
	var parts []string
	if r.srcAll {
		parts = append(parts, "src[*]")
	} else {
		for _, k := range r.srcKeys {
			parts = append(parts, "src["+k+"]")
		}
	}
	if r.dstAll {
		parts = append(parts, "dst[*]")
	} else {
		for _, k := range r.dstKeys {
			parts = append(parts, "dst["+k+"]")
		}
	}
	return strings.Join(parts, " ")
}

// sortedKeyUnion merges string sets into one sorted, deduplicated slice.
func sortedKeyUnion(sets ...[]string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, set := range sets {
		for _, k := range set {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}
