package pf

import (
	"cmp"
	"slices"

	"identxx/internal/flow"
)

// This file is the dispatch index: the part of a Program that keeps a
// decision from looking at rules whose header guards it cannot pass.
//
// Delegation grows the ruleset with the number of delegates (§3.4), and
// most of what delegates write is guarded by an exact value — one service
// port, a short list of ports, one host. For one header field, such a
// rule can only match flows carrying one of its values there, so lowering
// files it under those values; every other rule (`any`, ranges, prefixes
// shorter than /32, tables, negations, lists mixing those) goes to the
// field's residual, which every flow must still consult. A decision then
// walks bucket[flow's value] merged with the residual, both in rule order,
// and runs the unchanged header guards and predicates on each candidate:
// the rules it never sees are exactly rules whose guard on the dispatch
// field fails, so last-match-wins, `quick`, hint collection and
// diagnostics come out as a scan of the whole list would produce them.
//
// Lowering indexes the one field that bounds the scan best — the smallest
// worst case of (residual + largest bucket) — and no field at all when
// none beats looking at every rule; candidates then hands out a dense
// iterator of the same type, which is also what embedded `allowed` rule
// sets (small, network-supplied, lowered on the decision path) always get.

// dispatchIndex is the index over one header field, stored flat: with
// thousands of one-rule buckets, per-value slices behind a map cost more
// resident memory than the index itself.
type dispatchIndex struct {
	// field is the Trace* bit of the indexed field; 0 means no field helps
	// and scans are dense.
	field uint8
	keys  []uint32 // the distinct exact values, ascending
	offs  []int32  // bucket k is ids[offs[k]:offs[k+1]]; len(keys)+1 offsets
	ids   []int32  // the buckets back to back, then the residual; each ascending
	// worst is the most candidates any flow can draw: the residual plus the
	// largest bucket, or every rule when there is no index.
	worst int
}

func (ix *dispatchIndex) residual() []int32 { return ix.ids[ix.offs[len(ix.keys)]:] }

// candIter yields the indices of the rules a scan must look at, ascending.
// The zero value is exhausted.
type candIter struct {
	next, n       int     // dense: [next, n) still to yield
	bucket, resid []int32 // indexed: two disjoint ascending runs still to merge
}

// denseIter yields every index below n.
func denseIter(n int) candIter { return candIter{n: n} }

// pop returns the next candidate, -1 when none is left.
func (it *candIter) pop() int {
	if it.next < it.n {
		it.next++
		return it.next - 1
	}
	b, r := it.bucket, it.resid
	if len(b) > 0 && (len(r) == 0 || b[0] < r[0]) {
		it.bucket = b[1:]
		return int(b[0])
	}
	if len(r) > 0 {
		it.resid = r[1:]
		return int(r[0])
	}
	return -1
}

// candidates returns the scan order for f: every rule whose guard on the
// dispatch field f can pass, in rule order. The rules left out were
// decided by f's value in that field alone, so a traced evaluation (c may
// be nil: the hint walk keeps no trace) records the field as consulted —
// a flow differing there draws different candidates.
func (pr *Program) candidates(c *evalCtx, f flow.Five) candIter {
	ix := &pr.index
	if ix.field == 0 {
		return denseIter(len(pr.rules))
	}
	if c != nil && c.tracing {
		c.traceFields |= ix.field
	}
	it := candIter{resid: ix.residual()}
	if k, ok := slices.BinarySearch(ix.keys, fieldValue(f, ix.field)); ok {
		it.bucket = ix.ids[ix.offs[k]:ix.offs[k+1]]
	}
	return it
}

func fieldValue(f flow.Five, field uint8) uint32 {
	switch field {
	case TraceSrcIP:
		return uint32(f.SrcIP)
	case TraceSrcPort:
		return uint32(f.SrcPort)
	case TraceDstIP:
		return uint32(f.DstIP)
	}
	return uint32(f.DstPort)
}

// buildDispatch picks the field with the smallest worst case. Ties go to
// the field the header guards test first, which a scan is likeliest to
// have traced anyway. Only a field that beats the best so far is laid out;
// the filing itself happens in scratch shared by all four, so a policy
// load leaves little behind but the index it keeps.
func buildDispatch(rules []progRule) dispatchIndex {
	best := dispatchIndex{worst: len(rules)}
	fl := filing{keyed: make([]keyedRule, 0, len(rules)), resid: make([]int32, 0, len(rules))}
	for _, field := range [...]uint8{TraceSrcIP, TraceSrcPort, TraceDstIP, TraceDstPort} {
		fl.file(rules, field)
		if distinct, largest := fl.buckets(); len(fl.resid)+largest < best.worst {
			best = fl.layOut(field, distinct, len(fl.resid)+largest)
		}
	}
	return best
}

// keyedRule files one rule under one exact value of the field being indexed.
type keyedRule struct {
	val  uint32
	rule int32
}

// filing is one field's rules sorted into keyed and residual, before layout.
type filing struct {
	keyed []keyedRule // by value, then by rule
	resid []int32
	vals  []uint32
}

func (fl *filing) file(rules []progRule, field uint8) {
	fl.keyed, fl.resid = fl.keyed[:0], fl.resid[:0]
	for i := range rules {
		var ok bool
		if fl.vals, ok = rules[i].exactValues(field, fl.vals[:0]); !ok {
			fl.resid = append(fl.resid, int32(i))
			continue
		}
		// `port { 80 80 }` must not file the rule twice under 80.
		slices.Sort(fl.vals)
		for _, v := range slices.Compact(fl.vals) {
			fl.keyed = append(fl.keyed, keyedRule{v, int32(i)})
		}
	}
	slices.SortFunc(fl.keyed, func(a, b keyedRule) int {
		return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.rule, b.rule))
	})
}

// buckets counts the distinct values filed under and the largest bucket.
func (fl *filing) buckets() (distinct, largest int) {
	run := 0
	for i, e := range fl.keyed {
		if i == 0 || e.val != fl.keyed[i-1].val {
			distinct++
			run = 0
		}
		run++
		largest = max(largest, run)
	}
	return distinct, largest
}

func (fl *filing) layOut(field uint8, distinct, worst int) dispatchIndex {
	ix := dispatchIndex{
		field: field,
		keys:  make([]uint32, 0, distinct),
		offs:  make([]int32, 0, distinct+1),
		ids:   make([]int32, 0, len(fl.keyed)+len(fl.resid)),
		worst: worst,
	}
	for i, e := range fl.keyed {
		if i == 0 || e.val != fl.keyed[i-1].val {
			ix.keys = append(ix.keys, e.val)
			ix.offs = append(ix.offs, int32(i))
		}
		ix.ids = append(ix.ids, e.rule)
	}
	ix.offs = append(ix.offs, int32(len(fl.keyed)))
	ix.ids = append(ix.ids, fl.resid...)
	return ix
}

// exactValues appends the values the rule's guard on field admits, when
// the guard is a plain choice among single values: single ports, /32
// addresses, and non-negated lists of those. ok is false for every other
// guard — the field cannot discriminate the rule.
func (r *progRule) exactValues(field uint8, vals []uint32) (_ []uint32, ok bool) {
	switch field {
	case TraceSrcIP:
		return r.from.exactValues(vals)
	case TraceDstIP:
		return r.to.exactValues(vals)
	}
	pe := r.toPort
	if field == TraceSrcPort {
		pe = r.fromPort
	}
	for _, pr := range pe.Ranges {
		if !pr.IsSingle() {
			return vals, false
		}
		vals = append(vals, uint32(pr.Lo))
	}
	return vals, len(pe.Ranges) > 0
}

func (m *addrMatcher) exactValues(vals []uint32) (_ []uint32, ok bool) {
	if m.neg {
		return vals, false
	}
	switch m.kind {
	case matchPrefix:
		if m.prefix.IsSingleIP() {
			return append(vals, uint32(m.prefix.Addr)), true
		}
	case matchList:
		for i := range m.list {
			if vals, ok = m.list[i].exactValues(vals); !ok {
				return vals, false
			}
		}
		return vals, len(m.list) > 0
	}
	return vals, false
}
