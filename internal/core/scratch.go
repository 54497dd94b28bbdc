package core

import (
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/metrics"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/revoke"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// decisionScratch is the reusable working set of one HandleEvent decision:
// the latency breakdown, the datapaths its entries went to, the two-ended
// query fan-out state, the fence and the parked duplicate packet-ins of the
// flow it is deciding, and the decision's continuation context (shard,
// datapath, event), because a cache-missing decision may outlive HandleEvent
// and is finished by whichever endpoint completion arrives last. One scratch is
// checked out of a pool per packet-in and returned when the decision
// completes, so the steady-state decision path allocates nothing — the
// budget BenchmarkM8_AllocProfile and TestAllocBudget enforce. (The audit
// entry is not here: it is a value type handed to AuditLog.record by copy
// and never escapes the stack.)
type decisionScratch struct {
	bd metrics.SetupBreakdown

	// installed counts the flow-mods this decision's verdict applied
	// without error: what entries_installed adds for a pass verdict and
	// what the trace's install stage reports.
	installed int

	// pathIDs collects the datapath IDs this decision installed entries on
	// (forward and reverse, deduplicated), for the revocation plane's
	// dependency registration: teardown later deletes along exactly this
	// path. Only populated when revocation is enabled.
	pathIDs []uint64

	// The decision's fence (see shard.go). voided is the flow fence, tripped
	// under the flow's shard lock while this scratch is the flow's in-flight
	// decision; srcGen and dstGen are the host fence's generations of the two
	// ends, captured when the attempt claimed the flow. attempts counts the
	// attempts decide has started: a voided one is retried once in place.
	voided         atomic.Bool
	srcGen, dstGen uint64
	attempts       int

	// waiters are the flow's parked duplicate packet-ins, appended by
	// shard.begin under the shard lock while the decision is in flight.
	waiters []parked

	// srcKeys/dstKeys are the per-flow key-hint scratch the pre-pass
	// appends into: the program's per-rule key sets for the rules this
	// flow could still match, per end. The strings are interned in the
	// compiled program; only the slice capacity belongs to the scratch.
	srcKeys, dstKeys []string

	// facts is the buffer deps builds a registration's facts in; Register
	// copies what it keeps.
	facts []revoke.Fact

	// Continuation context: everything finishDecision needs, captured
	// before the decision suspends on the query plane. ev.Frame is nil: the
	// caller's may be a switch channel's read buffer, which the next message
	// overwrites while the decision waits for its answers.
	sh   *shard
	dp   openflow.Datapath
	ev   openflow.PacketIn
	five flow.Five

	// tb is the decision's flight-recorder buffer (internal/trace); nil
	// when tracing is disabled. Owned by the recorder's pool, not the
	// scratch: finishDecision hands it back via Recorder.Finish before the
	// scratch is released.
	tb *trace.Buffer

	gather gatherState
}

var scratchPool sync.Pool

// The pool's New is bound in init: the prebound method values reference
// finishDecision, which releases back into the pool — a package-level
// initializer would be an initialization cycle.
func init() {
	scratchPool.New = func() any {
		s := new(decisionScratch)
		s.gather.owner = s
		// Bind the completion entry points once: handing the transport a
		// prebound func value wraps no fresh closure per decision.
		s.gather.srcDoneFn = s.gather.srcDone
		s.gather.dstDoneFn = s.gather.dstDone
		return s
	}
}

func acquireScratch() *decisionScratch {
	return scratchPool.Get().(*decisionScratch)
}

// cookie is the cookie the decision's entries carry: a cached verdict's
// carry their class's, so one wildcard delete tears every member's entries
// down with the class; an uncached verdict's carry the flow's own.
func (s *decisionScratch) cookie() uint64 {
	if e := s.gather.mega; e != nil {
		return s.gather.c.cookies.class(e.id)
	}
	return s.gather.c.cookies.flow(s.five)
}

// release clears everything that points outside the scratch — datapaths,
// responses, config snapshots — so a pooled scratch
// never extends their lifetime, then returns it to the pool. Slice capacity
// is kept.
func (s *decisionScratch) release() {
	s.bd = metrics.SetupBreakdown{}
	s.installed = 0
	s.pathIDs = s.pathIDs[:0]
	s.voided.Store(false)
	s.srcGen, s.dstGen, s.attempts = 0, 0, 0
	clear(s.waiters) // they hold datapaths
	s.waiters = s.waiters[:0]
	s.sh = nil
	s.dp = nil
	s.ev = openflow.PacketIn{}
	s.five = flow.Five{}
	// Truncate the hint scratch but do not zero it: a transport may have
	// captured the slice (wire.Query borrows Keys for the duration of the
	// call, and test doubles legitimately record it), and the residual
	// elements are short interned key strings — retaining them in pooled
	// capacity costs bytes, never correctness.
	s.srcKeys = s.srcKeys[:0]
	s.dstKeys = s.dstKeys[:0]
	s.facts = s.facts[:0]
	s.tb = nil // recorder-owned; Finish already returned it to its pool
	s.gather.reset()
	scratchPool.Put(s)
}

// again readies a voided attempt's scratch for the next attempt at the same
// flow. The claim, the packet-in, its waiters and the trace stay; what the
// voided attempt gathered goes. A void is decided before anything is
// installed, so there are no installs or path IDs to clear. A flow fence
// tripped again between the void and the reset below is lost, and may be:
// the next attempt's queries are all sent after the reset, so answered
// after the update that tripped it, and a cached verdict it takes instead
// falls to that update's teardown (the hit self-cleans).
func (s *decisionScratch) again() {
	s.gather.releaseBuilt()
	s.gather.reset()
	s.bd = metrics.SetupBreakdown{}
	s.voided.Store(false)
}

// gatherState carries one decision's two-ended query (§2 step 3: the
// controller queries "both the source and the destination"). The ends are
// handed to the transport through the prebound completion funcs — the
// destination's is completed in decide instead when its listener's answer is
// held — pending counts the outstanding ends, and the completion that drops
// it to zero finishes the decision on the goroutine it runs on.
type gatherState struct {
	c  *Controller
	st *ctlState
	// qs/qd are the two endpoint queries. They differ only in key hints:
	// each end is asked for the keys the per-rule analysis says some
	// still-matching rule could read from that end.
	qs, qd wire.Query

	// src and dst are what the evaluation reads of each end: a daemon's
	// answer copied into srcResp/dstResp (the transport only lends it), a
	// held listener answer, or a controller-built view.
	src, dst                   *wire.Response
	srcResp, dstResp           wire.Response
	qsrc, qdst                 time.Duration
	srcBuilt, dstBuilt         bool // response built by the controller (answer-on-behalf), not a daemon
	srcTransient, dstTransient bool // end lost to transport trouble; decision must not be cached

	// dstScoped marks a destination answer the daemon gave at the flow's
	// listener scope, for finishDecision to learn (scope.go); dstFact is the
	// listener fact the verdict stands on when the destination's answer was
	// a listener's, learned or held — "" otherwise.
	dstScoped bool
	dstFact   string

	// pre is the header-only pre-pass verdict; when preDecided is set the
	// decision needed no endpoint information and finishDecision installs
	// it without evaluating again.
	pre        pf.Decision
	preDecided bool

	// mega is the cached verdict a hit resolved to; finishDecision takes
	// its verdict and publishes the member's installed paths to it.
	mega *megaEntry

	owner   *decisionScratch
	pending atomic.Int32 // outstanding ends; 2 → 0

	srcDoneFn, dstDoneFn func(*wire.Response, time.Duration, error)
}

// srcDone and dstDone are the transport's completion entry points. The
// response they receive is lent for the call (see internal/query's borrow
// contract): a daemon's answer is copied into the scratch — a few words; its
// sections are read-only and shared, never written — and downstream it is
// read by the evaluation, or — a destination answer given at its listener's
// scope — copied once more to serve that listener's next misses (scope.go);
// never pooled.
func (g *gatherState) srcDone(resp *wire.Response, rtt time.Duration, err error) {
	r, qsrc, built, transient := g.c.resolveResponse(g.st, g.qs.Flow, g.qs.Flow.SrcIP, resp, rtt, err)
	g.src, g.qsrc, g.srcBuilt, g.srcTransient = keep(&g.srcResp, r, resp), qsrc, built, transient
	if g.pending.Add(-1) == 0 {
		g.c.finishDecision(g.owner)
	}
}

func (g *gatherState) dstDone(resp *wire.Response, rtt time.Duration, err error) {
	r, qdst, built, transient := g.c.resolveResponse(g.st, g.qd.Flow, g.qd.Flow.DstIP, resp, rtt, err)
	g.dstScoped = resp != nil && r == resp && resp.Scope == wire.ListenerScope(g.qd.Flow.Proto, g.qd.Flow.DstPort)
	g.dst, g.qdst, g.dstBuilt, g.dstTransient = keep(&g.dstResp, r, resp), qdst, built, transient
	if g.pending.Add(-1) == 0 {
		g.c.finishDecision(g.owner)
	}
}

// keep returns r, the response an end resolved to, as the decision keeps it:
// when it is the lent one, a copy in own.
func keep(own, r, lent *wire.Response) *wire.Response {
	if r == nil || r != lent {
		return r
	}
	*own = *lent
	return own
}

func (g *gatherState) reset() {
	g.c = nil
	g.st = nil
	g.qs, g.qd = wire.Query{}, wire.Query{}
	g.src, g.dst = nil, nil
	g.srcResp, g.dstResp = wire.Response{}, wire.Response{}
	g.qsrc, g.qdst = 0, 0
	g.srcBuilt, g.dstBuilt = false, false
	g.srcTransient, g.dstTransient = false, false
	g.dstScoped, g.dstFact = false, ""
	g.pre, g.preDecided = pf.Decision{}, false
	g.mega = nil
	g.pending.Store(0)
}

// releaseBuilt returns the controller-built response views to the pf pool
// once the decision that built them is finished — always: the verdict
// cache keeps verdicts, not responses, so nothing outlives the decision to
// read them. A daemon's answer is the scratch's copy and is not touched
// here.
func (g *gatherState) releaseBuilt() {
	if g.srcBuilt {
		pf.ReleaseResponse(g.src)
		g.srcBuilt = false
	}
	if g.dstBuilt {
		pf.ReleaseResponse(g.dst)
		g.dstBuilt = false
	}
}
