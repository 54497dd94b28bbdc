package identxx_bench

import (
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// allocBudget is the per-event allocation contract on the steady-state
// packet-in → policy-decision → verdict path (see README "Allocation
// budget"). The budget is deliberately above the measured steady state
// (zero) so incidental runtime noise does not flake the gate, and low
// enough that any real regression — a new per-event slice, closure, or
// boxed value — trips it.
const allocBudget = 2

// allocsPerEvent measures steady-state allocations of one HandleEvent
// variant. testing.AllocsPerRun's own warm-up call fills the scratch,
// eval-context, and response-view pools before counting starts.
func allocsPerEvent(ctl *core.Controller, ev func()) float64 {
	return testing.AllocsPerRun(2000, ev)
}

// TestAllocBudgetCacheHit pins the M7 fast path — warm verdict cache (an
// exact entry), audit, one-hop install — to the allocation budget.
// This is the enforcement half of the budget: BenchmarkM8_AllocProfile
// reports, this test fails.
func TestAllocBudgetCacheHit(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries randomly under -race; allocation counts are nondeterministic")
	}
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	tr := &m7Transport{responses: map[netaddr.IP]map[string]string{
		srcIP: {"name": "skype"},
		dstIP: {"name": "skype"},
	}}
	ctl := core.New(core.Config{
		Name:             "budget",
		Policy:           pf.MustCompile("budget", m8Policy),
		Transport:        tr,
		Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
	})
	ctl.AddDatapath(&m7Datapath{id: 1})
	ev := m8Event(srcIP, dstIP)

	got := allocsPerEvent(ctl, func() { ctl.HandleEvent(ev) })
	if got > allocBudget {
		t.Fatalf("cache-hit HandleEvent allocates %.1f objects/op, budget is %d", got, allocBudget)
	}
	if ctl.Counters.Get("megaflow_hits") == 0 {
		t.Fatal("cache-hit path not exercised")
	}
}

// TestAllocBudgetMegaflowHit pins the megaflow member-hit path — one
// class-table probe resolving the verdict, install under the class
// cookie, path publication to the entry's teardown set — to the same
// budget as the exact hit. Each measured event is a different
// member tuple (cycling source ports), so the probe, not a per-tuple
// cache line, is what serves it.
func TestAllocBudgetMegaflowHit(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries randomly under -race; allocation counts are nondeterministic")
	}
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	tr := &m7Transport{responses: map[netaddr.IP]map[string]string{
		srcIP: {"name": "skype"},
		dstIP: {"name": "skype"},
	}}
	ctl := core.New(core.Config{
		Name:             "budget",
		Policy:           pf.MustCompile("budget", m12Policy),
		Transport:        tr,
		Topology:         &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
		Megaflow:         true,
	})
	ctl.AddDatapath(&m7Datapath{id: 1})

	const class = 512
	for i := 0; i < class; i++ { // founder decision + one warm lap
		ctl.HandleEvent(m12Event(srcIP, dstIP, i))
	}
	sp := 0
	got := allocsPerEvent(ctl, func() {
		ctl.HandleEvent(m12Event(srcIP, dstIP, sp%class))
		sp++
	})
	if got > allocBudget {
		t.Fatalf("megaflow-hit HandleEvent allocates %.1f objects/op, budget is %d", got, allocBudget)
	}
	if _, hits, _, _ := ctl.MegaflowStats(); hits == 0 {
		t.Fatal("megaflow-hit path not exercised")
	}
}

// TestAllocBudgetMissLocalAnswer pins the cache-miss path where both ends
// are answered from the controller's answer-on-behalf table: the full
// two-ended query fan-out, pooled response-view construction, evaluation,
// audit, and install — still within the budget.
func TestAllocBudgetMissLocalAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries randomly under -race; allocation counts are nondeterministic")
	}
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	ctl := core.New(core.Config{
		Name:           "budget",
		Policy:         pf.MustCompile("budget", m8Policy),
		Transport:      m8NoDaemonTransport{},
		Topology:       &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries: true,
	})
	ctl.AddDatapath(&m7Datapath{id: 1})
	ctl.AnswerForHost(srcIP, wire.KV{Key: wire.KeyName, Value: "skype"})
	ctl.AnswerForHost(dstIP, wire.KV{Key: wire.KeyName, Value: "skype"})
	ev := m8Event(srcIP, dstIP)

	got := allocsPerEvent(ctl, func() { ctl.HandleEvent(ev) })
	if got > allocBudget {
		t.Fatalf("miss-local-answer HandleEvent allocates %.1f objects/op, budget is %d", got, allocBudget)
	}
	if ctl.Counters.Get("answered_on_behalf") == 0 {
		t.Fatal("answer-on-behalf path not exercised")
	}
	if ctl.Counters.Get("flows_allowed") == 0 {
		t.Fatal("no flows decided")
	}
}

// TestAllocSetupRecorderObserve: every decision, hits included, records
// its breakdown in four histograms; that is atomic adds on fixed cells and
// must never allocate. No pool is involved, so the guard holds under -race
// too.
func TestAllocSetupRecorderObserve(t *testing.T) {
	r := metrics.NewSetupRecorder()
	bd := metrics.SetupBreakdown{QuerySrc: 210 * time.Microsecond,
		QueryDst: 190 * time.Microsecond, Eval: 3 * time.Microsecond}
	if got := testing.AllocsPerRun(2000, func() { r.Observe(bd) }); got != 0 {
		t.Fatalf("SetupRecorder.Observe allocates %.1f objects/op, want 0", got)
	}
}
