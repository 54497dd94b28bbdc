package identxx_bench

import (
	"runtime"
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
		ResponseCacheTTL: time.Hour,
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
// audit, and install — still within the budget. Every decision also
// re-registers the flow's dependency record, replacing the last one, and
// that must fit the same budget.
func TestAllocBudgetMissLocalAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries randomly under -race; allocation counts are nondeterministic")
	}
	// Revocation is always on; the subtest keeps the name it had when the
	// controller could run without it.
	t.Run("revocation=true", func(t *testing.T) {
		srcIP := netaddr.MustParseIP("10.0.0.1")
		dstIP := netaddr.MustParseIP("10.0.0.2")
		ctl := core.New(core.Config{
			Name:      "budget",
			Policy:    pf.MustCompile("budget", m8Policy),
			Transport: m8NoDaemonTransport{},
			Topology:  &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
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
		if live, registered, _ := ctl.RevocationIndexStats(); live != 1 || registered < 2000 {
			t.Fatalf("%d live records after %d registrations, want the flow's one re-registered every event", live, registered)
		}
	})
}

// heldAnswers is a transport that holds every query's completion until
// answer runs them, so the decision that asked stays suspended meanwhile.
type heldAnswers struct {
	held []func(*wire.Response, time.Duration, error)
}

func (h *heldAnswers) QueryAsync(_ netaddr.IP, _ wire.Query, done func(*wire.Response, time.Duration, error)) {
	h.held = append(h.held, done)
}

func (h *heldAnswers) answer() {
	held := h.held
	h.held = nil
	for _, done := range held {
		done(nil, 0, nil)
	}
}

// TestAllocBudgetParkedDuplicate: a duplicate packet-in parked on a decision
// suspended on its queries allocates nothing once the flow's waiter list has
// grown. It keeps its switch buffer to release and nothing of its frame.
func TestAllocBudgetParkedDuplicate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries randomly under -race; allocation counts are nondeterministic")
	}
	tr := &heldAnswers{}
	ctl := core.New(core.Config{
		Name:      "budget",
		Policy:    pf.MustCompile("budget", m8Policy),
		Transport: tr,
		Topology:  &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
	})
	ctl.AddDatapath(&m7Datapath{id: 1})
	ev := m8Event(netaddr.MustParseIP("10.0.0.1"), netaddr.MustParseIP("10.0.0.2"))
	ev.Frame = make([]byte, 64)
	ctl.HandleEvent(ev) // the owner: suspended on both ends' queries

	// 33 duplicates grow the waiter list to its last capacity, 64, and the
	// 31 runs below fill it to the cap (maxParked) without overflowing.
	const grown, runs = 33, 30
	for range grown {
		ctl.HandleEvent(ev)
	}
	if got := testing.AllocsPerRun(runs, func() { ctl.HandleEvent(ev) }); got != 0 {
		t.Errorf("a parked duplicate allocates %.1f objects, want 0", got)
	}
	if n, over := ctl.Counters.Get("duplicate_packet_ins"), ctl.Counters.Get("waiters_overflowed"); n != grown+runs+1 || over != 0 {
		t.Fatalf("duplicate_packet_ins = %d, waiters_overflowed = %d; want %d parked and none overflowed", n, over, grown+runs+1)
	}
	tr.answer()
	if n := ctl.Counters.Get("waiters_resolved"); n != grown+runs+1 {
		t.Errorf("waiters_resolved = %d, want %d", n, grown+runs+1)
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

// TestAllocFlowScopedUpdate: a daemon's flow-scoped update allocates nothing
// on the controller, whether it finds nothing to tear down — two thirds of
// them under churn — or tears down the flow's verdict: fence, record drop,
// deletes and the audit record, labelled once per update key. Each teardown
// run decides the flow again first (its answers the controller's own), which
// allocates nothing either.
func TestAllocFlowScopedUpdate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries randomly under -race; allocation counts are nondeterministic")
	}
	srcIP := netaddr.MustParseIP("10.0.0.1")
	dstIP := netaddr.MustParseIP("10.0.0.2")
	ctl := core.New(core.Config{
		Name:      "budget",
		Policy:    pf.MustCompile("budget", m8Policy),
		Transport: m8NoDaemonTransport{},
		Topology:  &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
	})
	ctl.AddDatapath(&m7Datapath{id: 1})
	ctl.AnswerForHost(srcIP, wire.KV{Key: wire.KeyName, Value: "skype"})
	ctl.AnswerForHost(dstIP, wire.KV{Key: wire.KeyName, Value: "skype"})
	ev := m8Event(srcIP, dstIP)
	u := wire.Update{Flow: ev.Tuple.Five(), Key: wire.KeyName, Old: "skype", Serial: 1}

	if got := testing.AllocsPerRun(2000, func() { ctl.HandleUpdate(srcIP, u) }); got != 0 {
		t.Errorf("a flow-scoped update with nothing to tear down allocates %.1f objects, want 0", got)
	}
	if n := ctl.Counters.Get("revocations_noop"); n != 2001 {
		t.Errorf("revocations_noop = %d, want 2001", n)
	}
	if got := testing.AllocsPerRun(2000, func() {
		ctl.HandleEvent(ev)
		ctl.HandleUpdate(srcIP, u)
	}); got != 0 {
		t.Errorf("a decision and the flow-scoped update tearing it down allocate %.1f objects, want 0", got)
	}
	if n := ctl.Counters.Get("revocations_flows"); n != 2001 {
		t.Errorf("revocations_flows = %d, want 2001: every update tore its flow down", n)
	}
	if r := ctl.Audit.Revocations(); len(r) == 0 || r[len(r)-1].Rule != "(revoked: update:name)" {
		t.Errorf("%d teardown audit records, want the last one's rule (revoked: update:name)", len(r))
	}
}

// compileByteBudget bounds what parsing and compiling policy_large's
// 2000-rule policy allocates: the policy it keeps, its program and dispatch
// index, and little else. A token array for the whole source, or a list
// grown by appending, puts the load back over it.
const compileByteBudget = 1600000

// TestAllocCompileLargePolicy pins BenchmarkM10_Compile/2000's bytes per
// op. The least of a few loads is taken, so an allocation elsewhere in the
// process during one of them does not count.
func TestAllocCompileLargePolicy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes allocation sizes")
	}
	src := m10FenceSource(m10FenceRules)
	var least uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		file, err := pf.Parse("m10-fence", src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pf.Compile(file); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	if least > compileByteBudget {
		t.Fatalf("parse + compile of %d rules allocates %d bytes, budget is %d", m10FenceRules, least, compileByteBudget)
	}
}
