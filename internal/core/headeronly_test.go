package core

import (
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// headerOnlyPolicy mixes pure header rules with key-dependent ones: flows
// on ports 80/8080 from 10/8 are decidable from the header alone; port
// 443 needs @src[name].
const headerOnlyPolicy = `
block all
pass from 10.0.0.0/8 to any port { 80, 8080 } keep state
pass from any to any port 443 with eq(@src[name], web)
`

// forbiddenTransport fails the test if the controller queries at all.
type forbiddenTransport struct{ t *testing.T }

func (tr forbiddenTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	tr.t.Errorf("header-only flow queried %s (keys %v)", host, q.Keys)
	return nil, 0, ErrNoDaemon
}

func TestHeaderOnlyFlowDecidesWithoutQueries(t *testing.T) {
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "ho",
		Policy:           pf.MustCompile("ho", headerOnlyPolicy),
		Transport:        forbiddenTransport{t},
		Topology:         topo,
		InstallEntries:   true,
		ResponseCacheTTL: time.Minute,
	})
	c.AddDatapath(dp)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80}
	c.HandleEvent(sampleEvent(five, 1))

	if got := c.Counters.Get("decisions_headeronly"); got != 1 {
		t.Errorf("decisions_headeronly = %d, want 1", got)
	}
	if c.Counters.Get("flows_allowed") != 1 {
		t.Errorf("flow should pass on the header rule; counters: %s", c.Counters)
	}
	// keep state: forward + reverse entries installed like any verdict.
	if dp.modCount() != 2 {
		t.Errorf("mods = %d, want forward + reverse", dp.modCount())
	}
	// Header-only decisions gather nothing; the verdict cache must not
	// hold an entry for them.
	if n := cachedVerdicts(c); n != 0 {
		t.Errorf("cached verdicts = %d, want 0 (nothing was gathered)", n)
	}
	if c.Audit.Total() != 1 {
		t.Error("header-only decision must still be audited")
	}

	// A denied header-only flow (port outside every pass rule).
	denied := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 25}
	c.HandleEvent(sampleEvent(denied, 1))
	if got := c.Counters.Get("decisions_headeronly"); got != 2 {
		t.Errorf("decisions_headeronly = %d, want 2", got)
	}
	if c.Counters.Get("flows_denied") != 1 {
		t.Error("port-25 flow should be denied from the header")
	}
}

func TestKeyDependentFlowStillQueries(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "web"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(headerOnlyPolicy, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 443}
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("decisions_headeronly") != 0 {
		t.Error("port-443 flow must not be header-only")
	}
	if tr.queries != 2 {
		t.Errorf("queries = %d, want 2", tr.queries)
	}
	if c.Counters.Get("flows_allowed") != 1 {
		t.Errorf("eq(@src[name], web) should pass; counters: %s", c.Counters)
	}
	// The src query's hints name only the keys that still matter.
	tr.mu.Lock()
	srcKeys := tr.keysByHost[hostA]
	tr.mu.Unlock()
	if len(srcKeys) != 1 || srcKeys[0] != "name" {
		t.Errorf("src hints = %v, want [name]", srcKeys)
	}
}

// TestHeaderOnlyResolvesParkedDuplicates: waiter resolution is part of
// finishDecision, which header-only decisions share; a duplicate arriving
// between begin and resolve is released, not leaked. The decision is
// synchronous so the window is closed by the time HandleEvent returns —
// the test drives the shard directly to stage the duplicate.
func TestHeaderOnlyDuplicateAccounting(t *testing.T) {
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp := &fakeDatapath{id: 1}
	c := New(Config{
		Name:           "ho-dup",
		Policy:         pf.MustCompile("ho", headerOnlyPolicy),
		Transport:      forbiddenTransport{t},
		Topology:       topo,
		InstallEntries: true,
	})
	c.AddDatapath(dp)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 80}
	// Stage a parked duplicate as if a second packet-in raced the first.
	sh := c.flows.shardFor(five)
	s, _ := sh.begin(five, dp, sampleEvent(five, 1))
	if s == nil {
		t.Fatal("staging owner failed")
	}
	ev2 := sampleEvent(five, 1)
	ev2.BufferID = 99
	if dup, parked := sh.begin(five, dp, ev2); dup != nil || !parked {
		t.Fatal("duplicate did not park")
	}
	// Resolve through the real decision path: the owner's verdict must
	// release the parked buffer.
	s.sh, s.dp, s.ev, s.five = sh, dp, sampleEvent(five, 1), five
	g := &s.gather
	g.c, g.st = c, c.state.Load()
	d, ok, _, _ := g.st.prog.Prepass(five, nil, nil)
	if !ok {
		t.Fatal("flow should be header-only decidable")
	}
	g.pre, g.preDecided = d, true
	c.finishDecision(s)
	if c.Counters.Get("waiters_resolved") != 1 {
		t.Errorf("waiters_resolved = %d, want 1", c.Counters.Get("waiters_resolved"))
	}
	found := false
	dp.mu.Lock()
	for _, id := range dp.released {
		if id == 99 {
			found = true
		}
	}
	dp.mu.Unlock()
	if !found {
		t.Error("parked duplicate's buffer not released")
	}
}

// TestHeaderOnlySurvivesPolicySwap: SetPolicy replaces the compiled
// program in the snapshot; flows decidable under the old program but not
// the new one must start querying again (and vice versa).
func TestHeaderOnlyPolicySwap(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(headerOnlyPolicy, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 80}
	c.HandleEvent(sampleEvent(five, 1))
	if tr.queries != 0 {
		t.Fatalf("queries = %d before swap, want 0", tr.queries)
	}
	c.SetPolicy(pf.MustCompile("v2", `
block all
pass from any to any with eq(@src[name], anything)
`))
	c.HandleEvent(sampleEvent(five, 1))
	if tr.queries != 2 {
		t.Errorf("queries = %d after swap, want 2 (new policy needs keys)", tr.queries)
	}
	if c.Counters.Get("decisions_headeronly") != 1 {
		t.Errorf("decisions_headeronly = %d, want 1 (only the pre-swap event)", c.Counters.Get("decisions_headeronly"))
	}
}
