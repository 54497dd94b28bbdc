package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

const revPolicy = "block all\npass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)"

// newRevController builds a revocation-enabled controller with a two-hop
// path and the canned skype transport.
func newRevController(t *testing.T, leaseTTL time.Duration, clock func() time.Time) (*Controller, *fakeTransport, *fakeDatapath, *fakeDatapath) {
	t.Helper()
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	dp1 := &fakeDatapath{id: 1}
	dp2 := &fakeDatapath{id: 2}
	c := New(Config{
		Name:               "rev",
		Policy:             pf.MustCompile("rev", revPolicy),
		Transport:          tr,
		Topology:           &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}},
		InstallEntries:     true,
		ResponseCacheTTL:   time.Hour,
		Revocation:         true,
		RevocationLeaseTTL: leaseTTL,
		Clock:              clock,
	})
	c.AddDatapath(dp1)
	c.AddDatapath(dp2)
	return c, tr, dp1, dp2
}

func revFlow(sp int) flow.Five {
	return flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
		SrcPort: netaddr.Port(sp), DstPort: 5060}
}

func (d *fakeDatapath) deleteMods() []openflow.FlowMod {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []openflow.FlowMod
	for _, m := range d.mods {
		if m.Delete {
			out = append(out, m)
		}
	}
	return out
}

// TestUpdateTearsDownFlow is the plane's core contract with a fake
// transport: a flow-scoped update drops the cache entry, deletes entries
// along the whole installed path, audits, and the next packet re-queries.
func TestUpdateTearsDownFlow(t *testing.T) {
	c, tr, dp1, dp2 := newRevController(t, 0, nil)
	five := revFlow(40000)
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("flows_allowed") != 1 {
		t.Fatalf("setup: flow not allowed; %s", c.Counters)
	}
	if live, _, _ := c.RevocationIndexStats(); live != 1 {
		t.Fatalf("setup: index live = %d, want 1", live)
	}
	if cachedVerdicts(c) != 1 {
		t.Fatalf("setup: cached flows = %d", cachedVerdicts(c))
	}
	queriesBefore := func() int { tr.mu.Lock(); defer tr.mu.Unlock(); return tr.queries }()

	c.HandleUpdate(hostA, wire.Update{Flow: five, Key: "name", Old: "skype", New: "", Serial: 1})

	if cachedVerdicts(c) != 0 {
		t.Error("cache entry survived the update")
	}
	if live, _, _ := c.RevocationIndexStats(); live != 0 {
		t.Error("index registration survived the update")
	}
	// Deletes along the full installed path: both datapaths, both
	// directions, flow granularity.
	for i, dp := range []*fakeDatapath{dp1, dp2} {
		dels := dp.deleteMods()
		if len(dels) != 2 {
			t.Fatalf("dp%d delete mods = %d, want 2 (fwd+rev)", i+1, len(dels))
		}
		for _, m := range dels {
			if m.Cookie != five.Hash()|1 {
				t.Errorf("dp%d delete cookie = %d", i+1, m.Cookie)
			}
		}
	}
	if got := c.Audit.Revocations(); len(got) != 1 || got[0].Flow != five {
		t.Errorf("revocation audit records = %+v", got)
	}
	if c.Counters.Get("revocations_flows") != 1 {
		t.Errorf("revocations_flows = %d", c.Counters.Get("revocations_flows"))
	}

	// Next packet of the same flow re-queries and re-decides.
	c.HandleEvent(sampleEvent(five, 1))
	queriesAfter := func() int { tr.mu.Lock(); defer tr.mu.Unlock(); return tr.queries }()
	if queriesAfter <= queriesBefore {
		t.Error("re-admission did not re-query the daemons")
	}
	if c.Counters.Get("flows_allowed") != 2 {
		t.Errorf("flow not re-admitted: %s", c.Counters)
	}
}

// TestKeyScopedUpdateFanOut: a key-scoped update (no flow) tears down
// every flow whose verdict read that key from that host, and nothing else.
func TestKeyScopedUpdateFanOut(t *testing.T) {
	c, _, dp1, dp2 := newRevController(t, 0, nil)
	for i := 0; i < 8; i++ {
		c.HandleEvent(sampleEvent(revFlow(41000+i), 1))
	}
	if cachedVerdicts(c) != 8 {
		t.Fatalf("setup: cached = %d", cachedVerdicts(c))
	}

	// A key nothing read: no effect.
	c.HandleUpdate(hostA, wire.Update{Key: "os-patch", Serial: 1})
	if cachedVerdicts(c) != 8 {
		t.Errorf("unrelated key tore down flows: cached = %d", cachedVerdicts(c))
	}

	// The key every verdict read at the src end.
	c.HandleUpdate(hostA, wire.Update{Key: "name", Serial: 2})
	if cachedVerdicts(c) != 0 {
		t.Errorf("cached = %d after key-scoped revocation, want 0", cachedVerdicts(c))
	}
	if got := c.Counters.Get("revocations_flows"); got != 8 {
		t.Errorf("revocations_flows = %d, want 8", got)
	}
	// The post-condition of a revoke: HandleUpdate has returned, so every
	// datapath on every torn flow's registered path holds both of that
	// flow's cookie-scoped deletes — nothing is still on its way.
	for _, dp := range []*fakeDatapath{dp1, dp2} {
		perCookie := make(map[uint64]int)
		for _, m := range dp.deleteMods() {
			perCookie[m.Cookie]++
		}
		for i := 0; i < 8; i++ {
			if got := perCookie[revFlow(41000+i).Hash()|1]; got != 2 {
				t.Errorf("dp%d: flow %d has %d deletes when HandleUpdate returned, want 2 (fwd+rev)", dp.id, i, got)
			}
		}
	}
	if got := c.Counters.Get("revocations_entries"); got != 8*2*2 {
		t.Errorf("revocations_entries = %d, want 32 (8 flows x 2 datapaths x 2 directions)", got)
	}
}

// TestResyncTearsDownHost: a bare update (serial-gap resync) invalidates
// everything depending on the host.
func TestResyncTearsDownHost(t *testing.T) {
	c, _, _, _ := newRevController(t, 0, nil)
	for i := 0; i < 4; i++ {
		c.HandleEvent(sampleEvent(revFlow(42000+i), 1))
	}
	c.HandleUpdate(hostB, wire.Update{Serial: 9})
	if cachedVerdicts(c) != 0 {
		t.Errorf("cached = %d after resync, want 0", cachedVerdicts(c))
	}
	if c.Counters.Get("revocations_resyncs") != 1 {
		t.Errorf("revocations_resyncs = %d", c.Counters.Get("revocations_resyncs"))
	}
}

// TestFlowRemovedDropsCacheEntry is the stale-grant-on-reuse regression:
// before the fix, a flow whose switch entry idle-timed-out was re-admitted
// from the verdict cache without consulting the daemons again.
func TestFlowRemovedDropsCacheEntry(t *testing.T) {
	// Revocation deliberately off: the fix must hold for every controller.
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	c := New(Config{
		Name:             "removed",
		Policy:           pf.MustCompile("removed", revPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
	})
	c.AddDatapath(&fakeDatapath{id: 1})
	five := revFlow(43000)
	c.HandleEvent(sampleEvent(five, 1))
	if cachedVerdicts(c) != 1 {
		t.Fatalf("setup: cached = %d", cachedVerdicts(c))
	}
	q1 := func() int { tr.mu.Lock(); defer tr.mu.Unlock(); return tr.queries }()

	c.HandleFlowRemoved(nil, openflow.FlowRemoved{
		SwitchID: 1,
		Match:    flow.FiveMatch(five),
		Cookie:   five.Hash() | 1,
		Reason:   openflow.RemovedIdleTimeout,
	})
	if cachedVerdicts(c) != 0 {
		t.Fatal("cache entry survived FlowRemoved: stale-grant-on-reuse")
	}

	c.HandleEvent(sampleEvent(five, 1))
	q2 := func() int { tr.mu.Lock(); defer tr.mu.Unlock(); return tr.queries }()
	if q2 <= q1 {
		t.Error("re-used flow was re-admitted without re-querying")
	}
}

// TestFlowRemovedCleansRemainingPath: with the index on, the ingress
// entry's eviction also deletes the flow's entries on the rest of the
// path, so no orphan state lingers on non-ingress switches.
func TestFlowRemovedCleansRemainingPath(t *testing.T) {
	c, _, dp1, dp2 := newRevController(t, 0, nil)
	five := revFlow(43500)
	c.HandleEvent(sampleEvent(five, 1))
	c.HandleFlowRemoved(nil, openflow.FlowRemoved{
		SwitchID: 1, Match: flow.FiveMatch(five), Cookie: five.Hash() | 1,
		Reason: openflow.RemovedIdleTimeout,
	})
	// The notifying switch gets deletes too: only its forward entry was
	// evicted, and a keep-state reverse entry could remain there.
	if n := len(dp1.deleteMods()); n != 2 {
		t.Errorf("notifying switch got %d deletes, want 2 (fwd+rev)", n)
	}
	if n := len(dp2.deleteMods()); n != 2 {
		t.Errorf("downstream switch got %d deletes, want 2 (fwd+rev)", n)
	}
	if live, _, _ := c.RevocationIndexStats(); live != 0 {
		t.Error("index registration survived FlowRemoved")
	}
	if wlive, _, _ := c.WideStats(); wlive != 0 || cachedVerdicts(c) != 0 {
		t.Errorf("cached verdict survived FlowRemoved: cached=%d wide=%d", cachedVerdicts(c), wlive)
	}
}

// TestLeaseFallback: facts from hosts that never said hello expire on the
// lease; push-capable hosts are exempt.
func TestLeaseFallback(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c, _, _, _ := newRevController(t, time.Minute, clock)

	// Flow 1: neither end push-capable — leased.
	leased := revFlow(44000)
	c.HandleEvent(sampleEvent(leased, 1))

	if n := c.SweepLeases(); n != 0 {
		t.Fatalf("lease expired immediately: %d", n)
	}
	advance(2 * time.Minute)

	// Both hosts say hello before the next decision: exempt from leases.
	c.HandleUpdate(hostA, wire.Update{Hello: true, Serial: 1})
	c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
	pushed := revFlow(44001)
	c.HandleEvent(sampleEvent(pushed, 1))

	if n := c.SweepLeases(); n != 1 {
		t.Fatalf("SweepLeases tore down %d flows, want 1 (the leased one)", n)
	}
	if c.Counters.Get("revocations_lease_expired") != 1 {
		t.Errorf("revocations_lease_expired = %d", c.Counters.Get("revocations_lease_expired"))
	}
	if live, _, _ := c.RevocationIndexStats(); live != 1 {
		t.Errorf("index live = %d, want the push-exempt flow only", live)
	}
	// The leased flow's cached verdict and its wide registration went with
	// it (counted once, not again by the wide lease sweep); the exempt
	// flow's stay.
	if c.mega.exact(leased) != nil || c.mega.exact(pushed) == nil {
		t.Errorf("cached verdicts after sweep: leased=%v pushed=%v, want gone/kept",
			c.mega.exact(leased) != nil, c.mega.exact(pushed) != nil)
	}
	if wlive, _, _ := c.WideStats(); wlive != 1 {
		t.Errorf("wide registrations = %d, want the push-exempt flow's only", wlive)
	}
	advance(2 * time.Minute)
	if n := c.SweepLeases(); n != 0 {
		t.Errorf("push-capable hosts' flow was lease-revoked (%d)", n)
	}
}

// TestRevokeHostOperator: the identctl-facing entry point.
func TestRevokeHostOperator(t *testing.T) {
	c, _, _, _ := newRevController(t, 0, nil)
	for i := 0; i < 3; i++ {
		c.HandleEvent(sampleEvent(revFlow(45000+i), 1))
	}
	if n := c.RevokeHost(hostA, "name"); n != 3 {
		t.Errorf("RevokeHost = %d, want 3", n)
	}
	if cachedVerdicts(c) != 0 {
		t.Errorf("cached = %d after operator revocation", cachedVerdicts(c))
	}
	if n := c.RevokeHost(hostA, "name"); n != 0 {
		t.Errorf("second RevokeHost = %d, want 0", n)
	}
}

// TestRevocationStorm flaps endpoint state while packet-ins hammer the
// same shard: race-clean, conservation holds, and the system quiesces into
// a decidable state. This is the revocation analogue of the PR 1 stress
// suite.
func TestRevocationStorm(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "storm",
		Policy:           pf.MustCompile("storm", revPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
		Shards:           1, // force every flow and every revocation into one shard
	})
	c.AddDatapath(dp1)

	const (
		workers    = 4
		eventsPerW = 300
		flows      = 16
	)
	var total atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Revoker: flow-scoped, key-scoped, resync, and lease sweeps, flat out.
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				c.HandleUpdate(hostA, wire.Update{Flow: revFlow(46000 + i%flows), Key: "name", Serial: uint64(i)})
			case 1:
				c.HandleUpdate(hostA, wire.Update{Key: "name", Serial: uint64(i)})
			case 2:
				c.HandleUpdate(hostB, wire.Update{Serial: uint64(i)})
			}
			c.SweepLeases()
			i++
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < eventsPerW; i++ {
				c.HandleEvent(sampleEvent(revFlow(46000+(w*eventsPerW+i)%flows), 1))
				total.Add(1)
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		for c.Counters.Get("packet_ins") < workers*eventsPerW {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("storm wedged")
	}

	snap := c.Counters.Snapshot()
	decided := snap["flows_allowed"] + snap["flows_denied"]
	if decided+snap["duplicate_packet_ins"]+snap["revocations_inflight"] != workers*eventsPerW {
		t.Errorf("conservation: decided=%d dup=%d voided=%d, want sum %d; %s",
			decided, snap["duplicate_packet_ins"], snap["revocations_inflight"],
			workers*eventsPerW, c.Counters)
	}
	// Quiescence: with updates stopped, a fresh decision lands and stays.
	quiet := revFlow(47000)
	c.HandleEvent(sampleEvent(quiet, 1))
	if c.mega.exact(quiet) == nil {
		t.Error("post-storm decision did not cache")
	}
	// Nothing pending.
	for i := range c.flows.shards {
		sh := &c.flows.shards[i]
		sh.mu.Lock()
		n := len(sh.pending)
		sh.mu.Unlock()
		if n != 0 {
			t.Errorf("shard %d still has %d pending flows", i, n)
		}
	}
}

// TestInFlightRevocationVoidsDecision pins the shard-sequence mechanism
// directly: a revocation between a decision's claim and its publication
// voids it (no cache entry, no installs beyond the teardown).
func TestInFlightRevocationVoidsDecision(t *testing.T) {
	gate := make(chan struct{})
	tr := &gatedTransport{gate: gate, inner: &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}}
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "void",
		Policy:           pf.MustCompile("void", revPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
	})
	c.AddDatapath(dp1)
	five := revFlow(48000)

	decided := make(chan struct{})
	go func() {
		c.HandleEvent(sampleEvent(five, 1))
		close(decided)
	}()
	tr.waitBlocked(t) // the decision is mid-gather
	c.HandleUpdate(hostA, wire.Update{Flow: five, Key: "name", Serial: 1})
	close(gate) // release the gathered responses
	<-decided

	if c.Counters.Get("revocations_inflight") != 1 {
		t.Errorf("revocations_inflight = %d, want 1", c.Counters.Get("revocations_inflight"))
	}
	if cachedVerdicts(c) != 0 {
		t.Error("voided decision cached its responses")
	}
	if c.Counters.Get("flows_allowed") != 0 {
		t.Error("voided decision still published a verdict")
	}
}

// gatedTransport blocks the first query until its gate opens, so a test
// can interleave a revocation mid-gather.
type gatedTransport struct {
	gate    chan struct{}
	inner   *fakeTransport
	blocked atomic.Bool
}

func (t *gatedTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	t.blocked.Store(true)
	<-t.gate
	return t.inner.Query(host, q)
}

func (t *gatedTransport) waitBlocked(tt *testing.T) {
	tt.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !t.blocked.Load() {
		if time.Now().After(deadline) {
			tt.Fatal("transport never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInstallRevokeReloadSpawnNoGoroutine: flow-mods are applied on the
// goroutine that asked. A controller that has installed a six-switch path,
// torn a fan-in of flows down across all six and reloaded its policy has
// started no goroutine — no workers are left behind and none were needed.
// (The async transport completes inline; the blocking gather's destination
// query is the one goroutine the package starts, and no install, teardown
// or reload path reaches it.)
func TestInstallRevokeReloadSpawnNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()

	const nDatapaths = 6
	hops := make([]Hop, nDatapaths)
	for i := range hops {
		hops[i] = Hop{Datapath: uint64(i + 1), OutPort: uint16(i + 2)}
	}
	c := New(Config{
		Name:   "quiet",
		Policy: pf.MustCompile("quiet", revPolicy+" keep state"),
		Transport: &fakeAsyncTransport{inline: true, fakeTransport: fakeTransport{responses: map[netaddr.IP]map[string]string{
			hostA: {"name": "skype"},
			hostB: {"name": "skype"},
		}}},
		Topology:         &fakeTopo{hops: hops},
		InstallEntries:   true,
		AsyncQueries:     true,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
	})
	dps := make([]*fakeDatapath, nDatapaths)
	for i := range dps {
		dps[i] = &fakeDatapath{id: uint64(i + 1)}
		c.AddDatapath(dps[i])
	}

	for i := 0; i < 4; i++ {
		c.HandleEvent(sampleEvent(revFlow(43000+i), 1))
	}
	if got := c.Counters.Get("entries_installed"); got != 4*2*nDatapaths {
		t.Fatalf("entries_installed = %d, want %d", got, 4*2*nDatapaths)
	}
	c.HandleUpdate(hostA, wire.Update{Key: "name", Serial: 1})
	if got := c.Counters.Get("revocations_flows"); got != 4 {
		t.Fatalf("revocations_flows = %d, want 4", got)
	}
	c.SetPolicy(pf.MustCompile("quiet2", revPolicy))
	for i, dp := range dps {
		mods := dp.deleteMods()
		if len(mods) == 0 || mods[len(mods)-1].Match != flow.MatchAll() || mods[len(mods)-1].Cookie != 0 {
			t.Errorf("datapath %d: last delete is not the reload's table flush", i+1)
		}
	}

	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}
