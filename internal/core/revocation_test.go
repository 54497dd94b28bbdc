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

// recordModes are the two places a verdict's one dependency record can
// live, and the teardown wire shape each implies: a cached verdict is
// recorded under its class and its entries — the founder's included — carry
// the class cookie, so one wildcard delete per datapath clears them; an
// uncached verdict is recorded under its flow, its entries carry the flow's
// own cookie and a teardown sends the two FiveMatch-scoped deletes (forward
// and reverse). The second shape is pinned: bench/identxx-e2e/gen.go's
// onFlowMod clears a flow from its table by the delete's match tuple.
var recordModes = []struct {
	name         string
	cacheTTL     time.Duration
	deletesPerDP int
}{
	{"cached", time.Hour, 1},
	{"uncached", 0, 2},
}

// liveRecords is the dependency index's occupancy: flow records, class
// records.
func liveRecords(c *Controller) (flows, classes int) {
	flows, _, _ = c.RevocationIndexStats()
	classes, _, _ = c.ClassRecordStats()
	return flows, classes
}

// verdictCookie is the cookie a decided flow's entries must carry: its
// class's when the verdict is cached, the flow's own otherwise.
func verdictCookie(c *Controller, five flow.Five) uint64 {
	if c.mega != nil {
		if es := c.mega.covering(five, nil); len(es) > 0 {
			return c.cookies.class(es[0].id)
		}
	}
	return c.cookies.flow(five)
}

// newRevController builds a revocation-enabled controller with a two-hop
// path and the canned skype transport.
func newRevController(t *testing.T, cacheTTL, leaseTTL time.Duration, clock func() time.Time) (*Controller, *fakeTransport, *fakeDatapath, *fakeDatapath) {
	t.Helper()
	c, tr, dp1, dp2, _ := newRevControllerIn(t, completionMode{}, cacheTTL, leaseTTL, clock)
	return c, tr, dp1, dp2
}

// newRevControllerIn is newRevController in a completion mode; settle waits
// out the decisions HandleEvent left in flight.
func newRevControllerIn(t *testing.T, cm completionMode, cacheTTL, leaseTTL time.Duration, clock func() time.Time) (_ *Controller, _ *fakeTransport, _, _ *fakeDatapath, settle func()) {
	t.Helper()
	tr := skypeFacts()
	dp1 := &fakeDatapath{id: 1}
	dp2 := &fakeDatapath{id: 2}
	cfg := Config{
		Name:               "rev",
		Policy:             pf.MustCompile("rev", revPolicy),
		Transport:          tr,
		Topology:           &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}},
		InstallEntries:     true,
		ResponseCacheTTL:   cacheTTL,
		Revocation:         true,
		RevocationLeaseTTL: leaseTTL,
		Clock:              clock,
	}
	settle = cm.config(&cfg)
	c := New(cfg)
	c.AddDatapath(dp1)
	c.AddDatapath(dp2)
	return c, tr, dp1, dp2, settle
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
// transport, for a verdict's one record in either place: a flow-scoped
// update retires the verdict, deletes its entries along the whole installed
// path, audits, and the next packet re-queries.
func TestUpdateTearsDownFlow(t *testing.T) {
	for _, mode := range recordModes {
		t.Run(mode.name, func(t *testing.T) {
			inCompletionModes(t, func(t *testing.T, cm completionMode) {
				testUpdateTearsDownFlow(t, mode.cacheTTL, mode.deletesPerDP, cm)
			})
		})
	}
}

func testUpdateTearsDownFlow(t *testing.T, cacheTTL time.Duration, deletesPerDP int, cm completionMode) {
	cached := cacheTTL > 0
	c, tr, dp1, dp2, settle := newRevControllerIn(t, cm, cacheTTL, 0, nil)
	five := revFlow(40000)
	c.HandleEvent(sampleEvent(five, 1))
	settle()
	if c.Counters.Get("flows_allowed") != 1 {
		t.Fatalf("setup: flow not allowed; %s", c.Counters)
	}
	// Exactly one record, under the class iff the verdict is cached.
	wantFlows, wantClasses := 1, 0
	if cached {
		wantFlows, wantClasses = 0, 1
	}
	if flows, classes := liveRecords(c); flows != wantFlows || classes != wantClasses {
		t.Fatalf("setup: records = %d flow / %d class, want %d / %d", flows, classes, wantFlows, wantClasses)
	}
	if cachedVerdicts(c) != wantClasses {
		t.Fatalf("setup: cached verdicts = %d", cachedVerdicts(c))
	}
	cookie := verdictCookie(c, five)
	if cached != (cookie&1 == 0) {
		t.Fatalf("setup: cookie %#x: class cookies are even, flow cookies odd", cookie)
	}
	for _, dp := range []*fakeDatapath{dp1, dp2} {
		dp.mu.Lock()
		for _, m := range dp.mods {
			if m.Cookie != cookie {
				t.Errorf("dp%d: founder install carries cookie %#x, want %#x", dp.id, m.Cookie, cookie)
			}
		}
		dp.mu.Unlock()
	}
	queriesBefore := tr.queryCount()

	c.HandleUpdate(hostA, wire.Update{Flow: five, Key: "name", Old: "skype", New: "", Serial: 1})

	if flows, classes := liveRecords(c); flows != 0 || classes != 0 || cachedVerdicts(c) != 0 {
		t.Errorf("after the update: records = %d flow / %d class, cached = %d, want none", flows, classes, cachedVerdicts(c))
	}
	// Deletes along the full installed path, cookie-scoped: one
	// wildcard for a class, the flow's two directions otherwise.
	wantMatches := []flow.Match{flow.FiveMatch(five), flow.FiveMatch(five.Reverse())}
	wantRule, wantClassCtr := "(revoked: update:name)", int64(0)
	if cached {
		wantMatches = []flow.Match{flow.MatchAll()}
		wantRule, wantClassCtr = "(megaflow revoked: update:name)", 1
	}
	for _, dp := range []*fakeDatapath{dp1, dp2} {
		dels := dp.deleteMods()
		if len(dels) != deletesPerDP {
			t.Fatalf("dp%d delete mods = %d, want %d", dp.id, len(dels), deletesPerDP)
		}
		for i, m := range dels {
			if m.Cookie != cookie || m.Match != wantMatches[i] {
				t.Errorf("dp%d delete %d = cookie %#x match %v, want %#x %v", dp.id, i, m.Cookie, m.Match, cookie, wantMatches[i])
			}
		}
	}
	if got := c.Audit.Revocations(); len(got) != 1 || got[0].Flow != five || got[0].Rule != wantRule {
		t.Errorf("revocation audit records = %+v, want one for the flow saying %q", got, wantRule)
	}
	// One revoked verdict either way; a class's is also a megaflow teardown.
	if f, m := c.Counters.Get("revocations_flows"), c.Counters.Get("megaflow_teardowns"); f != 1 || m != wantClassCtr {
		t.Errorf("revocations_flows = %d, megaflow_teardowns = %d, want 1 / %d", f, m, wantClassCtr)
	}

	// Next packet of the same flow re-queries and re-decides.
	c.HandleEvent(sampleEvent(five, 1))
	settle()
	if tr.queryCount() <= queriesBefore {
		t.Error("re-admission did not re-query the daemons")
	}
	if c.Counters.Get("flows_allowed") != 2 {
		t.Errorf("flow not re-admitted: %s", c.Counters)
	}
}

// TestKeyScopedUpdateFanOut: a key-scoped update (no flow) tears down
// every verdict that read that key from that host, and nothing else.
func TestKeyScopedUpdateFanOut(t *testing.T) {
	for _, mode := range recordModes {
		t.Run(mode.name, func(t *testing.T) {
			c, _, dp1, dp2 := newRevController(t, mode.cacheTTL, 0, nil)
			var cookies [8]uint64
			for i := range cookies {
				c.HandleEvent(sampleEvent(revFlow(41000+i), 1))
				cookies[i] = verdictCookie(c, revFlow(41000+i))
			}
			records := func() int { flows, classes := liveRecords(c); return flows + classes }
			if records() != 8 {
				t.Fatalf("setup: records = %d", records())
			}

			// A key nothing read: no effect.
			c.HandleUpdate(hostA, wire.Update{Key: "os-patch", Serial: 1})
			if records() != 8 {
				t.Errorf("unrelated key tore down verdicts: records = %d", records())
			}

			// The key every verdict read at the src end.
			c.HandleUpdate(hostA, wire.Update{Key: "name", Serial: 2})
			if records() != 0 || cachedVerdicts(c) != 0 {
				t.Errorf("records = %d, cached = %d after key-scoped revocation, want 0", records(), cachedVerdicts(c))
			}
			if got := c.Counters.Get("revocations_flows"); got != 8 {
				t.Errorf("revocations_flows = %d, want 8", got)
			}
			// The post-condition of a revoke: HandleUpdate has returned, so
			// every datapath on every torn verdict's path holds all of that
			// verdict's cookie-scoped deletes — nothing is still on its way.
			for _, dp := range []*fakeDatapath{dp1, dp2} {
				perCookie := make(map[uint64]int)
				for _, m := range dp.deleteMods() {
					perCookie[m.Cookie]++
				}
				for i, cookie := range cookies {
					if got := perCookie[cookie]; got != mode.deletesPerDP {
						t.Errorf("dp%d: flow %d has %d deletes when HandleUpdate returned, want %d", dp.id, i, got, mode.deletesPerDP)
					}
				}
			}
			// revocations_entries counts the deletes of flow records only.
			want := int64(0)
			if mode.cacheTTL == 0 {
				want = 8 * 2 * 2
			}
			if got := c.Counters.Get("revocations_entries"); got != want {
				t.Errorf("revocations_entries = %d, want %d (8 flows x 2 datapaths x 2 directions, uncached only)", got, want)
			}
		})
	}
}

// TestResyncTearsDownHost: a bare update (serial-gap resync) invalidates
// everything depending on the host.
func TestResyncTearsDownHost(t *testing.T) {
	c, _, _, _ := newRevController(t, time.Hour, 0, nil)
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
		Cookie:   c.cookies.flow(five),
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
	for _, mode := range recordModes {
		t.Run(mode.name, func(t *testing.T) {
			c, _, dp1, dp2 := newRevController(t, mode.cacheTTL, 0, nil)
			five := revFlow(43500)
			c.HandleEvent(sampleEvent(five, 1))
			c.HandleFlowRemoved(nil, openflow.FlowRemoved{
				SwitchID: 1, Match: flow.FiveMatch(five), Cookie: verdictCookie(c, five),
				Reason: openflow.RemovedIdleTimeout,
			})
			// The notifying switch gets deletes too: only its forward entry
			// was evicted, and a keep-state reverse entry could remain there.
			for _, dp := range []*fakeDatapath{dp1, dp2} {
				if n := len(dp.deleteMods()); n != mode.deletesPerDP {
					t.Errorf("dp%d got %d deletes, want %d", dp.id, n, mode.deletesPerDP)
				}
			}
			if flows, classes := liveRecords(c); flows != 0 || classes != 0 || cachedVerdicts(c) != 0 {
				t.Errorf("after FlowRemoved: records = %d flow / %d class, cached = %d, want none", flows, classes, cachedVerdicts(c))
			}
		})
	}
}

// pushFlowUpdate delivers a flow-scoped update for five from its source
// host, as that host's daemon pushes one when the flow's owner changes.
func pushFlowUpdate(c *Controller, five flow.Five) {
	c.HandleUpdate(five.SrcIP, wire.Update{Flow: five, Key: "name"})
}

// TestRevocableVerdictOutlivesCacheTTL: the cache's TTL bounds how long
// a verdict serves hits, not how long its flow may live. A pass verdict's
// entry that a sweep ages out of serving sends no delete — a connection
// older than the TTL is not interrupted — and stays the flow's one record:
// a fact update still tears it down by its cookie, another replica's
// takeover leaves it alone, and the ingress entry's flow-removed finally
// retires it. A deny verdict's drop entry reports nothing, so its record
// leaves at the sweep.
func TestRevocableVerdictOutlivesCacheTTL(t *testing.T) {
	const ttl = time.Minute
	denied := flow.Five{SrcIP: hostA, DstIP: netaddr.MustParseIP("10.0.0.9"), Proto: netaddr.ProtoTCP, SrcPort: 44000, DstPort: 5060}
	setup := func(t *testing.T, dps ...openflow.Datapath) (*Controller, *fakeClock) {
		fc := &fakeClock{now: time.Unix(1000, 0)}
		c := New(Config{
			Name:   "aged",
			Policy: pf.MustCompile("rev", revPolicy),
			Transport: &fakeTransport{responses: map[netaddr.IP]map[string]string{
				hostA: {"name": "skype"},
				hostB: {"name": "skype"},
			}},
			Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}},
			InstallEntries:   true,
			ResponseCacheTTL: ttl,
			Revocation:       true,
			Shards:           1,
			Clock:            fc.Now,
		})
		for _, dp := range dps {
			c.AddDatapath(dp)
		}
		c.HandleEvent(unbuffered(revFlow(44000)))
		c.HandleEvent(unbuffered(denied))
		if allowed, blocked := c.Counters.Get("flows_allowed"), c.Counters.Get("flows_denied"); allowed != 1 || blocked != 1 || cachedVerdicts(c) != 2 {
			t.Fatalf("setup: allowed=%d denied=%d cached=%d, want 1/1/2", allowed, blocked, cachedVerdicts(c))
		}
		// Another flow's insert two TTLs on sweeps the one shard.
		fc.Advance(2 * ttl)
		c.HandleEvent(unbuffered(revFlow(44001)))
		if got := c.Counters.Get("megaflow_expired"); got != 2 || cachedVerdicts(c) != 1 {
			t.Fatalf("after the sweep: megaflow_expired=%d cached=%d, want 2/1", got, cachedVerdicts(c))
		}
		if flows, classes := liveRecords(c); flows != 0 || classes != 2 {
			t.Fatalf("after the sweep: records = %d flow / %d class, want the aged pass verdict's and the fresh one's", flows, classes)
		}
		return c, fc
	}
	long := revFlow(44000)

	t.Run("update", func(t *testing.T) {
		dp1, dp2 := &fakeDatapath{id: 1}, &fakeDatapath{id: 2}
		c, _ := setup(t, dp1, dp2)
		if n := len(dp1.deleteMods()) + len(dp2.deleteMods()); n != 0 {
			t.Fatalf("the sweep issued %d deletes; entries should idle out", n)
		}
		if c.mega.lookup(long, c.clock(), c.state.Load().epoch) != nil {
			t.Fatal("aged entry still serves hits")
		}
		cookie := verdictCookie(c, long)
		if cookie&1 != 0 || dp1.resident()[flow.FiveMatch(long)] != cookie {
			t.Fatalf("aged entry's cookie %#x is not the one its flow's entries carry", cookie)
		}
		c.HandleUpdate(hostA, wire.Update{Key: "name", Old: "skype", New: "", Serial: 1})
		for _, dp := range []*fakeDatapath{dp1, dp2} {
			byCookie := 0
			for _, m := range dp.deleteMods() {
				if m.Cookie == cookie && m.Match == flow.MatchAll() {
					byCookie++
				}
			}
			if _, left := dp.resident()[flow.FiveMatch(long)]; byCookie != 1 || left {
				t.Errorf("dp%d: %d wildcard deletes by the aged cookie, entry left=%v; want 1/false", dp.id, byCookie, left)
			}
		}
		if flows, classes := liveRecords(c); flows != 0 || classes != 0 {
			t.Errorf("records after the update = %d flow / %d class, want none", flows, classes)
		}
		// Each entry left the cache through one counter: the aged one was
		// counted out by the sweep, and its teardown counts nothing more.
		_, _, installs, teardowns := c.MegaflowStats()
		if expired := c.Counters.Get("megaflow_expired"); installs != 3 || teardowns != 1 || expired != 2 || c.Counters.Get("revocations_flows") != 2 {
			t.Errorf("installs=%d teardowns=%d expired=%d revocations_flows=%d, want 3/1/2/2", installs, teardowns, expired, c.Counters.Get("revocations_flows"))
		}
	})

	t.Run("flow-removed", func(t *testing.T) {
		dp1, dp2 := &fakeDatapath{id: 1}, &fakeDatapath{id: 2}
		c, _ := setup(t, dp1, dp2)
		cookie := verdictCookie(c, long)
		c.HandleFlowRemoved(nil, openflow.FlowRemoved{SwitchID: 1, Match: flow.FiveMatch(long), Cookie: cookie, Reason: openflow.RemovedIdleTimeout})
		if flows, classes := liveRecords(c); flows != 0 || classes != 1 {
			t.Errorf("records after flow-removed = %d flow / %d class, want the fresh verdict's only", flows, classes)
		}
		for _, dp := range []*fakeDatapath{dp1, dp2} {
			if dels := dp.deleteMods(); len(dels) != 1 || dels[0].Cookie != cookie {
				t.Errorf("dp%d deletes = %+v, want the aged verdict's one wildcard", dp.id, dels)
			}
		}
		// Nothing is left aside to retire twice.
		c.HandleFlowRemoved(nil, openflow.FlowRemoved{SwitchID: 1, Match: flow.FiveMatch(long), Cookie: cookie, Reason: openflow.RemovedIdleTimeout})
		if n := len(dp1.deleteMods()); n != 1 {
			t.Errorf("second flow-removed issued deletes: %d", n)
		}
	})

	t.Run("takeover", func(t *testing.T) {
		sw1, sw2 := openflow.NewSwitch(1, "s1", 0), openflow.NewSwitch(2, "s2", 0)
		c, _ := setup(t, sw1, sw2)
		own := sw1.Table.Len() + sw2.Table.Len()
		// A departed replica's verdicts on the same switches: an uncached
		// flow and a cached one.
		for i, cacheTTL := range []time.Duration{0, time.Hour} {
			d := New(Config{
				Name:             "departed",
				Policy:           pf.MustCompile("rev", revPolicy),
				Transport:        skypeFacts(),
				Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}},
				InstallEntries:   true,
				ResponseCacheTTL: cacheTTL,
				Revocation:       true,
			})
			d.AddDatapath(sw1)
			d.AddDatapath(sw2)
			d.HandleEvent(unbuffered(revFlow(44002 + i)))
		}
		if got := sw1.Table.Len() + sw2.Table.Len(); got != own+4 {
			t.Fatalf("setup: %d entries, want %d of ours and 4 of the departed replica's", got, own)
		}
		if n := c.TakeOver("departed"); n != 2 || sw1.Table.Len()+sw2.Table.Len() != own {
			t.Errorf("takeover issued %d deletes, tables now %d: want one per switch and our %d entries left", n, sw1.Table.Len()+sw2.Table.Len(), own)
		}
		for _, sw := range []*openflow.Switch{sw1, sw2} {
			for _, e := range sw.Table.Entries() {
				if e.Cookie&tagMask != c.cookies.tag {
					t.Errorf("s%d: entry %v with cookie %#x survived the takeover", sw.ID, e.Match.Tuple.Five(), e.Cookie)
				}
			}
		}
		// The aged verdict is untouched, and still its flow's record.
		c.HandleUpdate(hostA, wire.Update{Key: "name", Old: "skype", New: "", Serial: 1})
		for _, sw := range []*openflow.Switch{sw1, sw2} {
			for _, e := range sw.Table.Entries() {
				if e.Match == flow.FiveMatch(long) {
					t.Errorf("s%d: the aged verdict's entry survived its facts", sw.ID)
				}
			}
		}
	})
}

// TestLeaseFallback: facts from hosts that never said hello expire on the
// lease; push-capable hosts are exempt.
func TestLeaseFallback(t *testing.T) {
	for _, mode := range recordModes {
		t.Run(mode.name, func(t *testing.T) {
			inCompletionModes(t, func(t *testing.T, cm completionMode) {
				testLeaseFallback(t, mode.cacheTTL, cm)
			})
		})
	}
}

func testLeaseFallback(t *testing.T, cacheTTL time.Duration, cm completionMode) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	c, _, _, _, settle := newRevControllerIn(t, cm, cacheTTL, time.Minute, clock)

	// Flow 1: neither end push-capable — leased.
	leased := revFlow(44000)
	c.HandleEvent(sampleEvent(leased, 1))
	settle()

	if n := c.SweepLeases(); n != 0 {
		t.Fatalf("lease expired immediately: %d", n)
	}
	advance(2 * time.Minute)

	// Both hosts say hello before the next decision: exempt from leases.
	c.HandleUpdate(hostA, wire.Update{Hello: true, Serial: 1})
	c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
	pushed := revFlow(44001)
	c.HandleEvent(sampleEvent(pushed, 1))
	settle()

	if n := c.SweepLeases(); n != 1 {
		t.Fatalf("SweepLeases tore down %d verdicts, want 1 (the leased one)", n)
	}
	// Counted once, under the kind of record the verdict had.
	wantFlows, wantClasses := int64(1), int64(0)
	if cacheTTL > 0 {
		wantFlows, wantClasses = 0, 1
	}
	if f, w := c.Counters.Get("revocations_lease_expired"), c.Counters.Get("revocations_wide_lease_expired"); f != wantFlows || w != wantClasses {
		t.Errorf("revocations_lease_expired = %d, revocations_wide_lease_expired = %d, want %d / %d", f, w, wantFlows, wantClasses)
	}
	// The leased verdict's record and cache entry went with it; the
	// exempt one's stay.
	if flows, classes := liveRecords(c); int64(flows) != wantFlows || int64(classes) != wantClasses {
		t.Errorf("records = %d flow / %d class, want the push-exempt verdict's only", flows, classes)
	}
	if cacheTTL > 0 && (c.mega.exact(leased) != nil || c.mega.exact(pushed) == nil) {
		t.Errorf("cached verdicts after sweep: leased=%v pushed=%v, want gone/kept",
			c.mega.exact(leased) != nil, c.mega.exact(pushed) != nil)
	}
	advance(2 * time.Minute)
	if n := c.SweepLeases(); n != 0 {
		t.Errorf("push-capable hosts' verdict was lease-revoked (%d)", n)
	}
}

// TestRevokeHostOperator: the identctl-facing entry point.
func TestRevokeHostOperator(t *testing.T) {
	c, _, _, _ := newRevController(t, time.Hour, 0, nil)
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

	checkOutcomes(t, c, workers*eventsPerW)
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

// skypeFacts is a transport whose two hosts both run skype.
func skypeFacts() *fakeTransport {
	return &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
}

// set changes what host's daemon answers for key from now on.
func (t *fakeTransport) set(host netaddr.IP, key, value string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.responses[host][key] = value
}

// newFenceController builds a revocation-enabled controller deciding
// revPolicy over a one-hop path, its skype transport behind a gate, in
// completion mode cm.
func newFenceController(t *testing.T, cm completionMode, shards int, cacheTTL time.Duration) (_ *Controller, _ *fakeTransport, _ *gatedTransport, _ *fakeDatapath, settle func()) {
	t.Helper()
	facts := skypeFacts()
	tr := newGatedTransport(facts)
	dp1 := &fakeDatapath{id: 1}
	cfg := Config{
		Name:             "fence",
		Policy:           pf.MustCompile("fence", revPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries:   true,
		ResponseCacheTTL: cacheTTL,
		Revocation:       true,
		Shards:           shards,
	}
	settle = cm.config(&cfg)
	c := New(cfg)
	c.AddDatapath(dp1)
	return c, facts, tr, dp1, settle
}

// decideMidGather starts five's decision and returns once its queries are
// parked on the gate. finish opens the gate and returns once the decision,
// every attempt of it, is done.
func decideMidGather(c *Controller, tr *gatedTransport, cm completionMode, settle func(), five flow.Five) (finish func()) {
	tr.arm()
	returned := make(chan struct{})
	go func() {
		c.HandleEvent(sampleEvent(five, 1))
		close(returned)
	}()
	tr.waitQueries(cm.parked())
	return func() {
		tr.open()
		<-returned
		settle()
	}
}

// checkCounters fails t for every counter in want that reads otherwise.
func checkCounters(t *testing.T, c *Controller, want map[string]int64) {
	t.Helper()
	for name, n := range want {
		if got := c.Counters.Get(name); got != n {
			t.Errorf("%s = %d, want %d", name, got, n)
		}
	}
}

// TestInFlightRevocationVoidsDecision: a flow-scoped update for a flow whose
// decision is mid-gather voids that attempt — its answers may predate the
// change — and the decision re-decides in place: the one packet-in gets the
// post-update verdict, with no retransmission.
func TestInFlightRevocationVoidsDecision(t *testing.T) {
	inCompletionModes(t, testInFlightRevocationVoidsDecision)
}

func testInFlightRevocationVoidsDecision(t *testing.T, cm completionMode) {
	c, facts, tr, dp1, settle := newFenceController(t, cm, 0, time.Hour)
	five := revFlow(48000)
	finish := decideMidGather(c, tr, cm, settle, five)
	// The process behind the flow exits, and its daemon says so.
	facts.set(hostA, "name", "")
	c.HandleUpdate(hostA, wire.Update{Flow: five, Key: "name", Old: "skype", Serial: 1})
	finish()

	checkCounters(t, c, map[string]int64{
		"revocations_inflight": 1, "revocations_redecided": 1, "revocations_void_dropped": 0,
		"flows_allowed": 0, "flows_denied": 1,
	})
	if q := facts.queryCount(); q != 4 {
		t.Errorf("queries = %d, want 4: each end asked once per attempt", q)
	}
	if dp1.modCount() != 1 || dp1.mods[0].Actions[0].Type != openflow.ActionDrop {
		t.Errorf("mods = %+v, want the post-update verdict's one drop entry", dp1.mods)
	}
	checkOutcomes(t, c, 1)
}

// TestRedecideAfterResyncOnAnotherShard: a resync for a host fences every
// decision in flight with that host at an end — on any shard, registered or
// not — so one gathered before the resync re-decides on what the host says
// after it.
func TestRedecideAfterResyncOnAnotherShard(t *testing.T) {
	inCompletionModes(t, func(t *testing.T, cm completionMode) {
		c, facts, tr, _, settle := newFenceController(t, cm, 16, 0)
		registered := revFlow(48100)
		c.HandleEvent(sampleEvent(registered, 1))
		settle()
		inFlight := revFlow(48101)
		for c.flows.shardFor(inFlight) == c.flows.shardFor(registered) {
			inFlight.SrcPort++
		}

		finish := decideMidGather(c, tr, cm, settle, inFlight)
		facts.set(hostA, "name", "")
		c.HandleUpdate(hostA, wire.Update{Serial: 9})
		finish()

		checkCounters(t, c, map[string]int64{
			"revocations_resyncs": 1, "revocations_flows": 1,
			"revocations_inflight": 1, "revocations_redecided": 1,
			"flows_allowed": 1, "flows_denied": 1,
		})
		checkOutcomes(t, c, 2)
	})
}

// TestRedecideSparesUnrelatedFlowOnShard: a flow-scoped update fences the
// flow it names and nothing else, not even a decision in flight on the same
// shard.
func TestRedecideSparesUnrelatedFlowOnShard(t *testing.T) {
	inCompletionModes(t, func(t *testing.T, cm completionMode) {
		c, facts, tr, _, settle := newFenceController(t, cm, 1, time.Hour)
		finish := decideMidGather(c, tr, cm, settle, revFlow(48200))
		c.HandleUpdate(hostA, wire.Update{Flow: revFlow(48201), Key: "name", Serial: 1})
		finish()

		checkCounters(t, c, map[string]int64{
			"revocations_inflight": 0, "revocations_redecided": 0, "flows_allowed": 1,
		})
		if q := facts.queryCount(); q != 2 {
			t.Errorf("queries = %d, want 2: one attempt", q)
		}
		checkOutcomes(t, c, 1)
	})
}

// updatingTransport answers, then reports the flow's facts changed, every
// time: a decision asking it voids on every attempt.
type updatingTransport struct {
	*fakeTransport
	c *Controller
}

func (t *updatingTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	resp, rtt, err := t.fakeTransport.Query(host, q)
	t.c.HandleUpdate(host, wire.Update{Flow: q.Flow, Key: "name"})
	return resp, rtt, err
}

// TestRedecideDropsAfterSecondVoid: re-deciding is bounded. A decision whose
// second attempt voids too releases the packet's buffer with no verdict and
// is counted, once, as a void drop.
func TestRedecideDropsAfterSecondVoid(t *testing.T) {
	facts := skypeFacts()
	tr := &updatingTransport{fakeTransport: facts}
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:           "churn",
		Policy:         pf.MustCompile("churn", revPolicy),
		Transport:      tr,
		Topology:       &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries: true,
		Revocation:     true,
	})
	tr.c = c
	c.AddDatapath(dp1)
	c.HandleEvent(sampleEvent(revFlow(48300), 1))

	checkCounters(t, c, map[string]int64{
		"revocations_inflight": 2, "revocations_redecided": 1, "revocations_void_dropped": 1,
		"flows_allowed": 0, "flows_denied": 0,
	})
	if q := facts.queryCount(); q != 4 {
		t.Errorf("queries = %d, want 4: two attempts", q)
	}
	if dp1.modCount() != 0 || len(dp1.released) != 1 || dp1.released[0] != 7 {
		t.Errorf("mods = %d, released = %v: want nothing installed and the one buffer released", dp1.modCount(), dp1.released)
	}
	checkOutcomes(t, c, 1)
}

// gatedTransport, while armed, parks every query's answer until the gate
// opens — the answer is built first, as a daemon's response on the wire
// predates what happens while it travels — so a test can interleave a
// revocation mid-gather. Unarmed, it answers straight away.
type gatedTransport struct {
	inner *fakeTransport

	mu     sync.Mutex
	cond   sync.Cond
	gate   chan struct{} // nil while unarmed
	parked int           // queries that reached the gate since arm
}

func newGatedTransport(inner *fakeTransport) *gatedTransport {
	t := &gatedTransport{inner: inner}
	t.cond.L = &t.mu
	return t
}

func (t *gatedTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	resp, rtt, err := t.inner.Query(host, q)
	t.mu.Lock()
	gate := t.gate
	if gate != nil {
		t.parked++
		t.cond.Broadcast()
	}
	t.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return resp, rtt, err
}

func (t *gatedTransport) arm() {
	t.mu.Lock()
	t.gate, t.parked = make(chan struct{}), 0
	t.mu.Unlock()
}

// open releases every parked query and disarms the gate.
func (t *gatedTransport) open() {
	t.mu.Lock()
	close(t.gate)
	t.gate = nil
	t.mu.Unlock()
}

// waitQueries returns once n queries are parked on the gate.
func (t *gatedTransport) waitQueries(n int) {
	t.mu.Lock()
	for t.parked < n {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// TestInstallRevokeReloadSpawnNoGoroutine: the decision path starts no
// goroutine. A controller that has gathered both ends of four misses,
// installed a six-switch path for each — HandleEvent returning with the
// verdict installed — torn the fan-in down across all six and reloaded its
// policy is running on the caller alone, over a blocking transport as over an
// async one that completes inline: no workers are left behind and none were
// needed.
func TestInstallRevokeReloadSpawnNoGoroutine(t *testing.T) {
	for _, async := range []bool{false, true} {
		testSpawnNoGoroutine(t, async)
	}
}

func testSpawnNoGoroutine(t *testing.T, async bool) {
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
		AsyncQueries:     async,
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
		t.Fatalf("async=%t: entries_installed = %d when HandleEvent returned, want %d", async, got, 4*2*nDatapaths)
	}
	c.HandleUpdate(hostA, wire.Update{Key: "name", Serial: 1})
	if got := c.Counters.Get("revocations_flows"); got != 4 {
		t.Fatalf("revocations_flows = %d, want 4", got)
	}
	c.SetPolicy(pf.MustCompile("quiet2", revPolicy))
	for i, dp := range dps {
		mods := dp.deleteMods()
		if len(mods) == 0 || mods[len(mods)-1].Match != flow.MatchAll() || mods[len(mods)-1].Cookie != c.cookies.tag || mods[len(mods)-1].CookieMask != tagMask {
			t.Errorf("datapath %d: last delete is not the reload's table flush", i+1)
		}
	}

	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("async=%t: goroutines: %d before, %d after", async, before, after)
	}
}
