package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// megaPolicy reads endpoint state from the destination only: the matched
// path consumes DstIP (key read pins the queried end) and DstPort (the
// port guard), so every source talking to the same service is one traffic
// equivalence class.
const megaPolicy = "block all\npass from any to any port 5060 with eq(@dst[name], skype)"

func newMegaController(t *testing.T, policy string, leaseTTL time.Duration, clock func() time.Time) (*Controller, *fakeTransport, *fakeDatapath, *fakeDatapath) {
	t.Helper()
	c, tr, dp1, dp2, _ := newMegaControllerIn(t, completionMode{}, policy, leaseTTL, clock)
	return c, tr, dp1, dp2
}

// newMegaControllerIn is newMegaController in a completion mode; settle waits
// out the decisions HandleEvent left in flight.
func newMegaControllerIn(t *testing.T, cm completionMode, policy string, leaseTTL time.Duration, clock func() time.Time) (_ *Controller, _ *fakeTransport, _, _ *fakeDatapath, settle func()) {
	t.Helper()
	tr := skypeFacts()
	dp1 := &fakeDatapath{id: 1}
	dp2 := &fakeDatapath{id: 2}
	cfg := Config{
		Name:               "mega",
		Policy:             pf.MustCompile("mega", policy),
		Transport:          tr,
		Topology:           &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}},
		ResponseCacheTTL:   time.Hour,
		RevocationLeaseTTL: leaseTTL,
		Megaflow:           true,
		Clock:              clock,
	}
	settle = cm.config(&cfg)
	c := New(cfg)
	c.AddDatapath(dp1)
	c.AddDatapath(dp2)
	return c, tr, dp1, dp2, settle
}

func megaFlow(src netaddr.IP, sp int) flow.Five {
	return flow.Five{SrcIP: src, DstIP: hostB, Proto: netaddr.ProtoTCP,
		SrcPort: netaddr.Port(sp), DstPort: 5060}
}

func (t *fakeTransport) queryCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queries
}

// TestMegaflowClassHit is the widening contract: the first flow of a class
// decides and widens; every later flow agreeing on the traced fields
// resolves from the verdict cache — no query, no evaluation, no entry of
// its own — and its installs carry the class cookie.
func TestMegaflowClassHit(t *testing.T) { inCompletionModes(t, testMegaflowClassHit) }

func testMegaflowClassHit(t *testing.T, cm completionMode) {
	c, tr, dp1, _, settle := newMegaControllerIn(t, cm, megaPolicy, 0, nil)

	founder := megaFlow(hostA, 40000)
	c.HandleEvent(sampleEvent(founder, 1))
	settle()
	if got := c.Counters.Get("flows_allowed"); got != 1 {
		t.Fatalf("founder not allowed; %s", c.Counters)
	}
	live, hits, installs, _ := c.MegaflowStats()
	if live != 1 || installs != 1 || hits != 0 {
		t.Fatalf("after founder: live=%d hits=%d installs=%d, want 1/0/1", live, hits, installs)
	}
	queriesAfterFounder := tr.queryCount()
	modsAfterFounder := dp1.modCount()

	// Members: same destination service, different source port and even a
	// different (daemon-less) source host — all inside the founder's class.
	hostC := netaddr.MustParseIP("10.0.0.3")
	members := []flow.Five{megaFlow(hostA, 40001), megaFlow(hostC, 12345)}
	for _, f := range members {
		c.HandleEvent(sampleEvent(f, 1))
	}
	settle()
	if got := c.Counters.Get("flows_allowed"); got != 3 {
		t.Fatalf("members not allowed; %s", c.Counters)
	}
	if got := tr.queryCount(); got != queriesAfterFounder {
		t.Errorf("members queried daemons: %d -> %d queries", queriesAfterFounder, got)
	}
	_, hits, installs, _ = c.MegaflowStats()
	if hits != 2 || installs != 1 {
		t.Errorf("after members: hits=%d installs=%d, want 2/1", hits, installs)
	}
	if cachedVerdicts(c) != 1 {
		t.Errorf("members accreted entries of their own: cached=%d, want 1", cachedVerdicts(c))
	}

	// Every install of the class — the founder's as much as a member's —
	// carries the one even class cookie, so one wildcard delete per
	// datapath tears the whole class down.
	classCookie := verdictCookie(c, founder)
	if classCookie == 0 || classCookie&1 != 0 {
		t.Fatalf("class cookie %#x: want even and non-zero", classCookie)
	}
	dp1.mu.Lock()
	if len(dp1.mods) <= modsAfterFounder {
		t.Error("member hits installed no entries")
	}
	for i, m := range dp1.mods {
		if m.Cookie != classCookie {
			t.Errorf("install %d carries cookie %#x, want the class cookie %#x", i, m.Cookie, classCookie)
		}
	}
	dp1.mu.Unlock()
}

// TestMegaflowFactUpdateTearsDownClass: revoking a fact the widened
// verdict read tears down the megaflow entry and deletes every member's
// installed entries with one cookie-scoped wildcard per datapath.
func TestMegaflowFactUpdateTearsDownClass(t *testing.T) {
	c, tr, dp1, dp2 := newMegaController(t, megaPolicy, 0, nil)

	c.HandleEvent(sampleEvent(megaFlow(hostA, 40000), 1)) // founder
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40001), 1)) // member
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40002), 1)) // member
	_, hits, _, _ := c.MegaflowStats()
	if hits != 2 {
		t.Fatalf("setup: member hits = %d, want 2", hits)
	}

	c.HandleUpdate(hostB, wire.Update{Key: "name", Old: "skype", New: "", Serial: 1})

	live, _, _, teardowns := c.MegaflowStats()
	if live != 0 || teardowns != 1 {
		t.Fatalf("after update: live=%d teardowns=%d, want 0/1", live, teardowns)
	}
	for _, dp := range []*fakeDatapath{dp1, dp2} {
		found := false
		for _, m := range dp.deleteMods() {
			if m.Cookie&1 == 0 && m.Match == flow.MatchAll() {
				found = true
			}
		}
		if !found {
			t.Errorf("dp%d: no cookie-scoped wildcard delete for the class", dp.id)
		}
	}

	// The next member packet finds no class and re-decides from scratch:
	// daemons re-queried, a fresh widened entry installed.
	before := tr.queryCount()
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40003), 1))
	if got := tr.queryCount(); got == before {
		t.Error("post-teardown member did not re-query")
	}
	live, _, installs, _ := c.MegaflowStats()
	if live != 1 || installs != 2 {
		t.Errorf("post-teardown re-widen: live=%d installs=%d, want 1/2", live, installs)
	}
}

// TestMegaflowSetPolicyFlush: a policy swap empties the verdict cache;
// stale verdicts never survive into the new epoch.
func TestMegaflowSetPolicyFlush(t *testing.T) {
	c, tr, _, _ := newMegaController(t, megaPolicy, 0, nil)
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40000), 1))
	if live, _, _, _ := c.MegaflowStats(); live != 1 {
		t.Fatalf("setup: live = %d", live)
	}

	c.SetPolicy(pf.MustCompile("mega2", megaPolicy))
	if live, _, _, _ := c.MegaflowStats(); live != 0 {
		t.Fatalf("after SetPolicy: live = %d, want 0", live)
	}

	before := tr.queryCount()
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40001), 1))
	if tr.queryCount() == before {
		t.Error("post-swap flow did not re-query")
	}
	_, hits, installs, _ := c.MegaflowStats()
	if hits != 0 || installs != 2 {
		t.Errorf("post-swap: hits=%d installs=%d, want 0/2", hits, installs)
	}
}

// TestMegaflowTTLExpiry: widened entries live for ResponseCacheTTL like
// any cached verdict. An expired class stops serving hits, and the
// displacing re-decision counts it as expired without issuing deletes —
// switch entries idle out.
func TestMegaflowTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	c, tr, dp1, _ := newMegaController(t, megaPolicy, 0, clock)

	c.HandleEvent(sampleEvent(megaFlow(hostA, 40000), 1))
	deletesBefore := len(dp1.deleteMods())

	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()

	before := tr.queryCount()
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40001), 1))
	if tr.queryCount() == before {
		t.Error("expired class still served a hit")
	}
	if got := c.Counters.Get("megaflow_expired"); got != 1 {
		t.Errorf("megaflow_expired = %d, want 1", got)
	}
	if got := len(dp1.deleteMods()); got != deletesBefore {
		t.Errorf("expiry issued deletes: %d -> %d; entries should idle out", deletesBefore, got)
	}
	live, _, installs, _ := c.MegaflowStats()
	if live != 1 || installs != 2 {
		t.Errorf("post-expiry: live=%d installs=%d, want 1/2", live, installs)
	}
	// A widened class's record leaves with it: nothing would ever report
	// its members' entries gone.
	if flows, classes := liveRecords(c); flows != 0 || classes != 1 {
		t.Errorf("records = %d flow / %d class, want the new class's only", flows, classes)
	}
}

// TestMegaflowTeardownFencesOnlyTheFounder: a class that falls to a fact
// update fences every decision in flight on that host (the host fence); one
// that falls to its lease fences its founder's re-decision in flight — the
// founder's gather is what the class stood on — and no member's; one that
// falls because a member was revoked fences that member only.
func TestMegaflowTeardownFencesOnlyTheFounder(t *testing.T) {
	fc := &fakeClock{now: time.Unix(1000, 0)}
	c, _, _, _ := newMegaController(t, megaPolicy, time.Minute, fc.Now)
	founder, member := megaFlow(hostA, 40000), megaFlow(hostA, 40001)
	found := func() {
		t.Helper()
		c.HandleEvent(sampleEvent(founder, 1))
		c.HandleEvent(sampleEvent(member, 1))
		if cachedVerdicts(c) != 1 {
			t.Fatalf("setup: cached = %d, want the one class", cachedVerdicts(c))
		}
	}
	// inFlight claims f as a decision does, as if it were mid-gather.
	inFlight := func(f flow.Five) *decisionScratch {
		s, _ := c.flows.shardFor(f).begin(f, nil, openflow.PacketIn{})
		s.five = f
		s.srcGen, s.dstGen = c.hosts.load(f.SrcIP), c.hosts.load(f.DstIP)
		return s
	}
	done := func(ss ...*decisionScratch) {
		for _, s := range ss {
			c.flows.shardFor(s.five).resolve(s.five)
			s.release()
		}
	}

	// A fact update of the class's traced end fences every decision with
	// that host at an end, founder and member alike, and no other.
	found()
	bystander := flow.Five{SrcIP: netaddr.MustParseIP("10.0.0.3"), DstIP: netaddr.MustParseIP("10.0.0.4"), Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 5060}
	sf, sm, sb := inFlight(founder), inFlight(member), inFlight(bystander)
	c.HandleUpdate(hostB, wire.Update{Key: "name", Old: "skype", New: "skype", Serial: 1})
	if !c.fenced(sf) || !c.fenced(sm) || c.fenced(sb) || cachedVerdicts(c) != 0 {
		t.Errorf("fact update: fenced founder %t, member %t, bystander %t, cached = %d; want true, true, false, 0", c.fenced(sf), c.fenced(sm), c.fenced(sb), cachedVerdicts(c))
	}
	done(sf, sm, sb)

	found()
	sf, sm = inFlight(founder), inFlight(member)
	fc.Advance(2 * time.Minute)
	if n := c.SweepLeases(); n != 1 || cachedVerdicts(c) != 0 {
		t.Fatalf("lease sweep tore down %d, cached = %d; want the class", n, cachedVerdicts(c))
	}
	if !c.fenced(sf) || c.fenced(sm) {
		t.Errorf("class lease expired: founder fenced %t, member fenced %t; want true, false", c.fenced(sf), c.fenced(sm))
	}
	done(sf, sm)

	found()
	sf, sm = inFlight(founder), inFlight(member)
	c.HandleUpdate(hostA, wire.Update{Flow: member, Key: "name", Serial: 2})
	if c.fenced(sf) || !c.fenced(sm) || cachedVerdicts(c) != 0 {
		t.Errorf("member revoked: founder fenced %t, member fenced %t, cached = %d; want false, true, 0", c.fenced(sf), c.fenced(sm), cachedVerdicts(c))
	}
	done(sf, sm)
}

// TestMegaflowRevokeFlowMemberTearsClass: revoking one member tears down
// the whole class — the member's installed entries carry the class
// cookie, unreachable by exact-cookie deletes, so conservative class
// teardown is the only correct answer.
func TestMegaflowRevokeFlowMemberTearsClass(t *testing.T) {
	c, _, dp1, _ := newMegaController(t, megaPolicy, 0, nil)
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40000), 1)) // founder
	member := megaFlow(hostA, 40001)
	c.HandleEvent(sampleEvent(member, 1))

	pushFlowUpdate(c, member)

	live, _, _, teardowns := c.MegaflowStats()
	if live != 0 || teardowns != 1 {
		t.Fatalf("after revoking the member: live=%d teardowns=%d, want 0/1", live, teardowns)
	}
	found := false
	for _, m := range dp1.deleteMods() {
		if m.Cookie&1 == 0 && m.Match == flow.MatchAll() {
			found = true
		}
	}
	if !found {
		t.Error("class entries not deleted after member revocation")
	}
}

// TestMegaflowFullMaskNotWidened: a policy whose matched path reads both
// ends consumes all four header fields, so the class is a single flow: a
// full-trace decision is one full-mask entry — the same entry the cache
// holds without Config.Megaflow — which serves the decided flow's repeats
// and nothing else.
func TestMegaflowFullMaskNotWidened(t *testing.T) {
	c, tr, _, _ := newMegaController(t, revPolicy, 0, nil)
	five := megaFlow(hostA, 40000)
	c.HandleEvent(sampleEvent(five, 1))
	if got := c.Counters.Get("flows_allowed"); got != 1 {
		t.Fatalf("flow not allowed; %s", c.Counters)
	}
	live, _, installs, _ := c.MegaflowStats()
	if live != 1 || installs != 1 {
		t.Fatalf("full-trace decision: live=%d installs=%d, want one entry", live, installs)
	}
	if e := c.mega.exact(five); e == nil || e.mask != pf.TraceAllFields {
		t.Fatalf("full-trace decision's entry = %+v, want a full-mask one", e)
	}
	queries := tr.queryCount()
	c.HandleEvent(sampleEvent(five, 1))
	c.HandleEvent(sampleEvent(megaFlow(hostA, 40001), 1))
	_, hits, installs, _ := c.MegaflowStats()
	if hits != 1 || installs != 2 || tr.queryCount() != queries+2 {
		t.Errorf("hits=%d installs=%d queries=%d->%d: want the repeat served and the neighbor decided afresh",
			hits, installs, queries, tr.queryCount())
	}
}

// TestExactHitDoesNotEvaluate: without Config.Megaflow a cached verdict
// serves repeats of its flow exactly as a class hit does — no query, no
// policy evaluation, installs under the entry's class cookie, and an audit
// entry naming the rule the founding decision matched — and a flow-scoped
// update tears the entry and those installs down.
func TestExactHitDoesNotEvaluate(t *testing.T) {
	var evals atomic.Int64
	policy := pf.MustCompile("count", "block all\npass from any to any with counted(@src[name], skype)")
	policy.Register("counted", func(_ *pf.Ctx, args []pf.Value) (bool, error) {
		evals.Add(1)
		return len(args) == 2 && args[0].S == args[1].S, nil
	})
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "exact",
		Policy:           policy,
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
	})
	c.AddDatapath(dp1)

	five := megaFlow(hostA, 40000)
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("flows_allowed") != 1 || evals.Load() == 0 {
		t.Fatalf("founding decision: evals=%d; %s", evals.Load(), c.Counters)
	}
	queries, evalsBefore, mods := tr.queryCount(), evals.Load(), dp1.modCount()
	registered, _, _ := c.RevocationIndexStats()

	c.HandleEvent(sampleEvent(five, 1))
	if got := c.Counters.Get("megaflow_hits"); got != 1 {
		t.Fatalf("megaflow_hits = %d, want 1; %s", got, c.Counters)
	}
	if tr.queryCount() != queries || evals.Load() != evalsBefore {
		t.Errorf("hit queried or evaluated: queries %d->%d, evals %d->%d",
			queries, tr.queryCount(), evalsBefore, evals.Load())
	}
	if now, _, _ := c.RevocationIndexStats(); now != registered {
		t.Errorf("hit touched the revocation index: %d -> %d registrations", registered, now)
	}
	e := c.mega.exact(five)
	if e == nil {
		t.Fatal("no exact entry for the decided flow")
	}
	dp1.mu.Lock()
	hitMods := append([]openflow.FlowMod(nil), dp1.mods[mods:]...)
	dp1.mu.Unlock()
	classCookie := c.cookies.class(e.id)
	if len(hitMods) != 1 || hitMods[0].Cookie != classCookie || classCookie&1 != 0 {
		t.Errorf("hit installs = %+v, want one under the even class cookie %#x", hitMods, classCookie)
	}
	audit := c.Audit.Entries()
	if len(audit) != 2 || audit[1].Rule != audit[0].Rule || audit[1].Rule == "(default)" || audit[1].Action != pf.Pass {
		t.Errorf("audit = %+v, want the hit to name the founder's rule", audit)
	}

	// Revoking the flow retires the exact entry and reaches the hit's
	// installs through the class cookie; the next packet decides from
	// scratch.
	pushFlowUpdate(c, five)
	classDeleted := false
	for _, m := range dp1.deleteMods() {
		if m.Cookie == classCookie && m.Match == flow.MatchAll() {
			classDeleted = true
		}
	}
	if !classDeleted || cachedVerdicts(c) != 0 {
		t.Errorf("after the flow's revocation: class delete issued=%v cached=%d, want true/0", classDeleted, cachedVerdicts(c))
	}
	c.HandleEvent(sampleEvent(five, 1))
	if tr.queryCount() == queries || evals.Load() == evalsBefore {
		t.Error("post-revocation packet was served without a fresh query and evaluation")
	}
}

// TestMegaflowCookiesDisjointAcrossControllers: replicas program the same
// switch, and a class teardown is a cookie-scoped wildcard — with the
// founder's entries under the class cookie, two caches numbering their
// classes alike would have one replica's revocation delete the other's
// flows. Every cache counts its ids up from 1; the installer tag of each
// controller's name keeps the cookies apart.
func TestMegaflowCookiesDisjointAcrossControllers(t *testing.T) {
	sw := openflow.NewSwitch(1, "s1", 0)
	replica := func(name string) *Controller {
		c := New(Config{
			Name:             name,
			Policy:           pf.MustCompile("mega", megaPolicy),
			Transport:        skypeFacts(),
			Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
			ResponseCacheTTL: time.Hour,
		})
		c.AddDatapath(sw)
		return c
	}
	a, b := replica("a"), replica("b")
	fa, fb := megaFlow(hostA, 40000), megaFlow(hostA, 40001)
	for c, f := range map[*Controller]flow.Five{a: fa, b: fb} {
		c.HandleEvent(unbuffered(f))
	}
	if ca, cb := verdictCookie(a, fa), verdictCookie(b, fb); ca == cb || sw.Table.Len() != 2 {
		t.Fatalf("setup: cookies %#x / %#x, table = %d; want distinct cookies over two entries", ca, cb, sw.Table.Len())
	}
	a.HandleUpdate(hostB, wire.Update{Key: "name", Old: "skype", New: "", Serial: 1})
	left := sw.Table.Entries()
	if len(left) != 1 || left[0].Match != flow.FiveMatch(fb) {
		t.Errorf("after replica a's teardown the switch holds %d entries, want replica b's flow only", len(left))
	}
}

// unbuffered is f's packet-in with the whole frame in it, for a real switch
// that holds no buffer under the sample event's id.
func unbuffered(f flow.Five) openflow.PacketIn {
	ev := sampleEvent(f, 1)
	ev.BufferID = openflow.BufferNone
	return ev
}

// TestTakeoverSweepSparesLiveClassMembers: a takeover deletes by the
// departed controller's installer tag — its uncached flows' entries and its
// classes' members alike, whichever incarnation of the name installed them —
// and leaves this controller's own entries, a live class's members included,
// untouched.
func TestTakeoverSweepSparesLiveClassMembers(t *testing.T) {
	sw := openflow.NewSwitch(1, "s1", 0)
	controller := func(name string, megaflow bool) *Controller {
		cfg := Config{
			Name:      name,
			Policy:    pf.MustCompile("mega", megaPolicy),
			Transport: skypeFacts(),
			Topology:  &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		}
		if megaflow {
			cfg.ResponseCacheTTL, cfg.Megaflow = time.Hour, true
		}
		c := New(cfg)
		c.AddDatapath(sw)
		return c
	}
	c := controller("self", true)
	c.HandleEvent(unbuffered(megaFlow(hostA, 40000))) // founder
	c.HandleEvent(unbuffered(megaFlow(hostA, 40001))) // member: class cookie, no record of its own
	// The departed replica's two incarnations: a class with a member, and an
	// uncached flow.
	gone := controller("gone", true)
	gone.HandleEvent(unbuffered(megaFlow(hostA, 40002)))
	gone.HandleEvent(unbuffered(megaFlow(hostA, 40003)))
	controller("gone", false).HandleEvent(unbuffered(megaFlow(hostA, 40004)))
	if _, hits, _, _ := c.MegaflowStats(); hits != 1 || sw.Table.Len() != 5 {
		t.Fatalf("setup: hits=%d table=%d, want 1/5", hits, sw.Table.Len())
	}

	if n := c.TakeOver("gone"); n != 1 {
		t.Errorf("TakeOver issued %d deletes, want one per datapath", n)
	}
	own := verdictCookie(c, megaFlow(hostA, 40000))
	left := sw.Table.Entries()
	if len(left) != 2 {
		t.Errorf("after the takeover the switch holds %d entries, want this controller's two", len(left))
	}
	for _, e := range left {
		if e.Cookie != own {
			t.Errorf("entry %v with cookie %#x survived the takeover; want only the live class's %#x", e.Match.Tuple.Five(), e.Cookie, own)
		}
	}
}

// TestMegaflowUpdateRacingInstallVoidsDecision: a fact update arriving
// while the founder is mid-gather voids that attempt, so no class is ever
// published on the pre-update facts; the decision re-decides in place and
// founds the class on what the daemon says after the update.
func TestMegaflowUpdateRacingInstallVoidsDecision(t *testing.T) {
	inCompletionModes(t, testMegaflowUpdateRacingInstallVoidsDecision)
}

func testMegaflowUpdateRacingInstallVoidsDecision(t *testing.T, cm completionMode) {
	facts := skypeFacts()
	tr := newGatedTransport(facts)
	dp1 := &fakeDatapath{id: 1}
	cfg := Config{
		Name:             "mega-race",
		Policy:           pf.MustCompile("mega", megaPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
		Megaflow:         true,
	}
	settle := cm.config(&cfg)
	c := New(cfg)
	c.AddDatapath(dp1)

	five := megaFlow(hostA, 40000)
	finish := decideMidGather(c, tr, cm, settle, five)
	facts.set(hostB, "name", "")
	c.HandleUpdate(hostB, wire.Update{Flow: five, Key: "name", Old: "skype", New: "", Serial: 1})
	finish()

	checkCounters(t, c, map[string]int64{
		"revocations_inflight": 1, "revocations_redecided": 1, "flows_allowed": 0, "flows_denied": 1,
	})
	live, _, installs, _ := c.MegaflowStats()
	es := c.mega.covering(five, nil)
	if live != 1 || installs != 1 || len(es) != 1 || es[0].action != pf.Block {
		t.Errorf("live=%d installs=%d covering=%d: want one class, founded on the post-update deny", live, installs, len(es))
	}
	dp1.mu.Lock()
	for _, m := range dp1.mods {
		if !m.Delete && m.Actions[0].Type != openflow.ActionDrop {
			t.Errorf("installed %+v: a pass on the pre-update facts", m)
		}
	}
	dp1.mu.Unlock()
	checkOutcomes(t, c, 1)
}

// gatedInstallDatapath wedges non-delete Apply calls once armed, so a
// test can interleave a class teardown with a member hit that is mid-
// install. Deletes pass through: the teardown side must stay live.
type gatedInstallDatapath struct {
	*fakeDatapath
	armed   atomic.Bool
	blocked atomic.Bool
	gate    chan struct{}
}

func (d *gatedInstallDatapath) Apply(m openflow.FlowMod) error {
	if !m.Delete && d.armed.Load() {
		d.blocked.Store(true)
		<-d.gate
	}
	return d.fakeDatapath.Apply(m)
}

func (d *gatedInstallDatapath) waitBlocked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !d.blocked.Load() {
		if time.Now().After(deadline) {
			t.Fatal("datapath never blocked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMegaflowHitRacingTeardownSelfCleans exercises the dead-flag half of
// the teardown handshake: a member hit that is installing entries when
// the class is torn down finds addPaths refused and deletes its own
// installs, so no switch entry survives unaccounted.
func TestMegaflowHitRacingTeardownSelfCleans(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	dp1 := &gatedInstallDatapath{fakeDatapath: &fakeDatapath{id: 1}, gate: make(chan struct{})}
	c := New(Config{
		Name:             "mega-selfclean",
		Policy:           pf.MustCompile("mega", megaPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
		Megaflow:         true,
	})
	c.AddDatapath(dp1)

	c.HandleEvent(sampleEvent(megaFlow(hostA, 40000), 1)) // founder widens
	if live, _, _, _ := c.MegaflowStats(); live != 1 {
		t.Fatalf("setup: live = %d", live)
	}

	dp1.armed.Store(true)
	memberDone := make(chan struct{})
	go func() {
		c.HandleEvent(sampleEvent(megaFlow(hostA, 40001), 1)) // member hit
		close(memberDone)
	}()
	dp1.waitBlocked(t) // member is mid-install, paths not yet published

	// Tear the class down while the member's installs are in flight. The
	// teardown's path snapshot cannot include the member's datapath (it
	// has not called addPaths yet), so the member must clean up itself.
	c.HandleUpdate(hostB, wire.Update{Key: "name", Old: "skype", New: "", Serial: 1})
	if _, _, _, teardowns := c.MegaflowStats(); teardowns != 1 {
		t.Fatalf("teardowns = %d, want 1", teardowns)
	}

	close(dp1.gate)
	<-memberDone

	if got := c.Counters.Get("megaflow_hit_raced"); got != 1 {
		t.Fatalf("megaflow_hit_raced = %d, want 1", got)
	}
	found := false
	for _, m := range dp1.deleteMods() {
		if m.Cookie&1 == 0 && m.Match == flow.MatchAll() {
			found = true
		}
	}
	if !found {
		t.Error("raced member hit did not delete its own installs")
	}
}

// resident replays the mod log into the entries a switch would hold now,
// by match, with the cookie each carries.
func (d *fakeDatapath) resident() map[flow.Match]uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	live := make(map[flow.Match]uint64)
	for _, m := range d.mods {
		if !m.Delete {
			live[m.Match] = m.Cookie
			continue
		}
		for match, cookie := range live {
			if cookie&m.CookieMask == m.Cookie&m.CookieMask && (m.Match == match || m.Match.Covers(match.Tuple)) {
				delete(live, match)
			}
		}
	}
	return live
}

// TestMegaflowFounderRaceJoinsResident: two decisions that both missed the
// cache before either founded their class leave one entry and one record.
// The loser installs as a member of the winner's class — under its cookie,
// on its teardown set — so the class's teardown reaches both flows' entries
// and nothing is left installed under a cookie no record knows.
func TestMegaflowFounderRaceJoinsResident(t *testing.T) {
	inCompletionModes(t, testMegaflowFounderRaceJoinsResident)
}

func testMegaflowFounderRaceJoinsResident(t *testing.T, cm completionMode) {
	tr := newGatedTransport(skypeFacts())
	tr.arm()
	dp1 := &fakeDatapath{id: 1}
	cfg := Config{
		Name:             "mega-founders",
		Policy:           pf.MustCompile("mega", megaPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
		Megaflow:         true,
	}
	settle := cm.config(&cfg)
	c := New(cfg)
	c.AddDatapath(dp1)

	// Both flows probe the empty cache, then park in the transport: each
	// is past its lookup when the gate opens, so both found the class.
	flows := []flow.Five{megaFlow(hostA, 40000), megaFlow(hostA, 40001)}
	var wg sync.WaitGroup
	for _, f := range flows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.HandleEvent(sampleEvent(f, 1))
		}()
	}
	tr.waitQueries(cm.parked() * len(flows))
	tr.open()
	wg.Wait()
	settle()

	live, hits, installs, _ := c.MegaflowStats()
	if live != 1 || installs != 1 || hits != 0 {
		t.Fatalf("after the race: live=%d installs=%d hits=%d, want one class founded once by two misses", live, installs, hits)
	}
	if flowRecs, classRecs := liveRecords(c); flowRecs != 0 || classRecs != 1 {
		t.Fatalf("records = %d flow / %d class, want the resident class's only", flowRecs, classRecs)
	}
	entries := dp1.resident()
	if len(entries) != len(flows) {
		t.Fatalf("installed entries = %v, want one per flow", entries)
	}
	residentCookie := verdictCookie(c, flows[0])
	for match, cookie := range entries {
		if cookie != residentCookie {
			t.Errorf("entry %v carries cookie %#x, want the resident class's %#x", match, cookie, residentCookie)
		}
	}

	c.HandleUpdate(hostB, wire.Update{Key: "name", Old: "skype", New: "", Serial: 1})
	if left := dp1.resident(); len(left) != 0 {
		t.Errorf("entries left after the class's teardown: %v", left)
	}
	if flowRecs, classRecs := liveRecords(c); flowRecs != 0 || classRecs != 0 {
		t.Errorf("records after teardown = %d flow / %d class, want none", flowRecs, classRecs)
	}
}

// credTransport is a credential-enforcing transport whose credentials
// expire when the test says.
type credTransport struct {
	fakeTransport
	expiry map[netaddr.IP]time.Time
}

func (t *credTransport) QueryAsyncTraced(host netaddr.IP, q wire.Query, tb *trace.Buffer, ep uint16, done func(*wire.Response, time.Duration, error)) {
	plain{t}.QueryAsyncTraced(host, q, tb, ep, done)
}
func (t *credTransport) Standing(h netaddr.IP) Standing {
	return Standing{Authorized: true, Streaming: true, Expiry: t.expiry[h]}
}

// TestClassLeaseFollowsCredentialExpiry: a class record is leased no longer
// than the credential its facts were admitted under, exactly as a flow
// record is. The founder idling out takes nothing with it — the class
// answers for its other members — so the class's own lease is the only
// expiry backstop there is if the live lapse-resync is missed.
func TestClassLeaseFollowsCredentialExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }

	tr := &credTransport{
		fakeTransport: fakeTransport{responses: map[netaddr.IP]map[string]string{
			hostA: {"name": "skype"},
			hostB: {"name": "skype"},
		}},
		expiry: map[netaddr.IP]time.Time{hostB: now.Add(10 * time.Minute)},
	}
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "mega-cred",
		Policy:           pf.MustCompile("mega", megaPolicy),
		Transport:        tr,
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
		Megaflow:         true,
		Clock:            clock,
	})
	c.AddDatapath(dp1)

	founder, member := megaFlow(hostA, 40000), megaFlow(hostA, 40001)
	c.HandleEvent(sampleEvent(founder, 1))
	c.HandleEvent(sampleEvent(member, 1))
	if _, hits, _, _ := c.MegaflowStats(); hits != 1 {
		t.Fatalf("setup: member hits = %d, want 1", hits)
	}
	classCookie := verdictCookie(c, founder)

	// The founder's ingress entry idles out: the widened class stays.
	c.HandleFlowRemoved(openflow.FlowRemoved{
		SwitchID: 1, Match: flow.FiveMatch(founder), Cookie: classCookie,
		Reason: openflow.RemovedIdleTimeout,
	})
	if cachedVerdicts(c) != 1 {
		t.Fatalf("class did not survive its founder idling out: cached = %d", cachedVerdicts(c))
	}
	if n := c.SweepLeases(); n != 0 {
		t.Fatalf("SweepLeases tore down %d verdicts before the credential expired", n)
	}

	mu.Lock()
	now = now.Add(11 * time.Minute)
	mu.Unlock()
	if n := c.SweepLeases(); n != 1 {
		t.Fatalf("SweepLeases = %d past the credential's expiry, want the class torn down", n)
	}
	if flowRecs, classRecs := liveRecords(c); cachedVerdicts(c) != 0 || flowRecs != 0 || classRecs != 0 {
		t.Errorf("after the sweep: cached = %d, records = %d flow / %d class, want none", cachedVerdicts(c), flowRecs, classRecs)
	}
	if left := dp1.resident(); len(left) != 0 {
		t.Errorf("members' entries left after the class's lease expired: %v", left)
	}
	dels := dp1.deleteMods()
	if len(dels) != 1 || dels[0].Cookie != classCookie || dels[0].Match != flow.MatchAll() {
		t.Errorf("deletes = %+v, want the class's one wildcard", dels)
	}
}

// TestMegaflowRequiresCacheTTL: the megaflow layer leans on the response
// cache's TTL for its own expiry; enabling it without one is a config
// error caught at construction.
func TestMegaflowRequiresCacheTTL(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(Megaflow without ResponseCacheTTL) did not panic")
		}
	}()
	New(Config{
		Name:      "bad",
		Policy:    pf.MustCompile("p", "block all"),
		Transport: &fakeTransport{},
		Megaflow:  true,
	})
}
