package core

import (
	"errors"
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

// fakeTransport serves canned responses per host.
type fakeTransport struct {
	mu         sync.Mutex
	responses  map[netaddr.IP]map[string]string // host -> kv
	rtt        time.Duration
	queries    int
	keysByHost map[netaddr.IP][]string // copied: q.Keys is borrowed scratch
}

func (t *fakeTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.queries++
	if t.keysByHost == nil {
		t.keysByHost = make(map[netaddr.IP][]string)
	}
	t.keysByHost[host] = append([]string(nil), q.Keys...)
	kv, ok := t.responses[host]
	if !ok {
		return nil, t.rtt, ErrNoDaemon
	}
	r := wire.NewResponse(q.Flow)
	for k, v := range kv {
		r.Add(k, v)
	}
	return r, t.rtt, nil
}

// fakeTopo returns a fixed two-hop path for every flow.
type fakeTopo struct {
	hops []Hop
	err  error
}

func (t *fakeTopo) Path(src, dst netaddr.IP) ([]Hop, error) { return t.hops, t.err }

// applySeq numbers every Apply on any fakeDatapath, so a test can compare
// the order in which mods reached different datapaths.
var applySeq atomic.Int64

// fakeDatapath records applied mods.
type fakeDatapath struct {
	id        uint64
	mu        sync.Mutex
	mods      []openflow.FlowMod
	seqs      []int64 // applySeq at each Apply, parallel to mods
	released  []uint32
	outs      []uint16
	outFrames [][]byte
}

func (d *fakeDatapath) DatapathID() uint64 { return d.id }
func (d *fakeDatapath) Apply(m openflow.FlowMod) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mods = append(d.mods, m)
	d.seqs = append(d.seqs, applySeq.Add(1))
	return nil
}
func (d *fakeDatapath) PacketOut(port uint16, frame []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.outs = append(d.outs, port)
	d.outFrames = append(d.outFrames, frame)
}
func (d *fakeDatapath) ReleaseBuffer(id uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.released = append(d.released, id)
}
func (d *fakeDatapath) modCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.mods)
}

var (
	hostA = netaddr.MustParseIP("10.0.0.1")
	hostB = netaddr.MustParseIP("10.0.0.2")
)

func sampleEvent(five flow.Five, swID uint64) openflow.PacketIn {
	return openflow.PacketIn{
		SwitchID: swID,
		BufferID: 7,
		InPort:   1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   five.SrcIP, DstIP: five.DstIP, Proto: five.Proto,
			SrcPort: five.SrcPort, DstPort: five.DstPort,
		},
	}
}

// cachedVerdicts is the verdict cache's live (current-epoch, unexpired)
// entry count.
func cachedVerdicts(c *Controller) int {
	live, _, _, _ := c.MegaflowStats()
	return live
}

func newTestController(policySrc string, tr QueryTransport, topo Topology) (*Controller, *fakeDatapath, *fakeDatapath) {
	dp1 := &fakeDatapath{id: 1}
	dp2 := &fakeDatapath{id: 2}
	c := New(Config{
		Name:           "ctl",
		Policy:         pf.MustCompile("policy", policySrc),
		Transport:      tr,
		Topology:       topo,
		InstallEntries: true,
	})
	c.AddDatapath(dp1)
	c.AddDatapath(dp2)
	return c, dp1, dp2
}

func TestPassInstallsAlongPathAndReleasesBuffer(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}}
	c, dp1, dp2 := newTestController(`
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`, tr, topo)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))

	if dp1.modCount() != 1 || dp2.modCount() != 1 {
		t.Fatalf("mods: dp1=%d dp2=%d, want 1 each (preemptive path install)", dp1.modCount(), dp2.modCount())
	}
	// Ingress switch's mod carries the buffer id so the packet proceeds.
	if dp1.mods[0].BufferID != 7 {
		t.Errorf("ingress mod buffer = %d, want 7", dp1.mods[0].BufferID)
	}
	if dp2.mods[0].BufferID != openflow.BufferNone {
		t.Errorf("downstream mod must not reference the buffer")
	}
	if dp1.mods[0].Actions[0] != (openflow.Action{Type: openflow.ActionOutput, Port: 2}) {
		t.Errorf("ingress action = %+v", dp1.mods[0].Actions)
	}
	if dp2.mods[0].Actions[0].Port != 3 {
		t.Errorf("downstream action = %+v", dp2.mods[0].Actions)
	}
	if c.Counters.Get("flows_allowed") != 1 {
		t.Error("allow counter not bumped")
	}
	if c.Audit.Total() != 1 {
		t.Error("no audit entry")
	}
}

func TestBlockInstallsDropAndReleases(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "dropbox"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, _ := newTestController(`
block all
pass from any to any with eq(@src[name], skype)
`, tr, topo)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))

	if len(dp1.released) != 1 || dp1.released[0] != 7 {
		t.Error("buffered packet of denied flow must be released (dropped)")
	}
	if dp1.modCount() != 1 || dp1.mods[0].Actions[0].Type != openflow.ActionDrop {
		t.Fatalf("expected one drop entry, got %+v", dp1.mods)
	}
	if c.Counters.Get("flows_denied") != 1 {
		t.Error("deny counter not bumped")
	}
}

func TestKeepStateInstallsReversePath(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "firefox"}, hostB: {"name": "httpd"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, _ := newTestController(`
block all
pass from any to any keep state
`, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))
	if dp1.modCount() != 2 {
		t.Fatalf("mods = %d, want forward + reverse", dp1.modCount())
	}
	fwd := dp1.mods[0].Match.Tuple
	rev := dp1.mods[1].Match.Tuple
	if fwd.SrcIP != five.SrcIP || rev.SrcIP != five.DstIP || rev.DstPort != five.SrcPort {
		t.Errorf("reverse entry wrong: fwd=%v rev=%v", fwd, rev)
	}
}

func TestNoDaemonFailsClosedUnderDefaultDeny(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{}} // nobody answers
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, _ := newTestController(`
block all
pass from any to any with eq(@src[name], skype)
`, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("flows_denied") != 1 {
		t.Error("flow without responses should be denied by block all")
	}
	if c.Counters.Get("query_errors") != 2 {
		t.Errorf("query_errors = %d, want 2", c.Counters.Get("query_errors"))
	}
	if dp1.mods[0].Actions[0].Type != openflow.ActionDrop {
		t.Error("expected drop entry")
	}
}

func TestAnswerOnBehalf(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "backup-agent"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`
block all
pass from any to any with eq(@dst[type], printer)
`, tr, topo)
	// hostB is a printer with no daemon; the administrator registers its
	// identity with the controller (§4 incremental benefit).
	c.AnswerForHost(hostB, wire.KV{Key: wire.KeyType, Value: "printer"})
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 631}
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("flows_allowed") != 1 {
		t.Errorf("printer flow should pass via answer-on-behalf; counters: %s", c.Counters)
	}
	if c.Counters.Get("answered_on_behalf") != 1 {
		t.Error("answered_on_behalf not counted")
	}
}

func TestQueryKeysDerivedFromPolicy(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{hostA: {"name": "x"}}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`
block all
pass from any to any with eq(@src[name], skype) with lt(@src[version], 200) with includes(@dst[os-patch], MS08-067)
`, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	c.HandleEvent(sampleEvent(five, 1))
	tr.mu.Lock()
	srcKeys := tr.keysByHost[hostA]
	dstKeys := tr.keysByHost[hostB]
	tr.mu.Unlock()
	// Hints are per end since the compiler's key analysis: each daemon is
	// asked only for the keys a rule could read from its side of the flow.
	wantEq := func(got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("keys = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("keys = %v, want %v", got, want)
			}
		}
	}
	wantEq(srcKeys, []string{"name", "version"})
	wantEq(dstKeys, []string{"os-patch"})
}

// TestQueryKeysDifferPerFlow: the per-rule key sets narrow hints to the
// rules a given flow could still match — two flows under one policy ask
// for different keys.
func TestQueryKeysDifferPerFlow(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{hostA: {"name": "x"}}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`
block all
pass from any to any port 80 with eq(@src[name], web)
pass from any to any port 22 with eq(@src[userID], root)
`, tr, topo)
	web := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 80}
	c.HandleEvent(sampleEvent(web, 1))
	tr.mu.Lock()
	got := append([]string(nil), tr.keysByHost[hostA]...)
	tr.mu.Unlock()
	if len(got) != 1 || got[0] != "name" {
		t.Errorf("port-80 flow src hints = %v, want [name]", got)
	}
	ssh := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 22}
	c.HandleEvent(sampleEvent(ssh, 1))
	tr.mu.Lock()
	got = append([]string(nil), tr.keysByHost[hostA]...)
	tr.mu.Unlock()
	if len(got) != 1 || got[0] != "userID" {
		t.Errorf("port-22 flow src hints = %v, want [userID]", got)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	block := make(chan struct{})
	slow := &slowTransport{unblock: block}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	// The rule must read an endpoint key: a pure header rule would be
	// decided by the pre-pass without ever touching the (slow) transport.
	c, dp1, _ := newTestController(`pass from any to any with eq(@src[name], skype)`, slow, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.HandleEvent(sampleEvent(five, 1)) // slow first packet
	}()
	slow.waitUntilQuerying()
	// Second packet of the same flow arrives while the first is deciding.
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("duplicate_packet_ins") != 1 {
		t.Error("duplicate packet-in not suppressed")
	}
	close(block)
	wg.Wait()
	if dp1.modCount() != 1 {
		t.Errorf("mods = %d, want 1", dp1.modCount())
	}
}

type slowTransport struct {
	unblock  chan struct{}
	mu       sync.Mutex
	querying chan struct{}
	once     sync.Once
}

func (s *slowTransport) waitUntilQuerying() {
	s.mu.Lock()
	if s.querying == nil {
		s.querying = make(chan struct{})
	}
	ch := s.querying
	s.mu.Unlock()
	<-ch
}

func (s *slowTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	s.mu.Lock()
	if s.querying == nil {
		s.querying = make(chan struct{})
	}
	ch := s.querying
	s.mu.Unlock()
	s.once.Do(func() { close(ch) })
	<-s.unblock
	return wire.NewResponse(q.Flow), 0, nil
}

func TestResponseCache(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"}, hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp := &fakeDatapath{id: 1}
	c := New(Config{
		Name: "ctl", Policy: pf.MustCompile("p", `pass from any to any with eq(@src[name], skype)`),
		Transport: tr, Topology: topo, InstallEntries: true,
		ResponseCacheTTL: time.Minute,
	})
	c.AddDatapath(dp)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	c.HandleEvent(sampleEvent(five, 1))
	c.HandleEvent(sampleEvent(five, 1))
	if tr.queries != 2 {
		t.Errorf("queries = %d, want 2 (second event served from cache)", tr.queries)
	}
	if c.Counters.Get("megaflow_hits") != 1 {
		t.Error("cache hit not counted")
	}
}

func TestSetPolicyFlushesAndRevokes(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"}, hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, _ := newTestController(`pass from any to any`, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	c.HandleEvent(sampleEvent(five, 1))
	c.SetPolicy(pf.MustCompile("p2", `block all`))
	// The flush is a delete-all FlowMod.
	dp1.mu.Lock()
	last := dp1.mods[len(dp1.mods)-1]
	dp1.mu.Unlock()
	if !last.Delete {
		t.Error("SetPolicy should flush switch tables")
	}
	// New flows evaluate under the new policy.
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("flows_denied") != 1 {
		t.Error("new policy not applied")
	}
}

func TestRevokeFlow(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{hostA: {"name": "x"}, hostB: {"name": "x"}}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, dp2 := newTestController(`pass from any to any`, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	c.HandleEvent(sampleEvent(five, 1))
	c.RevokeFlow(five)
	for _, dp := range []*fakeDatapath{dp1, dp2} {
		dp.mu.Lock()
		last := dp.mods[len(dp.mods)-1]
		dp.mu.Unlock()
		if !last.Delete || last.Cookie != c.cookies.flow(five) || last.CookieMask != ^uint64(0) {
			t.Errorf("dp%d: revoke mod = %+v", dp.id, last)
		}
	}
}

func TestNonIPDropped(t *testing.T) {
	tr := &fakeTransport{}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, _ := newTestController(`pass from any to any`, tr, topo)
	ev := openflow.PacketIn{SwitchID: 1, BufferID: 3, Tuple: flow.Ten{EthType: flow.EthTypeARP}}
	c.HandleEvent(ev)
	if len(dp1.released) != 1 {
		t.Error("non-IP buffer not released")
	}
	if c.Counters.Get("non_ip_dropped") != 1 {
		t.Error("non-IP counter not bumped")
	}
}

func TestInstallEntriesAblation(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{hostA: {"name": "x"}, hostB: {"name": "x"}}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp := &fakeDatapath{id: 1}
	c := New(Config{
		Name: "ctl", Policy: pf.MustCompile("p", `pass from any to any`),
		Transport: tr, Topology: topo, InstallEntries: false,
	})
	c.AddDatapath(dp)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	ev := sampleEvent(five, 1)
	ev.Frame = []byte{1} // non-empty so the controller can packet-out
	c.HandleEvent(ev)
	if dp.modCount() != 0 {
		t.Error("ablation mode must not install entries")
	}
	if len(dp.outs) != 1 || dp.outs[0] != 2 {
		t.Errorf("packet should still be forwarded once: %v", dp.outs)
	}
}

func TestAuditEntriesAndDenials(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{hostA: {"name": "dropbox"}}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`
block all
pass from any to any with eq(@src[name], skype)
`, tr, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	c.HandleEvent(sampleEvent(five, 1))
	entries := c.Audit.Entries()
	if len(entries) != 1 {
		t.Fatalf("audit entries = %d", len(entries))
	}
	if entries[0].Action != pf.Block || entries[0].Flow != five {
		t.Errorf("audit entry = %+v", entries[0])
	}
	if len(c.Audit.Denials()) != 1 {
		t.Error("denials not found")
	}
	if entries[0].String() == "" {
		t.Error("empty audit string")
	}
}

// TestEvalDiagsCountsEvaluations: eval_diags counts evaluations that emitted
// a diagnostic, not the diagnostics — one with two adds 1 — and a key the
// daemon did not supply is a false predicate, not a diagnostic.
func TestEvalDiagsCountsEvaluations(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{hostA: {"name": "skype"}, hostB: {}}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`
block all
pass from any to any port 1 with frob(@src[name])
pass from any to any port 1 with eq(@src[name])
pass from any to any port 2 with eq(@dst[name], skype)
`, tr, topo)

	diagnosed := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 1}
	c.HandleEvent(sampleEvent(diagnosed, 1))
	if n := len(c.Audit.Entries()[0].Diags); n != 2 {
		t.Fatalf("the evaluation emitted %d diagnostics, want 2", n)
	}
	if got := c.Counters.Get("eval_diags"); got != 1 {
		t.Errorf("eval_diags = %d after one evaluation with two diagnostics, want 1", got)
	}

	missingKey := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 2}
	c.HandleEvent(sampleEvent(missingKey, 1))
	if got := c.Counters.Get("eval_diags"); got != 1 {
		t.Errorf("eval_diags = %d after a missing-key evaluation, want still 1", got)
	}
	if c.Counters.Get("flows_denied") != 2 {
		t.Errorf("flows_denied = %d, want 2", c.Counters.Get("flows_denied"))
	}
}

func TestInterceptChainAnswersAndAugments(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	cA, _, _ := newTestController(`pass from any to any`, tr, topo)
	cB, _, _ := newTestController(`pass from any to any`, tr, topo)
	cB.SetAugmenter(func(q wire.Query, resp *wire.Response) {
		resp.Augment("controller:B").Add("netpath", "branchB")
	})

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}
	q := wire.Query{Flow: five}

	// Augmentation: the authoritative answer passes through B.
	resp := InterceptChain{Outbound: []Interceptor{cB}}.Exchange(hostB, q, func() *wire.Response {
		r := wire.NewResponse(five)
		r.Add("name", "httpd")
		return r
	})
	if v, _ := resp.Latest("netpath"); v != "branchB" {
		t.Errorf("augmented netpath = %q", v)
	}
	if len(resp.Sections) != 2 {
		t.Errorf("sections = %d, want 2", len(resp.Sections))
	}

	// Interception: A answers on behalf of the host; the chain stops.
	cA.AnswerForHost(hostB, wire.KV{Key: "type", Value: "printer"})
	called := false
	resp2 := InterceptChain{Outbound: []Interceptor{cA, cB}}.Exchange(hostB, q, func() *wire.Response {
		called = true
		return nil
	})
	if called {
		t.Error("intercepted query must not reach the daemon")
	}
	if v, _ := resp2.Latest("type"); v != "printer" {
		t.Errorf("intercepted answer = %q", v)
	}
}

func TestConcurrentHandleEvent(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{hostA: {"name": "x"}, hostB: {"name": "x"}}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`pass from any to any`, tr, topo)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
				SrcPort: netaddr.Port(1000 + i), DstPort: 80}
			c.HandleEvent(sampleEvent(five, 1))
		}(i)
	}
	wg.Wait()
	if got := c.Counters.Get("flows_allowed"); got != 16 {
		t.Errorf("flows_allowed = %d, want 16", got)
	}
	if c.Audit.Total() != 16 {
		t.Errorf("audit total = %d", c.Audit.Total())
	}
}

func BenchmarkHandleEventCachedPolicy(b *testing.B) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype", "version": "210"},
		hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`, tr, topo)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
			SrcPort: netaddr.Port(i), DstPort: 80}
		c.HandleEvent(sampleEvent(five, 1))
	}
}

// deadDatapath is a handle whose connection is gone: every install fails.
type deadDatapath struct{ fakeDatapath }

func (d *deadDatapath) Apply(openflow.FlowMod) error { return errors.New("channel closed") }

// TestRemoveDatapathIsGuardedByIdentity covers both orders a disconnect and
// a reconnect can arrive in. Disconnect first: the handle goes, installs to
// it stop being attempted (no install_errors), and the reconnect registers
// afresh. Reconnect first: the new handle already replaced the old one, and
// the old connection's late disconnect removes nothing.
func TestRemoveDatapathIsGuardedByIdentity(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}}
	c, _, dp2 := newTestController(`
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`, tr, topo)
	five := func(port netaddr.Port) flow.Five {
		return flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: port, DstPort: 200}
	}

	// Switch 2's connection dies; until the disconnect is handled every
	// install along a path through it is an error.
	dead := &deadDatapath{fakeDatapath{id: 2}}
	c.AddDatapath(dead)
	c.HandleEvent(sampleEvent(five(100), 1))
	if n := c.Counters.Get("install_errors"); n != 1 {
		t.Fatalf("install_errors = %d with a dead handle registered, want 1", n)
	}
	if n := c.Counters.Get("entries_installed"); n != 1 {
		t.Fatalf("entries_installed = %d with hop 2's install failing, want 1 (hop 1 only)", n)
	}

	// Disconnect, then reconnect.
	if c.RemoveDatapath(dp2) {
		t.Fatal("removed by a handle that was already replaced")
	}
	if !c.RemoveDatapath(dead) || c.DatapathCount() != 1 {
		t.Fatalf("dead handle not removed (datapaths = %d)", c.DatapathCount())
	}
	c.HandleEvent(sampleEvent(five(101), 1))
	if n := c.Counters.Get("install_errors"); n != 1 {
		t.Fatalf("install_errors = %d after the dead handle was removed, want 1 still", n)
	}
	fresh := &fakeDatapath{id: 2}
	c.AddDatapath(fresh)
	c.HandleEvent(sampleEvent(five(102), 1))
	if fresh.modCount() != 1 {
		t.Fatalf("reconnected switch got %d installs, want 1", fresh.modCount())
	}

	// Reconnect, then the old connection's disconnect.
	fresher := &fakeDatapath{id: 2}
	c.AddDatapath(fresher)
	if c.RemoveDatapath(fresh) {
		t.Fatal("the old connection's late disconnect removed the new handle")
	}
	c.HandleEvent(sampleEvent(five(103), 1))
	if fresher.modCount() != 1 || c.DatapathCount() != 2 {
		t.Fatalf("new handle lost: %d installs, %d datapaths", fresher.modCount(), c.DatapathCount())
	}
}
