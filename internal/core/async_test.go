package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// fakeAsyncTransport is fakeTransport whose completions are held until the
// gate closes, each on a goroutine of its own, so tests can observe a
// suspended decision.
type fakeAsyncTransport struct {
	fakeTransport
	gate chan struct{}
}

func (t *fakeAsyncTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	gate := t.gate
	go func() {
		<-gate
		done(t.Query(host, q))
	}()
}

// completionModes are the two places a miss's completions run. inline: on
// HandleEvent's goroutine before it returns — a transport answering from a
// local table (the baselines), or the query plane's fast-path rejections.
// deferred: each on a goroutine of its own after the enqueue returned, as the
// query plane's connection readers deliver them — what identctl, the
// simulator and the experiments run. It is one code path (srcDone/dstDone,
// then finishDecision), so a handshake test makes the same assertions in
// both. The zero mode is inline.
var completionModes = []completionMode{{name: "inline"}, {name: "deferred", deferred: true}}

type completionMode struct {
	name     string
	deferred bool
}

// inCompletionModes runs test once per completion mode.
func inCompletionModes(t *testing.T, test func(t *testing.T, cm completionMode)) {
	for _, cm := range completionModes {
		t.Run(cm.name, func(t *testing.T) { test(t, cm) })
	}
}

// parked is how many of one decision's queries sit in a gated transport at
// once: an inline transport is asked for one end, then the other.
func (m completionMode) parked() int {
	if m.deferred {
		return 2
	}
	return 1
}

// config sets cfg's transport up for the mode and returns settle, which
// returns once every completion issued so far has run: a no-op inline.
func (m completionMode) config(cfg *Config) (settle func()) {
	if !m.deferred {
		return func() {}
	}
	d := &deferredTransport{QueryTransport: cfg.Transport}
	cfg.Transport = d
	return d.wg.Wait
}

// deferredTransport completes every query on a goroutine of its own.
type deferredTransport struct {
	QueryTransport
	wg sync.WaitGroup
}

func (d *deferredTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.QueryTransport.QueryAsync(host, q, done)
	}()
}

// endQueries wraps a transport and checks the invariant the query plane
// rests on: the controller asks each end of a flow once per decision, and
// never has two queries for one (host, flow) outstanding — a flow's
// duplicate packet-ins park on its decision (shard.begin), so nothing below
// the controller deduplicates. A query is outstanding from the call until
// its completion is about to run.
type endQueries struct {
	QueryTransport
	mu       sync.Mutex
	open     map[hostFlow]int
	sent     map[netaddr.IP]int
	overlaps int // queries issued while one for the same (host, flow) was outstanding
}

type hostFlow struct {
	host netaddr.IP
	five flow.Five
}

func countEndQueries(tr QueryTransport) *endQueries {
	return &endQueries{QueryTransport: tr, open: make(map[hostFlow]int), sent: make(map[netaddr.IP]int)}
}

func (e *endQueries) issue(host netaddr.IP, five flow.Five) {
	e.mu.Lock()
	defer e.mu.Unlock()
	k := hostFlow{host, five}
	if e.open[k] > 0 {
		e.overlaps++
	}
	e.open[k]++
	e.sent[host]++
}

func (e *endQueries) complete(host netaddr.IP, five flow.Five) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.open[hostFlow{host, five}]--
}

func (e *endQueries) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	five := q.Flow
	e.issue(host, five)
	e.QueryTransport.QueryAsync(host, q, func(resp *wire.Response, rtt time.Duration, err error) {
		e.complete(host, five)
		done(resp, rtt, err)
	})
}

// outstanding returns how many queries for (host, five) have not completed.
func (e *endQueries) outstanding(host netaddr.IP, five flow.Five) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.open[hostFlow{host, five}]
}

// check fails t unless each of the two ends was asked exactly decisions
// times with no query overlapping another for its (host, flow).
func (e *endQueries) check(t *testing.T, src, dst netaddr.IP, decisions int64) {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.overlaps != 0 {
		t.Errorf("%d queries issued while one for the same (host, flow) was outstanding, want 0", e.overlaps)
	}
	if int64(e.sent[src]) != decisions || int64(e.sent[dst]) != decisions {
		t.Errorf("queries: src %d, dst %d; want %d each (one per end per decision)", e.sent[src], e.sent[dst], decisions)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

const asyncPolicy = `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`

func newAsyncController(tr QueryTransport, topo Topology) (*Controller, *fakeDatapath) {
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:      "async",
		Policy:    pf.MustCompile("policy", asyncPolicy),
		Transport: tr,
		Topology:  topo,
	})
	c.AddDatapath(dp1)
	return c, dp1
}

// TestAsyncDecisionSuspendsAndFinishes: with completions gated, HandleEvent
// returns with no verdict rendered — the decision is parked on the query
// plane, not on a goroutine — and the verdict lands (entries installed,
// buffer released) once both completions deliver.
func TestAsyncDecisionSuspendsAndFinishes(t *testing.T) {
	tr := &fakeAsyncTransport{
		fakeTransport: fakeTransport{responses: map[netaddr.IP]map[string]string{
			hostA: {"name": "skype"},
			hostB: {"name": "skype"},
		}},
		gate: make(chan struct{}),
	}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1 := newAsyncController(tr, topo)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 100, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))

	if got := c.Counters.Get("flows_allowed") + c.Counters.Get("flows_denied"); got != 0 {
		t.Fatalf("verdict rendered before completions delivered (decided=%d)", got)
	}
	if dp1.modCount() != 0 {
		t.Fatal("entries installed before the decision finished")
	}

	close(tr.gate)
	waitFor(t, "async verdict", func() bool { return c.Counters.Get("flows_allowed") == 1 })
	waitFor(t, "install", func() bool { return dp1.modCount() == 1 })
}

// TestAsyncDuplicatesParkAndResolve: packet-ins arriving while the decision
// is suspended park on the shard waiter list and are resolved by the
// completion-side finish, exactly as under inline completion. They ask
// nobody: the transport sees one query per end for the one decision, never
// two outstanding for one (host, flow) — the query plane below keeps no
// deduplication of its own.
func TestAsyncDuplicatesParkAndResolve(t *testing.T) {
	tr := &fakeAsyncTransport{
		fakeTransport: fakeTransport{responses: map[netaddr.IP]map[string]string{
			hostA: {"name": "skype"},
			hostB: {"name": "skype"},
		}},
		gate: make(chan struct{}),
	}
	eq := countEndQueries(tr)
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1 := newAsyncController(eq, topo)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 101, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))
	for i := 0; i < 3; i++ {
		c.HandleEvent(sampleEvent(five, 1)) // duplicates of the suspended flow
	}
	for _, host := range []netaddr.IP{hostA, hostB} {
		if got := eq.outstanding(host, five); got != 1 {
			t.Errorf("queries outstanding to %s for the flow = %d, want 1", host, got)
		}
	}
	if got := c.Counters.Get("duplicate_packet_ins"); got != 3 {
		t.Fatalf("duplicate_packet_ins = %d, want 3", got)
	}
	if got := len(dp1.released); got != 0 {
		t.Fatalf("%d buffers released while suspended, want 0 (parked)", got)
	}

	close(tr.gate)
	waitFor(t, "waiters resolved", func() bool { return c.Counters.Get("waiters_resolved") == 3 })
	waitFor(t, "buffers released", func() bool {
		dp1.mu.Lock()
		defer dp1.mu.Unlock()
		// The owner's buffer rides the ingress flow-mod's BufferID; the
		// three parked duplicates are released explicitly.
		return len(dp1.released) == 3
	})
	eq.check(t, hostA, hostB, 1)
}

// TestAsyncInlineCompletion: a transport that completes inline (negative
// cache, breaker fast-fail) finishes the decision before HandleEvent
// returns — no goroutine handoff, no deadlock on the pending counter.
func TestAsyncInlineCompletion(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1 := newAsyncController(tr, topo)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 102, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("flows_allowed") != 1 {
		t.Fatal("inline completion did not finish the decision synchronously")
	}
	if dp1.modCount() != 1 {
		t.Fatal("no entry installed")
	}
}

// TestAsyncCacheHitStaysSynchronous: with a warm verdict cache the async
// pipeline is never entered — the hit path decides on the packet-in
// goroutine, preserving the allocation budget's fast path.
func TestAsyncCacheHitStaysSynchronous(t *testing.T) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "async",
		Policy:           pf.MustCompile("policy", asyncPolicy),
		Transport:        tr,
		Topology:         topo,
		ResponseCacheTTL: time.Hour,
	})
	c.AddDatapath(dp1)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 103, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1)) // warm the cache
	queriesAfterWarm := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.queries
	}()

	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("megaflow_hits") != 1 {
		t.Fatal("second packet-in missed the verdict cache")
	}
	if got := func() int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return tr.queries
	}(); got != queriesAfterWarm {
		t.Errorf("cache hit still queried the transport (%d -> %d)", queriesAfterWarm, got)
	}
	if c.Counters.Get("flows_allowed") != 2 {
		t.Fatalf("flows_allowed = %d, want 2", c.Counters.Get("flows_allowed"))
	}
}

// timeoutTransport fails every query with a timeout-classified error, the
// shape of a daemon'd host that is slow or unreachable mid-connection.
type timeoutTransport struct{}

type fakeTimeoutErr struct{}

func (fakeTimeoutErr) Error() string { return "fake: i/o timeout" }
func (fakeTimeoutErr) Timeout() bool { return true }

func (timeoutTransport) QueryAsync(_ netaddr.IP, _ wire.Query, done func(*wire.Response, time.Duration, error)) {
	done(nil, 50*time.Millisecond, fakeTimeoutErr{})
}

// TestTimeoutDoesNotImpersonateHost pins the classification fix: a timeout
// against a host the controller has answer-on-behalf data for must NOT be
// answered on the host's behalf — §3.4 impersonation applies only to
// daemon-less hosts, and a timed-out daemon'd host falls through to the
// policy's no-info verdict, counted as query_timeouts.
func TestTimeoutDoesNotImpersonateHost(t *testing.T) {
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, _ := newTestController(`
block all
pass from any to any with eq(@dst[type], printer)
`, timeoutTransport{}, topo)
	c.AnswerForHost(hostB, wire.KV{Key: wire.KeyType, Value: "printer"})

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 631}
	c.HandleEvent(sampleEvent(five, 1))

	if got := c.Counters.Get("answered_on_behalf"); got != 0 {
		t.Errorf("answered_on_behalf = %d on a timeout; impersonated a live host", got)
	}
	if got := c.Counters.Get("query_timeouts"); got != 2 {
		t.Errorf("query_timeouts = %d, want 2 (both ends timed out)", got)
	}
	if got := c.Counters.Get("query_errors"); got != 0 {
		t.Errorf("query_errors = %d, want 0 (timeouts counted separately)", got)
	}
	if c.Counters.Get("flows_denied") != 1 {
		t.Error("timed-out queries must yield the policy's no-info verdict (deny here)")
	}
	if dp1.mods[0].Actions[0].Type != openflow.ActionDrop {
		t.Error("expected drop entry")
	}
}

// flakyTransport times out its first round of queries, then serves real
// responses — a daemon recovering from a brief stall.
type flakyTransport struct {
	mu       sync.Mutex
	failures int // queries to fail before recovering
	good     map[netaddr.IP]map[string]string
}

func (t *flakyTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	t.mu.Lock()
	if t.failures > 0 {
		t.failures--
		t.mu.Unlock()
		return nil, 0, fakeTimeoutErr{}
	}
	kv := t.good[host]
	t.mu.Unlock()
	if kv == nil {
		return nil, 0, ErrNoDaemon
	}
	r := wire.NewResponse(q.Flow)
	for k, v := range kv {
		r.Add(k, v)
	}
	return r, 0, nil
}

func (t *flakyTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	done(t.Query(host, q))
}

// TestTransientFailureNotCached: a verdict shaped by a transport timeout
// must not be pinned in the verdict cache for the TTL — once the daemon
// answers again, the very next packet of the flow gets the real verdict.
func TestTransientFailureNotCached(t *testing.T) {
	tr := &flakyTransport{
		failures: 2, // both ends of the first decision time out
		good: map[netaddr.IP]map[string]string{
			hostA: {"name": "skype"},
			hostB: {"name": "skype"},
		},
	}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp1 := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "flaky",
		Policy:           pf.MustCompile("policy", asyncPolicy),
		Transport:        tr,
		Topology:         topo,
		ResponseCacheTTL: time.Hour,
	})
	c.AddDatapath(dp1)

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 105, DstPort: 200}
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("flows_denied") != 1 {
		t.Fatal("timed-out decision should deny under block all")
	}

	// The daemons are back; the flow's next packet must re-query and pass
	// instead of hitting a cached no-info verdict.
	c.HandleEvent(sampleEvent(five, 1))
	if got := c.Counters.Get("megaflow_hits"); got != 0 {
		t.Errorf("megaflow_hits = %d; transient-failure decision was cached", got)
	}
	if c.Counters.Get("flows_allowed") != 1 {
		t.Errorf("recovered daemon's verdict not applied; counters: %s", c.Counters)
	}

	// The healthy decision IS cached: a third packet hits.
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("megaflow_hits") != 1 {
		t.Error("healthy decision was not cached")
	}
}

// markerNoDaemonErr carries the NoDaemon marker without wrapping
// core.ErrNoDaemon — the baselines' shape.
type markerNoDaemonErr struct{}

func (markerNoDaemonErr) Error() string  { return "marker: no daemon" }
func (markerNoDaemonErr) NoDaemon() bool { return true }

type markerTransport struct{}

func (markerTransport) QueryAsync(_ netaddr.IP, _ wire.Query, done func(*wire.Response, time.Duration, error)) {
	done(nil, 0, markerNoDaemonErr{})
}

// TestNoDaemonMarkerAllowsAnswerOnBehalf: transports outside core (the
// baselines) mark daemon-lessness via the NoDaemon() method; the
// controller's answer-on-behalf path must honor the marker exactly like
// ErrNoDaemon.
func TestNoDaemonMarkerAllowsAnswerOnBehalf(t *testing.T) {
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, _, _ := newTestController(`
block all
pass from any to any with eq(@dst[type], printer)
`, markerTransport{}, topo)
	c.AnswerForHost(hostB, wire.KV{Key: wire.KeyType, Value: "printer"})

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 2, DstPort: 631}
	c.HandleEvent(sampleEvent(five, 1))
	if c.Counters.Get("answered_on_behalf") != 1 {
		t.Error("NoDaemon-marked error did not take the answer-on-behalf path")
	}
	if c.Counters.Get("flows_allowed") != 1 {
		t.Error("printer flow should pass via answer-on-behalf")
	}
}

// TestIsNoDaemonClassification covers the classifier directly.
func TestIsNoDaemonClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrNoDaemon, true},
		{errors.New("wrapped: " + ErrNoDaemon.Error()), false}, // string match is not classification
		{markerNoDaemonErr{}, true},
		{fakeTimeoutErr{}, false},
	}
	for i, tc := range cases {
		if got := IsNoDaemon(tc.err); got != tc.want {
			t.Errorf("case %d (%v): IsNoDaemon = %v, want %v", i, tc.err, got, tc.want)
		}
	}
}

// TestInstallPathOrderAndCoverage: a pass verdict across a many-switch path
// is installed on every datapath, forward then reverse under keep state,
// and the ingress hop's forward mod — the one that releases the buffered
// first packet — is applied after every downstream hop's.
func TestInstallPathOrderAndCoverage(t *testing.T) {
	const nDatapaths = 6
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	hops := make([]Hop, nDatapaths)
	for i := range hops {
		hops[i] = Hop{Datapath: uint64(i + 1), OutPort: uint16(i + 2)}
	}
	topo := &fakeTopo{hops: hops}
	dps := make([]*fakeDatapath, nDatapaths)
	c := New(Config{
		Name: "install",
		Policy: pf.MustCompile("policy", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`),
		Transport: tr,
		Topology:  topo,
	})
	for i := range dps {
		dps[i] = &fakeDatapath{id: uint64(i + 1)}
		c.AddDatapath(dps[i])
	}

	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 104, DstPort: 200}
	ev := sampleEvent(five, 1)
	c.HandleEvent(ev)
	if c.Counters.Get("flows_allowed") != 1 {
		t.Fatalf("flow not allowed; counters: %s", c.Counters)
	}
	for i, dp := range dps {
		if got := dp.modCount(); got != 2 { // forward + reverse (keep state)
			t.Fatalf("datapath %d: mods = %d, want 2", i+1, got)
		}
		fwd, rev := dp.mods[0], dp.mods[1]
		if fwd.Match != flow.FiveMatch(five) || rev.Match != flow.FiveMatch(five.Reverse()) {
			t.Errorf("datapath %d: mods are not forward then reverse", i+1)
		}
		if ingress := i == 0; (fwd.BufferID == ev.BufferID) != ingress || fwd.NotifyRemoved != ingress {
			t.Errorf("datapath %d: forward mod buffer=%d notify=%t", i+1, fwd.BufferID, fwd.NotifyRemoved)
		}
		if rev.BufferID != openflow.BufferNone {
			t.Errorf("datapath %d: reverse mod carries buffer %d", i+1, rev.BufferID)
		}
	}
	ingressSeq := dps[0].seqs[0]
	for i, dp := range dps {
		if i > 0 && dp.seqs[0] > ingressSeq {
			t.Errorf("datapath %d programmed after the ingress released the first packet", i+1)
		}
		if dp.seqs[1] < ingressSeq {
			t.Errorf("datapath %d: reverse entry installed before the forward pass finished", i+1)
		}
	}
	if c.Counters.Get("entries_installed") != 2*nDatapaths {
		t.Errorf("entries_installed = %d, want %d", c.Counters.Get("entries_installed"), 2*nDatapaths)
	}
}
