package core

import (
	"sync"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// TestStressConcurrentPipeline hammers HandleEvent from many goroutines
// while every mutator — SetPolicy, AnswerForHost, AddDatapath, a
// flow-scoped revocation, SetAugmenter — runs concurrently, plus readers of the exported metrics.
// It is the race-detector workout for the sharded fast path and the
// copy-on-write snapshot; correctness is asserted by conservation laws
// over the counters, which must hold no matter how the schedules
// interleave.
func TestStressConcurrentPipeline(t *testing.T) { inCompletionModes(t, testStressConcurrentPipeline) }

func testStressConcurrentPipeline(t *testing.T, cm completionMode) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}}
	dp1 := &fakeDatapath{id: 1}
	dp2 := &fakeDatapath{id: 2}
	cfg := Config{
		Name:             "stress",
		Policy:           pf.MustCompile("p", `pass from any to any`),
		Transport:        tr,
		Topology:         topo,
		InstallEntries:   true,
		ResponseCacheTTL: time.Minute,
		Revocation:       true,
		Shards:           8,
	}
	settle := cm.config(&cfg)
	eq := countEndQueries(cfg.Transport)
	cfg.Transport = eq
	c := New(cfg)
	c.AddDatapath(dp1)
	c.AddDatapath(dp2)

	const (
		workers       = 8
		eventsPerW    = 400
		distinctFlows = 64
	)
	policies := []*pf.Policy{
		pf.MustCompile("allow", `pass from any to any`),
		pf.MustCompile("deny", `block all`),
		pf.MustCompile("cond", "block all\npass from any to any with eq(@src[name], skype)"),
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Mutators: policy swaps (the revocation path), registry growth,
	// answer-on-behalf updates, per-flow revocation, augmenter swaps.
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
			c.SetPolicy(policies[i%len(policies)])
			c.AnswerForHost(hostB, wire.KV{Key: "type", Value: "printer"})
			c.AddDatapath(&fakeDatapath{id: uint64(100 + i%7)})
			pushFlowUpdate(c, flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
				SrcPort: netaddr.Port(1000 + i%distinctFlows), DstPort: 80})
			c.SetAugmenter(func(q wire.Query, resp *wire.Response) {})
			i++
		}
	}()

	// Readers: exported surfaces a harness would poll mid-run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = c.Counters.Snapshot()
			_ = c.Setup.Total.Summary()
			_ = c.Audit.Entries()
			c.MegaflowStats()
			c.InterceptQuery(hostB, wire.Query{})
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < eventsPerW; i++ {
				n := (w*eventsPerW + i) % distinctFlows
				five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
					SrcPort: netaddr.Port(1000 + n), DstPort: 80}
				c.HandleEvent(sampleEvent(five, 1+uint64(n%2)))
			}
		}(w)
	}

	// Wait for the event workers, then stop the background churn.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		// Workers are the first to finish; the churn goroutines only exit
		// via stop, so close it once all events are in.
		for c.Counters.Get("packet_ins") < workers*eventsPerW {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress run wedged")
	}
	settle()

	checkOutcomes(t, c, workers*eventsPerW)
	snap := c.Counters.Snapshot()
	decided := snap["flows_allowed"] + snap["flows_denied"]
	// One audit entry per decision, plus one per verdict the revocations
	// tore down, whether the update found it installed or its decision's
	// publication re-check did.
	if c.Audit.Total() != decided+snap["revocations_flows"] {
		t.Errorf("audit total = %d, want %d decisions + %d teardowns",
			c.Audit.Total(), decided, snap["revocations_flows"])
	}
	// Every parked duplicate must have been resolved by a verdict (or
	// counted as an overflow release when the waiter list was full).
	if snap["waiters_resolved"]+snap["waiters_overflowed"] != snap["duplicate_packet_ins"] {
		t.Errorf("waiters_resolved = %d + overflowed = %d != duplicate_packet_ins = %d; parked events leaked",
			snap["waiters_resolved"], snap["waiters_overflowed"], snap["duplicate_packet_ins"])
	}
	// Every attempt at a decision — one per packet-in that did not park, one
	// more per re-decision — that was not decided without asking (verdict-
	// cache hit, header-only pre-pass) asked each end exactly once, and no
	// two of those queries to one end of a flow overlapped.
	attempts := snap["packet_ins"] - snap["duplicate_packet_ins"] + snap["revocations_redecided"]
	eq.check(t, hostA, hostB, attempts-snap["megaflow_hits"]-snap["decisions_headeronly"])
	// Quiescent: no flow still marked in flight.
	for i := range c.flows.shards {
		sh := &c.flows.shards[i]
		sh.mu.Lock()
		n := len(sh.pending)
		sh.mu.Unlock()
		if n != 0 {
			t.Errorf("shard %d still has %d pending flows after quiescence", i, n)
		}
	}
}

// TestStressMegaflowRevocation hammers the verdict cache's racy seams:
// workers decide flows of one traffic equivalence class (plus bystander
// classes) while a churn goroutine pushes fact updates for the traced
// end — every update must void or tear down the widened entries its
// facts reached, including entries whose install is racing the update.
// Correctness is conservation over the counters: no packet lost, every
// audit entry accounted, and after a final resync every install is
// matched by a teardown or an expiry — no widened entry leaks past the
// facts it read.
func TestStressMegaflowRevocation(t *testing.T) { inCompletionModes(t, testStressMegaflowRevocation) }

func testStressMegaflowRevocation(t *testing.T, cm completionMode) {
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"},
		hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}}
	dp1 := &fakeDatapath{id: 1}
	dp2 := &fakeDatapath{id: 2}
	cfg := Config{
		Name:             "mega-stress",
		Policy:           pf.MustCompile("p", megaPolicy),
		Transport:        tr,
		Topology:         topo,
		InstallEntries:   true,
		ResponseCacheTTL: time.Minute,
		Revocation:       true,
		Megaflow:         true,
		Shards:           8,
	}
	settle := cm.config(&cfg)
	c := New(cfg)
	c.AddDatapath(dp1)
	c.AddDatapath(dp2)

	// The megaflow phase, before any churn: the one class the workers'
	// flows fall into is founded, so the run exercises the class layer
	// however the churn below interleaves with their decisions.
	c.HandleEvent(sampleEvent(flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 999, DstPort: 5060}, 1))
	settle()
	if _, _, installs, _ := c.MegaflowStats(); installs != 1 {
		t.Fatalf("setup: class installs = %d, want 1", installs)
	}

	const (
		workers    = 8
		eventsPerW = 300
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Churn: fact updates for the destination end (the end every widened
	// verdict traced), flow-scoped updates naming class members, and
	// lease sweeps.
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
				c.HandleUpdate(hostB, wire.Update{Key: "name", Old: "skype", New: "skype", Serial: uint64(i)})
			case 1:
				c.HandleUpdate(hostA, wire.Update{
					Flow: flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
						SrcPort: netaddr.Port(1000 + i%32), DstPort: 5060},
					Key: "name", Serial: uint64(i),
				})
			case 2:
				c.SweepLeases()
			}
			i++
			time.Sleep(time.Microsecond)
		}
	}()

	// Readers of the new exported surfaces.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.MegaflowStats()
			_ = c.Counters.Snapshot()
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < eventsPerW; i++ {
				n := w*eventsPerW + i
				// Mostly one big class (same dst service, varied src), a
				// few bystander classes on other ports the pre-pass denies.
				five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
					SrcPort: netaddr.Port(1000 + n%32), DstPort: 5060}
				if n%7 == 0 {
					five.DstPort = netaddr.Port(6000 + n%4)
				}
				c.HandleEvent(sampleEvent(five, 1+uint64(n%2)))
			}
		}(w)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	go func() {
		for c.Counters.Get("packet_ins") < workers*eventsPerW+1 {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("megaflow stress run wedged")
	}
	settle()

	// A final resync for the traced end tears down every widened entry
	// still registered; with that, installs must balance teardowns and
	// displacement expiries exactly — a leaked entry (torn from the index
	// but resident, or resident but unregistered) breaks the equation.
	c.HandleUpdate(hostB, wire.Update{Serial: 1 << 30})

	checkOutcomes(t, c, workers*eventsPerW+1)
	snap := c.Counters.Snapshot()
	decided := snap["flows_allowed"] + snap["flows_denied"]
	if snap["waiters_resolved"]+snap["waiters_overflowed"] != snap["duplicate_packet_ins"] {
		t.Errorf("waiters %d+%d != duplicates %d",
			snap["waiters_resolved"], snap["waiters_overflowed"], snap["duplicate_packet_ins"])
	}
	// One audit entry per decision plus one per plane-driven teardown
	// (flow and class alike).
	revoked := int64(len(c.Audit.Revocations()))
	if c.Audit.Total() != decided+revoked {
		t.Errorf("audit total = %d, want %d decisions + %d revocations",
			c.Audit.Total(), decided, revoked)
	}
	live, _, installs, teardowns := c.MegaflowStats()
	if live != 0 {
		t.Errorf("megaflow entries still live after final resync: %d", live)
	}
	if installs != teardowns+snap["megaflow_expired"] {
		t.Errorf("megaflow conservation: installs=%d != teardowns=%d + expired=%d",
			installs, teardowns, snap["megaflow_expired"])
	}
	if wlive, _, _ := c.revoker.ClassStats(); wlive != 0 {
		t.Errorf("wide index still holds %d registrations after final resync", wlive)
	}
	for i := range c.flows.shards {
		sh := &c.flows.shards[i]
		sh.mu.Lock()
		n := len(sh.pending)
		sh.mu.Unlock()
		if n != 0 {
			t.Errorf("shard %d still has %d pending flows after quiescence", i, n)
		}
	}
}

// TestPolicySwapInvalidatesInFlightCacheWrite pins down the race the
// cache-entry epoch exists for: a decision that started under the old
// policy is still gathering responses when SetPolicy flushes the verdict
// cache; its insert lands *after* the flush. Without epoch pinning that
// stale entry would serve cache hits under the new policy for a full TTL.
func TestPolicySwapInvalidatesInFlightCacheWrite(t *testing.T) {
	block := make(chan struct{})
	slow := &slowTransport{unblock: block}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "swap",
		Policy:           pf.MustCompile("p1", `pass from any to any with eq(@src[name], skype)`),
		Transport:        slow,
		Topology:         topo,
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
		Shards:           4,
	})
	c.AddDatapath(dp)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 9, DstPort: 443}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.HandleEvent(sampleEvent(five, 1)) // parks in the slow transport
	}()
	slow.waitUntilQuerying()

	// The swap completes while the first decision is mid-query.
	c.SetPolicy(pf.MustCompile("p2", `pass from any to any with eq(@src[name], skype)`))

	close(block) // first decision finishes and writes the cache — stale epoch
	wg.Wait()

	if c.mega.exact(five) == nil {
		t.Fatal("the in-flight decision's insert never landed; the race under test did not happen")
	}
	if n := cachedVerdicts(c); n != 0 {
		t.Fatalf("cached verdicts = %d after policy swap, want 0 (stale-epoch write must not count)", n)
	}
	c.HandleEvent(sampleEvent(five, 1))
	if hits := c.Counters.Get("megaflow_hits"); hits != 0 {
		t.Fatalf("cache hits = %d, want 0: decision under new policy took a verdict of the old one", hits)
	}
}

// checkOutcomes asserts the controller's liveness law once every decision is
// done: the controller counted the sent packet-ins, and each ended in exactly
// one outcome — a verdict, a park behind its flow's decision, a drop after
// its decision's last attempt voided, or a drop at the edge. Every voided
// attempt was either re-run or that drop.
func checkOutcomes(t *testing.T, c *Controller, sent int64) {
	t.Helper()
	s := c.Counters.Snapshot()
	outcomes := s["flows_allowed"] + s["flows_denied"] + s["duplicate_packet_ins"] +
		s["revocations_void_dropped"] + s["non_ip_dropped"] + s["unknown_datapath"]
	if s["packet_ins"] != sent || outcomes != sent {
		t.Errorf("packet_ins = %d, outcomes = %d, want %d each; counters: %s", s["packet_ins"], outcomes, sent, c.Counters)
	}
	if s["revocations_inflight"] != s["revocations_redecided"]+s["revocations_void_dropped"] {
		t.Errorf("revocations_inflight = %d, want redecided %d + void_dropped %d",
			s["revocations_inflight"], s["revocations_redecided"], s["revocations_void_dropped"])
	}
}
