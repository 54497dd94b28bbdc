package core

import (
	"sync"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
)

// fakeClock is a hand-advanced clock for deterministic expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (fc *fakeClock) Now() time.Time {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.now
}

func (fc *fakeClock) Advance(d time.Duration) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.now = fc.now.Add(d)
}

func stressFlow(n int) flow.Five {
	return flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP,
		SrcPort: netaddr.Port(3000 + n), DstPort: 80}
}

// TestShardedCacheExpiryDeterministicClock drives the verdict cache with a
// hand-advanced clock: entries must serve hits inside the TTL, stop
// counting once expired, and the per-shard sweep must only ever touch the
// shard it runs in — inserting into one shard cannot evict another shard's
// entries, expired or not.
func TestShardedCacheExpiryDeterministicClock(t *testing.T) {
	const ttl = 10 * time.Second
	fc := &fakeClock{now: time.Unix(1000, 0)}
	tr := &fakeTransport{responses: map[netaddr.IP]map[string]string{
		hostA: {"name": "skype"}, hostB: {"name": "skype"},
	}}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	dp := &fakeDatapath{id: 1}
	c := New(Config{
		Name:             "clock",
		Policy:           pf.MustCompile("p", `pass from any to any with eq(@src[name], skype)`),
		Transport:        tr,
		Topology:         topo,
		ResponseCacheTTL: ttl,
		Shards:           4,
		Clock:            fc.Now,
	})
	c.AddDatapath(dp)

	const flows = 32
	for i := 0; i < flows; i++ {
		c.HandleEvent(sampleEvent(stressFlow(i), 1))
	}
	if got := cachedVerdicts(c); got != flows {
		t.Fatalf("cached verdicts = %d, want %d", got, flows)
	}
	// Entries should be spread over all four shards — otherwise the
	// "per shard" claims below test nothing.
	for i := range c.mega.shards {
		sh := &c.mega.shards[i]
		sh.mu.Lock()
		n := len(sh.entries)
		sh.mu.Unlock()
		if n == 0 {
			t.Fatalf("shard %d got no entries out of %d flows; hash badly skewed", i, flows)
		}
	}

	// Inside the TTL: hits, no new queries.
	fc.Advance(ttl / 2)
	before := tr.queries
	c.HandleEvent(sampleEvent(stressFlow(0), 1))
	if tr.queries != before {
		t.Errorf("in-TTL event queried daemons (%d -> %d queries)", before, tr.queries)
	}
	if c.Counters.Get("megaflow_hits") != 1 {
		t.Errorf("megaflow_hits = %d, want 1", c.Counters.Get("megaflow_hits"))
	}

	// Past the TTL: nothing counts as live, and a re-decision re-queries.
	fc.Advance(ttl)
	if got := cachedVerdicts(c); got != 0 {
		t.Fatalf("cached verdicts = %d after expiry, want 0", got)
	}
	before = tr.queries
	c.HandleEvent(sampleEvent(stressFlow(1), 1))
	if tr.queries != before+2 {
		t.Errorf("expired entry did not force re-query (%d -> %d)", before, tr.queries)
	}

	// That re-decision inserted into exactly one shard and its sweep ran
	// there: apart from the fresh entry, the owning shard holds only entries
	// the sweep aged (announced pass verdicts, kept as their flows' records),
	// while the other shards still hold their unswept tombstones (sweeps are
	// per shard and lazy; no cross-shard eviction).
	shardOf := func(f flow.Five) *megaShard {
		return c.mega.shardFor(megaKey{masked: f, mask: pf.TraceAllFields})
	}
	owner := shardOf(stressFlow(1))
	ownerIdx := -1
	staleElsewhere := 0
	for i := range c.mega.shards {
		sh := &c.mega.shards[i]
		sh.mu.Lock()
		n := 0
		for _, e := range sh.entries {
			if !e.aged {
				n++
			}
		}
		sh.mu.Unlock()
		if sh == owner {
			ownerIdx = i
			if n != 1 {
				t.Errorf("owning shard %d holds %d entries after sweep, want 1 (the fresh one)", i, n)
			}
			continue
		}
		staleElsewhere += n
	}
	if ownerIdx < 0 {
		t.Fatal("owning shard not found in table")
	}
	if staleElsewhere == 0 {
		t.Error("expired entries vanished from shards that never swept: cross-shard eviction happened")
	}

	// The stale tombstones still never serve: a hit on an unswept shard's
	// expired entry must re-query.
	var other flow.Five
	for i := 2; i < flows; i++ {
		if shardOf(stressFlow(i)) != owner {
			other = stressFlow(i)
			break
		}
	}
	before = tr.queries
	c.HandleEvent(sampleEvent(other, 1))
	if tr.queries != before+2 {
		t.Errorf("expired entry on unswept shard served a hit (%d -> %d)", before, tr.queries)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 16: 16, 17: 32}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
	if n := defaultShards(); n < 1 || n&(n-1) != 0 {
		t.Errorf("defaultShards() = %d, want a positive power of two", n)
	}
}

// TestWaiterResolutionReleasesAllParkedBuffers checks the fan-out
// batching: every duplicate packet-in parked during a slow decision gets
// its buffer released exactly once, after the verdict.
func TestWaiterResolutionReleasesAllParkedBuffers(t *testing.T) {
	block := make(chan struct{})
	slow := &slowTransport{unblock: block}
	topo := &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}}
	c, dp1, _ := newTestController(`pass from any to any with eq(@src[name], skype)`, slow, topo)
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 2}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.HandleEvent(sampleEvent(five, 1))
	}()
	slow.waitUntilQuerying()

	const dups = 5
	for i := 0; i < dups; i++ {
		ev := sampleEvent(five, 1)
		ev.BufferID = uint32(100 + i)
		c.HandleEvent(ev) // parks; must not block
	}
	if got := c.Counters.Get("duplicate_packet_ins"); got != dups {
		t.Fatalf("duplicate_packet_ins = %d, want %d", got, dups)
	}
	dp1.mu.Lock()
	parkedReleases := len(dp1.released)
	dp1.mu.Unlock()
	if parkedReleases != 0 {
		t.Fatalf("%d buffers released before the verdict; parked events must wait", parkedReleases)
	}

	close(block)
	wg.Wait()

	if got := c.Counters.Get("waiters_resolved"); got != dups {
		t.Errorf("waiters_resolved = %d, want %d", got, dups)
	}
	dp1.mu.Lock()
	released := append([]uint32(nil), dp1.released...)
	dp1.mu.Unlock()
	want := map[uint32]bool{100: true, 101: true, 102: true, 103: true, 104: true}
	for _, id := range released {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Errorf("parked buffers never released: %v (released %v)", want, released)
	}
	if dp1.modCount() != 1 {
		t.Errorf("mods = %d, want 1 (one install resolves all duplicates)", dp1.modCount())
	}
}
