package revoke

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

var (
	hostA = netaddr.MustParseIP("10.0.0.1")
	hostB = netaddr.MustParseIP("10.0.0.2")
)

// kinds are the two things a record can stand for. Every behaviour of the
// index is one implementation over the key, so every test below runs once
// per kind, building its keys through mk.
var kinds = []struct {
	name string
	mk   func(n int) Key
}{
	{"flow", func(n int) Key {
		return Key{Flow: flow.Five{
			SrcIP: hostA, DstIP: hostB,
			Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(n), DstPort: 80,
		}}
	}},
	{"class", func(n int) Key { return Key{Class: uint64(n) + 1} }},
}

// reg builds the registration shape the controller uses: a fact with Key ""
// per end, the end read, plus the keys read there.
func reg(k Key, srcKeys, dstKeys []string, paths ...uint64) Registration {
	facts := []Fact{{Host: hostA}, {Host: hostB}}
	for _, key := range srcKeys {
		facts = append(facts, Fact{Host: hostA, Key: key})
	}
	for _, key := range dstKeys {
		facts = append(facts, Fact{Host: hostB, Key: key})
	}
	return Registration{Flow: k.Flow, Class: k.Class, Facts: facts, Paths: paths}
}

// drop removes k's record through the entry point of its kind.
func drop(ix *Index, k Key) (Registration, bool) {
	if k.Class != 0 {
		return Registration{}, ix.DropClass(k.Class)
	}
	return ix.Drop(k.Flow)
}

// liveOf is the resident and lifetime counts for k's kind.
func liveOf(ix *Index, k Key) (live int, registered, dropped int64) {
	if k.Class != 0 {
		return ix.ClassStats()
	}
	return ix.Stats()
}

func TestResolveFactExact(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(8)
			k1, k2, k3 := kind.mk(1), kind.mk(2), kind.mk(3)
			ix.Register(reg(k1, []string{"userID"}, []string{"name"}, 1, 2))
			ix.Register(reg(k2, []string{"userID"}, nil, 1))
			ix.Register(reg(k3, nil, []string{"name"}, 1))

			if got := ix.Resolve(hostA, "userID", nil); len(got) != 2 {
				t.Fatalf("Resolve(A, userID) = %v, want k1+k2", got)
			}
			if got := ix.Resolve(hostB, "name", nil); len(got) != 2 {
				t.Fatalf("Resolve(B, name) = %v, want k1+k3", got)
			}
			if got := ix.Resolve(hostA, "name", nil); len(got) != 0 {
				t.Fatalf("Resolve(A, name) = %v, want none", got)
			}
			if got := ix.Resolve(hostA, "", nil); len(got) != 3 {
				t.Fatalf("Resolve(A, any fact) = %v, want all three", got)
			}
			// ResolveFact is the same resolve narrowed to the flow records.
			wantFlows := 0
			if k1.Class == 0 {
				wantFlows = 3
			}
			if got := ix.ResolveFact(hostA, "", nil); len(got) != wantFlows {
				t.Fatalf("ResolveFact(A, any fact) = %v, want %d flows", got, wantFlows)
			}
		})
	}
}

// TestResolveYieldsBothKinds: the flows and the classes behind one fact
// come back from one Resolve.
func TestResolveYieldsBothKinds(t *testing.T) {
	ix := NewIndex(8)
	f, c := kinds[0].mk(1), kinds[1].mk(1)
	ix.Register(reg(f, []string{"userID"}, nil, 1))
	ix.Register(reg(c, []string{"userID"}, nil))
	got := ix.Resolve(hostA, "userID", nil)
	if len(got) != 2 || !(got[0] == f && got[1] == c || got[0] == c && got[1] == f) {
		t.Fatalf("Resolve = %v, want the flow and the class", got)
	}
	if got := ix.ResolveFact(hostA, "userID", nil); len(got) != 1 || got[0] != f.Flow {
		t.Fatalf("ResolveFact = %v, want the flow only", got)
	}
	hosts := ix.Hosts(nil)
	if len(hosts) != 2 || hosts[0] != (HostStat{Host: hostA, Flows: 1, Classes: 1}) {
		t.Fatalf("Hosts = %+v, want A with one flow and one class", hosts)
	}
	if flows, _, _ := ix.Stats(); flows != 1 {
		t.Errorf("Stats live = %d, want the flow only", flows)
	}
	if classes, _, _ := ix.ClassStats(); classes != 1 {
		t.Errorf("ClassStats live = %d, want the class only", classes)
	}
}

// TestResolveAllocatesNothing: both resolves walk the fact's set through one
// shared visitor, and neither may cost a fan-in an allocation for it —
// bench/ resolves per revocation into a reused slice.
func TestResolveAllocatesNothing(t *testing.T) {
	ix := NewIndex(4)
	for _, kind := range kinds {
		for n := 0; n < 8; n++ {
			ix.Register(reg(kind.mk(n), []string{"userID"}, nil))
		}
	}
	keys, flows := make([]Key, 0, 16), make([]flow.Five, 0, 16)
	if n := testing.AllocsPerRun(100, func() {
		keys = ix.Resolve(hostA, "userID", keys[:0])
		flows = ix.ResolveFact(hostA, "userID", flows[:0])
	}); n != 0 || len(keys) != 16 || len(flows) != 8 {
		t.Errorf("%v allocs per resolve pair, %d keys, %d flows; want 0/16/8", n, len(keys), len(flows))
	}
}

// TestRecordFootprint: a record of the controller's usual shape — two hosts,
// three keys, one listener fact — takes at most 192 bytes of heap. The
// bytes are read from runtime.MemStats: the live heap with 20,000 such
// records registered, less the live heap once they are all dropped (the
// key map keeps its size and every shared list and set stays), over the
// records the drop let go (those its free lists keep are still live).
func TestRecordFootprint(t *testing.T) {
	const n = 20_000
	ix := NewIndex(1)
	regs := make([]Registration, n)
	for i := range regs {
		regs[i] = reg(kinds[0].mk(i), []string{"name"}, []string{"name", "userID"}, 1, 2)
		regs[i].Facts = append(regs[i].Facts, Fact{Host: hostB, Key: ListenerKey(netaddr.ProtoTCP, 80)})
	}
	for _, r := range regs { // size the key map, and intern the paths and sets
		ix.Register(r)
	}
	for _, r := range regs {
		ix.Drop(r.Flow)
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, r := range regs {
		ix.Register(r)
	}
	registered := live()
	for _, r := range regs {
		ix.Drop(r.Flow)
	}
	dropped := live()
	kept := 0
	for _, free := range ix.keyShards[0].free {
		kept += len(free)
	}
	// Whole bytes: a record is a whole number of them, and what else the
	// process did between the readings is a fraction of one per record.
	per := math.Round(float64(int64(registered)-int64(dropped)) / float64(n-kept))
	t.Logf("%.0f bytes per record", per)
	if per > 192 {
		t.Errorf("a usual-shape record takes %.0f bytes, want at most 192", per)
	}
	runtime.KeepAlive(regs)
}

// TestSwingingTableReusesRecords: a table that turns over drops hundreds of
// records more than it registers, then registers them back. Its shard keeps
// what a swing let go, past maxFree, so swing after swing allocates nothing.
// A free list bounded at maxFree alone sheds 344 records a swing here.
func TestSwingingTableReusesRecords(t *testing.T) {
	const size, swing, swings = 4096, 600, 20
	ix := NewIndex(1)
	regs := make([]Registration, size)
	for i := range regs {
		regs[i] = reg(kinds[0].mk(i), []string{"name", "version"}, []string{"name"}, 1)
		regs[i].Facts = append(regs[i].Facts, Fact{Host: hostB, Key: ListenerKey(netaddr.ProtoTCP, 80)})
		ix.Register(regs[i])
	}
	round := func(r int) {
		from := r * swing % (size - swing)
		for _, g := range regs[from : from+swing] {
			ix.Drop(g.Flow)
		}
		for _, g := range regs[from : from+swing] {
			ix.Register(g)
		}
	}
	round(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 1; r <= swings; r++ {
		round(r)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 2 {
		t.Errorf("%d swings of %d records allocate %d objects, want none", swings, swing, n)
	}
}

func TestDropUnlinksFacts(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(8)
			k := kind.mk(1)
			ix.Register(reg(k, []string{"userID"}, nil, 1, 2, 3))
			r, ok := drop(ix, k)
			if !ok {
				t.Fatal("drop missed a registered key")
			}
			if k.Class == 0 && len(r.Paths) != 3 {
				t.Errorf("paths = %v", r.Paths)
			}
			if got := ix.Resolve(hostA, "userID", nil); len(got) != 0 {
				t.Errorf("fact link survived the drop: %v", got)
			}
			if got := ix.Resolve(hostA, "", nil); len(got) != 0 {
				t.Errorf("host link survived the drop: %v", got)
			}
			if _, ok := drop(ix, k); ok {
				t.Error("second drop succeeded")
			}
		})
	}
}

func TestReRegisterReplaces(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(8)
			k := kind.mk(1)
			ix.Register(reg(k, []string{"userID"}, nil, 1))
			ix.Register(reg(k, []string{"name"}, nil, 2))
			if got := ix.Resolve(hostA, "userID", nil); len(got) != 0 {
				t.Errorf("stale fact link survived re-registration: %v", got)
			}
			if got := ix.Resolve(hostA, "name", nil); len(got) != 1 {
				t.Errorf("fresh fact link missing: %v", got)
			}
			if live, _, _ := liveOf(ix, k); live != 1 {
				t.Errorf("live = %d after re-registration, want 1", live)
			}
			r, _ := drop(ix, k)
			if k.Class == 0 && (len(r.Paths) != 1 || r.Paths[0] != 2) {
				t.Errorf("paths = %v, want the re-registration's", r.Paths)
			}
			live, registered, dropped := liveOf(ix, k)
			if live != 0 || registered != 2 || dropped != 1 {
				t.Errorf("stats = %d/%d/%d", live, registered, dropped)
			}
		})
	}
}

func TestLeases(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(8)
			now := time.Now()
			k1, k2 := kind.mk(1), kind.mk(2)
			r1 := reg(k1, []string{"userID"}, nil, 1)
			r1.Lease = now.Add(time.Second)
			ix.Register(r1)
			ix.Register(reg(k2, []string{"userID"}, nil, 1)) // no lease

			if got := ix.Expired(now, nil); len(got) != 0 {
				t.Errorf("leases expired early: %v", got)
			}
			got := ix.Expired(now.Add(2*time.Second), nil)
			if len(got) != 1 || got[0] != k1 {
				t.Errorf("Expired = %v, want k1 only", got)
			}
		})
	}
}

func TestPushCapable(t *testing.T) {
	ix := NewIndex(8)
	if ix.PushCapable(hostA) {
		t.Error("unknown host claims push capability")
	}
	ix.MarkPush(hostA)
	if !ix.PushCapable(hostA) {
		t.Error("MarkPush not visible")
	}
	ix.FlushAll()
	if !ix.PushCapable(hostA) {
		t.Error("FlushAll dropped push-capability marks")
	}
}

func TestFlushAll(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(8)
			for i := 0; i < 32; i++ {
				ix.Register(reg(kind.mk(i), []string{"userID"}, nil, 1))
			}
			ix.FlushAll()
			if live, _, _ := liveOf(ix, kind.mk(0)); live != 0 {
				t.Errorf("live = %d after FlushAll", live)
			}
			if got := ix.Resolve(hostA, "", nil); len(got) != 0 {
				t.Errorf("fact side survived FlushAll: %v", got)
			}
		})
	}
}

// TestRepeatedFactLinksOnce: a flow whose two ends are one host lists that
// host, and every key read at both ends, twice. The host is linked once,
// with both keys in its set, and so is the listener fact listed twice; each
// fact resolves to the key once, and the drop drains the index.
func TestRepeatedFactLinksOnce(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(8)
			k := kind.mk(1)
			listener := ListenerKey(netaddr.ProtoTCP, 80)
			facts := []Fact{{Host: hostA}, {Host: hostA, Key: "name"}, {Host: hostA, Key: "version"}, {Host: hostA, Key: listener},
				{Host: hostA}, {Host: hostA, Key: "name"}, {Host: hostA, Key: listener}}
			ix.Register(Registration{Flow: k.Flow, Class: k.Class, Facts: facts, Paths: []uint64{1}})
			for _, key := range []string{"", "name", "version", listener} {
				if got := ix.Resolve(hostA, key, nil); len(got) != 1 || got[0] != k {
					t.Errorf("Resolve(A, %q) = %v, want %v once", key, got, k)
				}
			}
			if got := ix.Resolve(hostA, "userID", nil); len(got) != 0 {
				t.Errorf("Resolve(A, userID) = %v, want none", got)
			}
			if n := checkLists(t, ix); n != 2 {
				t.Errorf("%d links for one host and one listener fact", n)
			}
			if hosts := ix.Hosts(nil); len(hosts) != 1 || hosts[0].Flows+hosts[0].Classes != 1 {
				t.Errorf("Hosts = %+v, want A with one record", hosts)
			}
			if _, ok := drop(ix, k); !ok {
				t.Fatal("drop missed a registered key")
			}
			if n := linkedFacts(ix); n != 0 {
				t.Errorf("fact side retains %d facts after the drop", n)
			}
		})
	}
}

// TestDropRemovesEmptyListsAndHosts: a list goes with its last link, and a
// host with its last list, while lists other records still stand on stay.
// What goes is reused: registering again against the removed lists, or
// against a host removed whole, allocates nothing — and neither does the key
// set, an interned one.
func TestDropRemovesEmptyListsAndHosts(t *testing.T) {
	ix := NewIndex(1) // one fact shard: both hosts side by side
	k1, k2 := kinds[0].mk(1), kinds[0].mk(2)
	r1 := reg(k1, []string{"name", "version"}, []string{"name"}, 1)
	r1.Facts = append(r1.Facts, Fact{Host: hostB, Key: ListenerKey(netaddr.ProtoTCP, 80)})
	ix.Register(r1)
	r2 := reg(k2, []string{"name"}, nil, 1)
	ix.Register(r2)
	if n := checkLists(t, ix); n != 5 {
		t.Fatalf("%d links, want k1's three and k2's two", n)
	}
	ix.Drop(k1.Flow)
	if n := checkLists(t, ix); n != 2 {
		t.Fatalf("%d links left, want k2's two", n)
	}
	ix.factShards[0].mu.Lock()
	a, b := ix.factShards[0].hosts[hostA], ix.factShards[0].hosts[hostB]
	ix.factShards[0].mu.Unlock()
	if a == nil || a.all.head == nil || a.all.head.rec.key.unpack() != k2 || len(a.listeners) != 0 {
		t.Fatalf("host A holds %+v, want k2's link only", a)
	}
	if b == nil || b.all.head == nil || len(b.listeners) != 0 {
		t.Fatalf("host B holds %+v, want k2's link and no listener list", b)
	}
	if n := testing.AllocsPerRun(100, func() {
		ix.Register(r1)
		ix.Drop(k1.Flow)
	}); n != 0 {
		t.Errorf("re-registering against removed lists allocates %v objects", n)
	}
	ix.Drop(k2.Flow)
	if n := linkedFacts(ix); n != 0 {
		t.Fatalf("fact side retains %d lists after every drop", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ix.Register(r1)
		ix.Drop(k1.Flow)
	}); n != 0 {
		t.Errorf("re-registering against removed hosts allocates %v objects", n)
	}
}

// TestKeySetReusesNewestLinks: a record reading the keys one of its host's
// two newest links read there takes that link's set without looking the
// keys up, so a host that is a source of one record and a destination of
// the next still shares both sets.
func TestKeySetReusesNewestLinks(t *testing.T) {
	ix := NewIndex(1)
	sh := &ix.factShards[0]
	setsAt := func(k Key) (src, dst *keySet) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		for _, ip := range []netaddr.IP{hostA, hostB} {
			for l := sh.hosts[ip].all.head; l != nil; l = l.next {
				if l.rec.key.unpack() == k {
					if ip == hostA {
						src = l.keys
					} else {
						dst = l.keys
					}
				}
			}
		}
		return src, dst
	}
	k1, k2, k3 := kinds[0].mk(1), kinds[0].mk(2), kinds[0].mk(3)
	ix.Register(reg(k1, []string{"version", "name"}, []string{"name"}, 1))
	// The reverse flow: host A reads {name} as the destination, host B
	// {name version} as the source.
	rev := reg(k2, nil, nil, 1)
	rev.Facts = append(rev.Facts, Fact{Host: hostB, Key: "name"}, Fact{Host: hostB, Key: "version"}, Fact{Host: hostA, Key: "name"})
	ix.Register(rev)
	src1, dst1 := setsAt(k1)
	src2, dst2 := setsAt(k2)
	if src1 != dst2 || dst1 != src2 {
		t.Fatalf("sets not shared: k1 %v %v, k2 %v %v", src1, dst1, src2, dst2)
	}
	sh.mu.Lock()
	clear(sh.sets) // a lookup now finds nothing, and interns a new set
	sh.mu.Unlock()
	ix.Register(reg(k3, []string{"name", "version"}, []string{"name"}, 1))
	if src3, dst3 := setsAt(k3); src3 != src1 || dst3 != dst1 {
		t.Errorf("k3 took sets %p %p, want its hosts' newest links' %p %p", src3, dst3, src1, dst1)
	}
}

// TestFactSideShrinksBack: what the fact side holds is bounded by the live
// records, however many distinct hosts and listener ports were ever decided.
// After every drop no host or list is left, the free lists are within
// maxFree, the interned key sets within maxSets, and a host that took flows
// to many ports scans only the listener lists of its live records and keeps
// no room for the rest.
func TestFactSideShrinksBack(t *testing.T) {
	ix := NewIndex(4)
	const hosts, ports = 100_000, 2_000
	host := func(i int) netaddr.IP { return netaddr.IP(0x0b000000 + uint32(i)) }
	five := func(src, dst netaddr.IP, port int) flow.Five {
		return flow.Five{SrcIP: src, DstIP: dst, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: netaddr.Port(port)}
	}
	for i := 0; i < hosts; i++ {
		src, dst := host(i), host(i+1)
		f := five(src, dst, 80)
		ix.Register(Registration{Flow: f, Facts: []Fact{{Host: src}, {Host: dst}, {Host: src, Key: "name"}}})
		ix.Drop(f)
	}
	checkShrunk(t, ix)

	// One listener host, a flow to each of many ports in turn, one live at
	// a time beside a flow that stays.
	src, dst := host(0), host(1)
	stay := five(src, dst, 1)
	ix.Register(Registration{Flow: stay, Facts: []Fact{{Host: src}, {Host: dst}, {Host: dst, Key: ListenerKey(netaddr.ProtoTCP, 1)}}})
	for port := 2; port < ports; port++ {
		f := five(src, dst, port)
		ix.Register(Registration{Flow: f, Facts: []Fact{{Host: src}, {Host: dst}, {Host: dst, Key: ListenerKey(netaddr.ProtoTCP, netaddr.Port(port))}}})
		ix.Drop(f)
	}
	sh := ix.factShard(dst)
	sh.mu.Lock()
	n := len(sh.hosts[dst].listeners)
	sh.mu.Unlock()
	if n != 1 {
		t.Errorf("the listener host holds %d listener lists after %d ports came and went, want the one its live flow took", n, ports-2)
	}
	// Then flows to many ports at once: the host's room for their lists
	// does not outlive them.
	for port := 2; port < ports; port++ {
		f := five(src, dst, port)
		ix.Register(Registration{Flow: f, Facts: []Fact{{Host: src}, {Host: dst}, {Host: dst, Key: ListenerKey(netaddr.ProtoTCP, netaddr.Port(port))}}})
	}
	for port := 2; port < ports; port++ {
		ix.Drop(five(src, dst, port))
	}
	ix.Drop(stay)
	checkShrunk(t, ix)
}

// checkShrunk fails unless the fact side holds no host, every free list of a
// fact shard is within maxFree and its interned key sets within maxSets.
func checkShrunk(t *testing.T, ix *Index) {
	t.Helper()
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		hosts, freeHosts, freeLists, sets := len(sh.hosts), len(sh.freeHosts), len(sh.freeLists), len(sh.sets)
		for _, h := range sh.freeHosts {
			if cap(h.listeners) > maxFreeListeners {
				t.Errorf("shard %d keeps a free host with room for %d listener lists", i, cap(h.listeners))
			}
		}
		sh.mu.Unlock()
		if hosts != 0 || freeHosts > maxFree || freeLists > maxFree || sets > maxSets {
			t.Errorf("shard %d holds %d hosts, %d free hosts, %d free lists, %d key sets after every drop", i, hosts, freeHosts, freeLists, sets)
		}
	}
}

// TestRacingRegisterDropLeavesNoLink races re-registrations and drops of
// the same few keys across goroutines. A Register holds its key's shard lock
// until its last link is spliced, so a Drop that follows it unlinks all of
// them: once everything is dropped, no link, list or host is left.
func TestRacingRegisterDropLeavesNoLink(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(2)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 2000; i++ {
						k := kind.mk(i % 3)
						if (g+i)%2 == 0 {
							ix.Register(reg(k, []string{"name", "version"}, []string{"name"}, 1))
						} else {
							drop(ix, k)
						}
						if i%64 == 0 {
							runtime.Gosched()
						}
					}
				}(g)
			}
			wg.Wait()
			for n := 0; n < 3; n++ {
				drop(ix, kind.mk(n))
			}
			if live, _, _ := liveOf(ix, kind.mk(0)); live != 0 {
				t.Errorf("live = %d after drain", live)
			}
			if n := linkedFacts(ix); n != 0 {
				t.Errorf("fact side retains %d facts after drain", n)
			}
			if got := ix.Resolve(hostA, "", nil); len(got) != 0 {
				t.Errorf("Resolve(A) = %v after drain", got)
			}
		})
	}
}

// TestConcurrentChurn exercises register/drop/resolve races under the race
// detector; correctness here is "no crash, no race, index drains to empty".
func TestConcurrentChurn(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(4)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 500; i++ {
						k := kind.mk(g*1000 + i%37)
						ix.Register(reg(k, []string{"userID", "name"}, []string{"name"}, 1, 2))
						ix.Resolve(hostA, "userID", nil)
						ix.Resolve(hostB, "", nil)
						ix.Expired(time.Now(), nil)
						drop(ix, k)
					}
				}(g)
			}
			wg.Wait()
			if live, _, _ := liveOf(ix, kind.mk(0)); live != 0 {
				t.Errorf("live = %d after drain", live)
			}
			if n := linkedFacts(ix); n != 0 {
				t.Errorf("fact side retains %d facts after drain", n)
			}
		})
	}
}

// TestRecycledRecordsKeepWhatWasRegistered races registrations, replacing
// registrations and drops of records of both kinds and both sizes against
// Resolve, Expired and Hosts, on few shards so that records are reused
// across keys and goroutines. Every Drop must hand back exactly the paths and
// lease its flow was last registered with, and paths a Drop handed back must
// still hold them after their record has been reused many times over.
func TestRecycledRecordsKeepWhatWasRegistered(t *testing.T) {
	ix := NewIndex(2)
	hostC := netaddr.MustParseIP("10.0.0.3")
	hosts := []netaddr.IP{hostA, hostB, hostC}
	type handed struct{ got, want []uint64 }
	var stop atomic.Bool
	var readers, workers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var keys []Key
			var stats []HostStat
			for !stop.Load() {
				for _, h := range hosts {
					keys = ix.Resolve(h, "", keys[:0])
					keys = ix.Resolve(h, "name", keys)
				}
				keys = ix.Expired(time.Unix(0, 1500), keys[:0])
				stats = ix.Hosts(stats[:0])
				runtime.Gosched()
			}
		}()
	}
	for g := 0; g < 6; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var kept []handed
			registration := func(k Key) (Registration, []uint64, time.Time) {
				src, dst := hosts[rng.Intn(3)], hosts[rng.Intn(3)]
				facts := []Fact{{Host: src}, {Host: dst}, {Host: src, Key: "name"}, {Host: dst, Key: "name"}, {Host: src, Key: "version"}}
				if rng.Intn(2) == 0 { // a listener fact: the three-link size
					facts = append(facts, Fact{Host: dst, Key: ListenerKey(netaddr.ProtoTCP, 80)})
				}
				paths := make([]uint64, rng.Intn(7)) // past four: a copy of its own
				for i := range paths {
					paths[i] = uint64(rng.Intn(3) + 1)
				}
				var lease time.Time
				if rng.Intn(2) == 0 {
					lease = time.Unix(0, int64(1000+rng.Intn(1000)))
				}
				want := slices.Clone(paths)
				return Registration{Flow: k.Flow, Class: k.Class, Facts: facts, Paths: paths, Lease: lease}, want, lease
			}
			for i := 0; i < 2000; i++ {
				kind := kinds[i%2]
				k := kind.mk(g*100 + i%7)
				r, wantPaths, wantLease := registration(k)
				ix.Register(r)
				clear(r.Paths) // Register keeps no slice of the caller's
				if rng.Intn(3) == 0 {
					r, wantPaths, wantLease = registration(k)
					ix.Register(r)
				}
				got, ok := drop(ix, k)
				if !ok {
					t.Errorf("goroutine %d: drop %d missed its registration", g, i)
					return
				}
				if k.Class != 0 {
					continue
				}
				if !slices.Equal(got.Paths, wantPaths) || !got.Lease.Equal(wantLease) {
					t.Errorf("goroutine %d: drop %d handed back paths %v lease %v, registered %v %v",
						g, i, got.Paths, got.Lease, wantPaths, wantLease)
					return
				}
				kept = append(kept, handed{got.Paths, wantPaths})
			}
			for _, h := range kept {
				if !slices.Equal(h.got, h.want) {
					t.Errorf("goroutine %d: handed-back paths %v became %v after reuse", g, h.want, h.got)
					return
				}
			}
		}(g)
	}
	workers.Wait()
	stop.Store(true)
	readers.Wait()
	if n := linkedFacts(ix); n != 0 {
		t.Errorf("fact side retains %d linked facts after every drop", n)
	}
	checkLists(t, ix)
}

// linkedFacts counts the lists the fact side still holds — a host's own,
// when a record stands on it, and each listener list — and any host it holds
// with no list at all: zero iff every link any record made has been
// unlinked and every list and host left empty has been removed.
func linkedFacts(ix *Index) int {
	n := 0
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		for _, h := range sh.hosts {
			n += len(h.listeners)
			if h.all.head != nil || len(h.listeners) == 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// checkLists walks every list of the fact side and fails unless each host
// holds only non-empty lists, in its own shard, whose links are doubly
// linked and point back at the list, a record links into each of them at
// most once, a host link carries a sorted interned key set or none, and a
// listener link none; it returns the links it walked.
func checkLists(t *testing.T, ix *Index) int {
	t.Helper()
	links := 0
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		for ip, h := range sh.hosts {
			if h.ip != ip || ix.factShard(ip) != sh {
				t.Fatalf("host %v filed under %v in shard %d", h.ip, ip, i)
			}
			if h.all.head == nil {
				t.Fatalf("host %v left behind with no record on it", ip)
			}
			lists := append([]*factList{&h.all}, h.listeners...)
			for j, list := range lists {
				if list.host != h || (j == 0) != (list.key == "") || (j > 0 && !isListener(list.key)) {
					t.Fatalf("list %q of %v is misfiled", list.key, ip)
				}
				seen := make(map[*record]bool)
				var prev *link
				for l := list.head; l != nil; l = l.next {
					if l.list != list || l.prev != prev {
						t.Fatalf("list %q of %v is not doubly linked", list.key, ip)
					}
					if seen[l.rec] {
						t.Fatalf("a record links twice into list %q of %v", list.key, ip)
					}
					seen[l.rec] = true
					switch {
					case j > 0 && l.keys != nil:
						t.Fatalf("a listener link of %v carries keys %v", ip, l.keys.keys)
					case l.keys != nil && (len(l.keys.keys) == 0 || !slices.IsSorted(l.keys.keys) || sh.sets[setName(l.keys.keys)] != l.keys):
						t.Fatalf("host link of %v carries keys %v, not a sorted interned set", ip, l.keys.keys)
					}
					prev = l
					links++
				}
			}
		}
		sh.mu.Unlock()
	}
	return links
}

// setName is the name a fact shard interns the set of keys under.
func setName(keys []string) string {
	var b []byte
	for _, k := range keys {
		b = append(append(b, k...), 0)
	}
	return string(b)
}

// TestIndexAgainstModel drives a seeded random mix of register,
// re-register, drop, resolve and lease expiry over both kinds of key
// against the obvious model — a map from key to its facts and lease — and
// asserts after every step that each fact resolves to exactly the keys the
// model says depend on it, Key "" to every key with any fact at the host,
// and at the end that the index is empty exactly when the model is. The
// facts are plain keys and listener facts at three hosts. A drop that
// forgets to unlink one link fails the per-step comparison on the first
// resolve of a fact it stood for, and a resolve that ignores a host link's
// key set fails on the first record that read one key at a host and not
// another.
func TestIndexAgainstModel(t *testing.T) {
	type modelRec struct {
		facts []Fact
		lease time.Time
	}
	hosts := []netaddr.IP{hostA, hostB, netaddr.MustParseIP("10.0.0.3")}
	keys := []string{"", "name", "userID", "os-patch", ListenerKey(netaddr.ProtoTCP, 80), ListenerKey(netaddr.ProtoUDP, 53)}
	var universe []Fact
	for _, h := range hosts {
		for _, k := range keys {
			universe = append(universe, Fact{Host: h, Key: k})
		}
	}
	sortKeys := func(ks []Key) {
		sort.Slice(ks, func(i, j int) bool {
			if ks[i].Class != ks[j].Class {
				return ks[i].Class < ks[j].Class
			}
			return ks[i].Flow.SrcPort < ks[j].Flow.SrcPort
		})
	}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := NewIndex(4)
		model := make(map[Key]modelRec)
		now := time.Unix(1000, 0)

		randKey := func() Key { return kinds[rng.Intn(2)].mk(rng.Intn(24)) }
		check := func(step int, op string) {
			t.Helper()
			for _, fact := range universe {
				var want []Key
				for k, rec := range model {
					for _, f := range rec.facts {
						if f == fact || fact.Key == "" && f.Host == fact.Host {
							want = append(want, k)
							break
						}
					}
				}
				got := ix.Resolve(fact.Host, fact.Key, nil)
				sortKeys(want)
				sortKeys(got)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d (%s): Resolve(%v) = %v, model says %v", seed, step, op, fact, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d (%s): Resolve(%v) = %v, model says %v", seed, step, op, fact, got, want)
					}
				}
			}
			flows, classes := 0, 0
			for k := range model {
				if k.Class != 0 {
					classes++
				} else {
					flows++
				}
			}
			gotFlows, _, _ := ix.Stats()
			gotClasses, _, _ := ix.ClassStats()
			if gotFlows != flows || gotClasses != classes {
				t.Fatalf("seed %d step %d (%s): live = %d flows / %d classes, model says %d / %d", seed, step, op, gotFlows, gotClasses, flows, classes)
			}
			// One link per host a record read, and one per listener fact.
			links := 0
			for _, rec := range model {
				distinct := make(map[Fact]bool)
				for _, f := range rec.facts {
					distinct[Fact{Host: f.Host}] = true
					if isListener(f.Key) {
						distinct[f] = true
					}
				}
				links += len(distinct)
			}
			if got := checkLists(t, ix); got != links {
				t.Fatalf("seed %d step %d (%s): %d links in the lists, model says %d", seed, step, op, got, links)
			}
		}

		for step := 0; step < 600; step++ {
			op := "register"
			switch r := rng.Intn(10); {
			case r < 5: // register, or re-register when the key is resident
				k := randKey()
				rec := modelRec{}
				for _, fact := range universe {
					if rng.Intn(4) == 0 {
						rec.facts = append(rec.facts, fact)
					}
				}
				if n := len(rec.facts); n > 0 && rng.Intn(3) == 0 {
					// A fact listed twice, as a flow's two ends that are one
					// host list it: linked once, resolved once.
					rec.facts = append(rec.facts, rec.facts[rng.Intn(n)])
				}
				if rng.Intn(3) == 0 {
					rec.lease = now.Add(time.Duration(rng.Intn(50)) * time.Second)
				}
				ix.Register(Registration{Flow: k.Flow, Class: k.Class, Facts: rec.facts, Lease: rec.lease})
				model[k] = rec
			case r < 8:
				op = "drop"
				k := randKey()
				_, inModel := model[k]
				if _, ok := drop(ix, k); ok != inModel {
					t.Fatalf("seed %d step %d: drop(%v) = %v, model says %v", seed, step, k, ok, inModel)
				}
				delete(model, k)
			default:
				op = "expire"
				now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
				var want []Key
				for k, rec := range model {
					if !rec.lease.IsZero() && now.After(rec.lease) {
						want = append(want, k)
					}
				}
				got := ix.Expired(now, nil)
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: Expired = %v, model says %v", seed, step, got, want)
				}
				for _, k := range got {
					if _, ok := drop(ix, k); !ok {
						t.Fatalf("seed %d step %d: expired key %v was not registered", seed, step, k)
					}
					delete(model, k)
				}
			}
			check(step, op)
		}

		// Index empty ⇔ model empty: as they stand, then with the model's
		// records drained out of the index.
		empty := func() bool {
			flows, _, _ := ix.Stats()
			classes, _, _ := ix.ClassStats()
			return flows+classes+linkedFacts(ix) == 0
		}
		if empty() != (len(model) == 0) {
			t.Fatalf("seed %d: index empty = %v with %d records in the model", seed, empty(), len(model))
		}
		for k := range model {
			if _, ok := drop(ix, k); !ok {
				t.Fatalf("seed %d: model's %v was not in the index", seed, k)
			}
		}
		if !empty() {
			t.Fatalf("seed %d: model drained, index still holds %d linked facts", seed, linkedFacts(ix))
		}
	}
}
