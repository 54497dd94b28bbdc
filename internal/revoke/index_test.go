package revoke

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
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

// reg builds the registration shape the controller uses: per-end key facts
// plus the host-scope markers.
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
				t.Fatalf("Resolve(A, host marker) = %v, want all three", got)
			}
			// ResolveFact is the same resolve narrowed to the flow records.
			wantFlows := 0
			if k1.Class == 0 {
				wantFlows = 3
			}
			if got := ix.ResolveFact(hostA, "", nil); len(got) != wantFlows {
				t.Fatalf("ResolveFact(A, host marker) = %v, want %d flows", got, wantFlows)
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
// host's marker, and every key read at both ends, twice. Each distinct fact
// is linked once, resolves to the key once, and the drop drains the index.
func TestRepeatedFactLinksOnce(t *testing.T) {
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := NewIndex(8)
			k := kind.mk(1)
			facts := []Fact{{Host: hostA}, {Host: hostA, Key: "name"}, {Host: hostA, Key: "version"}, {Host: hostA}, {Host: hostA, Key: "name"}}
			ix.Register(Registration{Flow: k.Flow, Class: k.Class, Facts: facts, Paths: []uint64{1}})
			for _, key := range []string{"", "name", "version"} {
				if got := ix.Resolve(hostA, key, nil); len(got) != 1 || got[0] != k {
					t.Errorf("Resolve(A, %q) = %v, want %v once", key, got, k)
				}
			}
			if n := checkLists(t, ix); n != 3 {
				t.Errorf("%d links for 3 distinct facts", n)
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
func TestDropRemovesEmptyListsAndHosts(t *testing.T) {
	ix := NewIndex(1) // one fact shard: both hosts side by side
	k1, k2 := kinds[0].mk(1), kinds[0].mk(2)
	ix.Register(reg(k1, []string{"name", "version"}, []string{"name"}, 1))
	ix.Register(reg(k2, []string{"name"}, nil, 1))
	ix.Drop(k1.Flow)
	if n := checkLists(t, ix); n != 3 {
		t.Fatalf("%d links left, want k2's three", n)
	}
	ix.factShards[0].mu.Lock()
	a, b := ix.factShards[0].hosts[hostA], ix.factShards[0].hosts[hostB]
	ix.factShards[0].mu.Unlock()
	if a == nil || len(a.keys) != 1 || a.keys[0].key != "name" {
		t.Fatalf("host A holds %+v, want the one list k2 stands on", a)
	}
	if b == nil || len(b.keys) != 0 {
		t.Fatalf("host B holds %+v, want its marker only", b)
	}
	ix.Drop(k2.Flow)
	if n := linkedFacts(ix); n != 0 {
		t.Fatalf("fact side retains %d facts after every drop", n)
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

// linkedFacts counts the facts the fact side still holds a list for, and
// any host it holds with no list at all: zero iff every link any record made
// has been unlinked and every list and host left empty has been removed.
func linkedFacts(ix *Index) int {
	n := 0
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		for _, h := range sh.hosts {
			n += len(h.keys)
			if h.marker.head != nil || len(h.keys) == 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// checkLists walks every list of the fact side and fails unless each host
// holds only non-empty lists, in its own shard, whose links are doubly
// linked and point back at the list; it returns the links it walked.
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
			if h.marker.head == nil && len(h.keys) == 0 {
				t.Fatalf("host %v left behind with no list", ip)
			}
			lists := append([]*factList{&h.marker}, h.keys...)
			for j, list := range lists {
				if list.host != h {
					t.Fatalf("list %q of %v names another host", list.key, ip)
				}
				if j > 0 && list.head == nil {
					t.Fatalf("empty list %q of %v left behind", list.key, ip)
				}
				var prev *link
				for l := list.head; l != nil; l = l.next {
					if l.list != list || l.prev != prev {
						t.Fatalf("list %q of %v is not doubly linked", list.key, ip)
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

// TestIndexAgainstModel drives a seeded random mix of register,
// re-register, drop, resolve and lease expiry over both kinds of key
// against the obvious model — a map from key to its facts and lease — and
// asserts after every step that each fact resolves to exactly the keys the
// model says depend on it, and at the end that the index is empty exactly
// when the model is. A drop that forgets to unlink one fact fails the
// per-step comparison on the first resolve of that fact.
func TestIndexAgainstModel(t *testing.T) {
	type modelRec struct {
		facts []Fact
		lease time.Time
	}
	hosts := []netaddr.IP{hostA, hostB, netaddr.MustParseIP("10.0.0.3")}
	keys := []string{"", "name", "userID", "os-patch"}
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
						if f == fact {
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
			links := 0
			for _, rec := range model {
				distinct := make(map[Fact]bool)
				for _, f := range rec.facts {
					distinct[f] = true
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
					// host list its marker: linked once, resolved once.
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
