// Package revoke implements the controller side of the revocation plane's
// bookkeeping: a sharded fact-dependency index mapping endpoint facts —
// (host, key) pairs a verdict actually read — to the verdicts whose cached
// decisions and installed entries depend on them.
//
// The controller registers one dependency record per verdict when it
// installs or caches a decision; the facts come from the compiled policy's
// per-flow static key analysis (the same analysis behind query-key hints
// and the header-only pre-pass), so an endpoint-state update resolves to
// the exact set of affected verdicts in O(affected) — never a table scan
// across every cached flow.
//
// Hosts whose daemons never push updates (the honest-but-legacy case) get
// no revocation channel; their registrations carry a lease deadline
// instead, and the controller periodically tears down expired leases —
// the short-lived-credential workaround the delegation literature reaches
// for when no revocation channel exists, honored by the same index and
// the same teardown pipeline.
package revoke

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// Fact names one endpoint fact a decision depended on. Key "" is the
// host-scope marker every registration carries for each end it read: it
// resolves host-wide invalidations (serial-gap resyncs, daemon restarts,
// operator "revoke everything about this host") without a separate host
// table.
type Fact struct {
	Host netaddr.IP
	Key  string
}

// Key names what a dependency record stands for. Every installed verdict
// has exactly one: an uncached verdict's is under its flow (Class zero), a
// cached verdict's under the id of its entry in the controller's verdict
// cache (Class non-zero, Flow zero), which covers every member flow.
type Key struct {
	Flow  flow.Five
	Class uint64
}

// key is a Key packed as the index holds it, once per record and once per
// fact link: the 16 bytes, aligned to 4, of a bare flow.Five, where a Key
// takes 24. A flow's tag has flowTag set beside the protocol; a class's is 0.
type key struct{ hi, lo, tag, ports uint32 }

const flowTag = 1 << 31

func pack(k Key) key {
	if k.Class != 0 {
		return key{hi: uint32(k.Class >> 32), lo: uint32(k.Class)}
	}
	f := k.Flow
	return key{uint32(f.SrcIP), uint32(f.DstIP), flowTag | uint32(f.Proto), uint32(f.SrcPort)<<16 | uint32(f.DstPort)}
}

func (p key) unpack() Key {
	if p.tag == 0 {
		return Key{Class: uint64(p.hi)<<32 | uint64(p.lo)}
	}
	return Key{Flow: flow.Five{
		SrcIP: netaddr.IP(p.hi), DstIP: netaddr.IP(p.lo),
		Proto: netaddr.Proto(p.tag), SrcPort: netaddr.Port(p.ports >> 16), DstPort: netaddr.Port(p.ports),
	}}
}

// kind indexes every per-kind count: flowKind for a flow, classKind for a
// class.
func (p key) kind() int { return int(p.tag >> 31) }

const (
	classKind = iota
	flowKind
)

// Registration is one dependency record: what it stands for (Flow, or
// Class when non-zero), the facts the verdict read, the datapaths a flow's
// entries were installed on (teardown deletes along them only; a class's
// are kept by its cache entry), and an optional lease deadline for facts
// served by non-pushing daemons (zero = no lease).
type Registration struct {
	Flow  flow.Five
	Class uint64
	Facts []Fact
	Paths []uint64
	Lease time.Time
}

// record is what the key-sharded side holds per key.
type record struct {
	facts []Fact
	paths []uint64
	lease time.Time
}

// factShard is one lock domain of the fact→keys side. The flows and the
// classes behind a fact sit in one set, so one Resolve is one snapshot of
// everything standing on it: no link made before the lock was taken is
// missed, of either kind.
type factShard struct {
	mu   sync.Mutex
	deps map[Fact]map[key]struct{}
}

// keyShard is one lock domain of the key→record side. live counts the
// records of each kind, so occupancy is read without a walk.
type keyShard struct {
	mu      sync.Mutex
	records map[key]record
	live    [2]int
}

// Index is the sharded fact-dependency index. All methods are safe for
// concurrent use. The two sides (fact→keys, key→record) are sharded and
// locked independently; no operation holds two shard locks at once, so
// cross-shard operations are lock-ordering-free. The consequence is a
// benign asymmetry under races: a Resolve may name a key whose record a
// concurrent Drop already removed — the caller's teardown of an
// unregistered key is a no-op.
type Index struct {
	factShards []factShard
	keyShards  []keyShard
	mask       uint64

	// lifetime registrations and drops, per kind of key
	counts [2]struct{ registered, dropped atomic.Int64 }

	pushMu sync.RWMutex
	push   map[netaddr.IP]bool // hosts whose daemons push updates
}

// NewIndex creates an index with n shards per side (rounded up to a power
// of two; n <= 0 picks 16).
func NewIndex(n int) *Index {
	if n <= 0 {
		n = 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	ix := &Index{
		factShards: make([]factShard, p),
		keyShards:  make([]keyShard, p),
		mask:       uint64(p - 1),
		push:       make(map[netaddr.IP]bool),
	}
	ix.FlushAll()
	return ix
}

func (ix *Index) factShard(f Fact) *factShard {
	h := uint64(f.Host)
	for i := 0; i < len(f.Key); i++ {
		h = h*131 + uint64(f.Key[i])
	}
	return &ix.factShards[h&ix.mask]
}

// lock packs of and returns it with its shard, locked.
func (ix *Index) lock(of Key) (key, *keyShard) {
	k := pack(of)
	h := (uint64(k.hi^k.tag)<<32 | uint64(k.lo^k.ports)) * 0x9e3779b97f4a7c15
	ks := &ix.keyShards[h>>32&ix.mask]
	ks.mu.Lock()
	return k, ks
}

// Register records a verdict's dependencies, replacing any previous record
// under the same key (re-decided flows re-register; the old fact links are
// unlinked first so the index never accretes).
func (ix *Index) Register(r Registration) {
	k, ks := ix.lock(Key{Flow: r.Flow, Class: r.Class})
	old, replaced := ks.records[k]
	ks.records[k] = record{facts: r.Facts, paths: r.Paths, lease: r.Lease}
	if !replaced {
		ks.live[k.kind()]++
	}
	ks.mu.Unlock()
	ix.unlink(k, old.facts)
	for _, fact := range r.Facts {
		sh := ix.factShard(fact)
		sh.mu.Lock()
		set := sh.deps[fact]
		if set == nil {
			set = make(map[key]struct{})
			sh.deps[fact] = set
		}
		set[k] = struct{}{}
		sh.mu.Unlock()
	}
	ix.counts[k.kind()].registered.Add(1)
}

func (ix *Index) unlink(k key, facts []Fact) {
	for _, fact := range facts {
		sh := ix.factShard(fact)
		sh.mu.Lock()
		if set := sh.deps[fact]; set != nil {
			delete(set, k)
			if len(set) == 0 {
				delete(sh.deps, fact)
			}
		}
		sh.mu.Unlock()
	}
}

// Drop removes a flow's record and unlinks its fact dependencies,
// returning the registration for the caller's teardown (the installed
// paths, chiefly). ok is false when the flow was not registered.
func (ix *Index) Drop(f flow.Five) (Registration, bool) {
	rec, ok := ix.drop(Key{Flow: f})
	return Registration{Flow: f, Facts: rec.facts, Paths: rec.paths, Lease: rec.lease}, ok
}

// DropClass removes a class's record and unlinks its fact dependencies. ok
// is false when the id was not registered — concurrent teardowns race
// benignly; exactly one caller gets true.
func (ix *Index) DropClass(id uint64) bool {
	_, ok := ix.drop(Key{Class: id})
	return ok
}

func (ix *Index) drop(of Key) (record, bool) {
	k, ks := ix.lock(of)
	rec, ok := ks.records[k]
	if ok {
		delete(ks.records, k)
		ks.live[k.kind()]--
	}
	ks.mu.Unlock()
	if ok {
		ix.unlink(k, rec.facts)
		ix.counts[k.kind()].dropped.Add(1)
	}
	return rec, ok
}

// Resolve returns the keys — flows and classes alike — whose verdicts
// depend on (host, name), appended to dst, in one pass under the fact's
// shard lock. Key "" resolves the host-scope marker: everything with any
// dependency on the host.
func (ix *Index) Resolve(host netaddr.IP, name string, dst []Key) []Key {
	ix.resolve(Fact{Host: host, Key: name}, func(k key) { dst = append(dst, k.unpack()) })
	return dst
}

// ResolveFact is Resolve narrowed to the flows: the keys of verdicts that
// are not cached, appended to dst.
func (ix *Index) ResolveFact(host netaddr.IP, name string, dst []flow.Five) []flow.Five {
	ix.resolve(Fact{Host: host, Key: name}, func(k key) {
		if k.kind() == flowKind {
			dst = append(dst, k.unpack().Flow)
		}
	})
	return dst
}

// resolve visits every key standing on fact, under the fact's shard lock.
func (ix *Index) resolve(fact Fact, visit func(key)) {
	sh := ix.factShard(fact)
	sh.mu.Lock()
	for k := range sh.deps[fact] {
		visit(k)
	}
	sh.mu.Unlock()
}

// Expired returns the keys whose lease deadline has passed at now, appended
// to dst. The walk is per-shard under that shard's lock only; callers tear
// the returned keys down through the normal pipeline (which drops them).
func (ix *Index) Expired(now time.Time, dst []Key) []Key {
	for i := range ix.keyShards {
		ks := &ix.keyShards[i]
		ks.mu.Lock()
		for k, rec := range ks.records {
			if !rec.lease.IsZero() && now.After(rec.lease) {
				dst = append(dst, k.unpack())
			}
		}
		ks.mu.Unlock()
	}
	return dst
}

// MarkPush records that host's daemon pushes updates (its hello arrived):
// future registrations touching only pushing hosts need no lease.
func (ix *Index) MarkPush(host netaddr.IP) {
	ix.pushMu.Lock()
	ix.push[host] = true
	ix.pushMu.Unlock()
}

// PushCapable reports whether host's daemon has said hello.
func (ix *Index) PushCapable(host netaddr.IP) bool {
	ix.pushMu.RLock()
	ok := ix.push[host]
	ix.pushMu.RUnlock()
	return ok
}

// FlushAll drops every record (policy swap: the verdicts' entries and
// cache lines are being flushed wholesale anyway). Push-capability marks
// survive — they describe daemons, not decisions.
func (ix *Index) FlushAll() {
	for i := range ix.keyShards {
		ks := &ix.keyShards[i]
		ks.mu.Lock()
		ks.records = make(map[key]record)
		ks.live = [2]int{}
		ks.mu.Unlock()
	}
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		sh.deps = make(map[Fact]map[key]struct{})
		sh.mu.Unlock()
	}
}

// HostStat is one host's dependency footprint: how many live flow records
// and wide (cached-verdict class) records read facts from it, and whether
// its daemon has proven it pushes updates (facts lease-free).
type HostStat struct {
	Host  netaddr.IP
	Flows int
	Wide  int
	Push  bool
}

// Hosts snapshots the per-host dependency view, appended to dst and sorted
// by host address. It walks the fact shards' host-scope marker entries
// (Key ""), which every record carries for each end it read, so the count
// is exact without a key-side scan. Shards are locked one at a time; the
// result is per-shard consistent.
func (ix *Index) Hosts(dst []HostStat) []HostStat {
	hosts := make(map[netaddr.IP]HostStat)
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		for fact, set := range sh.deps {
			if fact.Key != "" {
				continue
			}
			var n [2]int
			for k := range set {
				n[k.kind()]++
			}
			hosts[fact.Host] = HostStat{Flows: n[flowKind], Wide: n[classKind]}
		}
		sh.mu.Unlock()
	}
	ix.pushMu.RLock()
	for h, st := range hosts {
		st.Host, st.Push = h, ix.push[h]
		dst = append(dst, st)
	}
	ix.pushMu.RUnlock()
	sort.Slice(dst, func(i, j int) bool { return dst[i].Host < dst[j].Host })
	return dst
}

// Stats reports resident flow records and their lifetime register/drop
// counts.
func (ix *Index) Stats() (live int, registered, dropped int64) { return ix.stats(flowKind) }

// WideStats is Stats for the class records.
func (ix *Index) WideStats() (live int, registered, dropped int64) { return ix.stats(classKind) }

func (ix *Index) stats(kind int) (live int, registered, dropped int64) {
	for i := range ix.keyShards {
		ks := &ix.keyShards[i]
		ks.mu.Lock()
		live += ks.live[kind]
		ks.mu.Unlock()
	}
	return live, ix.counts[kind].registered.Load(), ix.counts[kind].dropped.Load()
}
