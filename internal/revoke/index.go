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

// key is a Key packed as the index holds it, once per record: the 16
// bytes, aligned to 4, of a bare flow.Five, where a Key takes 24. A flow's
// tag has flowTag set beside the protocol; a class's is 0.
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
// served by non-pushing daemons (zero = no lease). Register keeps neither
// slice: it links the facts and copies the paths, so the caller may reuse
// both. A Registration returned by Drop carries Paths and Lease only.
type Registration struct {
	Flow  flow.Five
	Class uint64
	Facts []Fact
	Paths []uint64
	Lease time.Time
}

// record is one verdict's dependency record, one allocation (newRecord):
// its packed key, its lease (Unix nanoseconds, 0 for none), its installed
// paths — in inline for up to two — and one link per distinct fact it read.
// Only the links' neighbours change after Register publishes it.
type record struct {
	key    key
	lease  int64
	paths  []uint64
	inline [2]uint64
	links  []link
}

// inlineLinks is how many links newRecord allocates with the record: the
// controller's usual shape, two markers and three keys.
const inlineLinks = 5

// newRecord allocates a record with n links, as one object for up to
// inlineLinks: a record is a couple of hundred bytes per installed verdict,
// and their sum is most of the index's footprint.
func newRecord(n int) *record {
	if n > inlineLinks {
		return &record{links: make([]link, n)}
	}
	o := new(struct {
		record
		l [inlineLinks]link
	})
	o.links = o.l[:n]
	return &o.record
}

// link is one of a record's facts: its place in that fact's list of the
// records standing on it. list and rec are fixed when the record links;
// prev and next belong to the list, under its fact shard's lock.
type link struct {
	prev, next *link
	list       *factList
	rec        *record
}

// factList is the records standing on one (host, key) fact, most recently
// linked first.
type factList struct {
	head *link
	host *hostFacts
	key  string
}

// hostFacts is one host's fact lists: its marker's, and one per key some
// live record read there. A host has a few keys, so a key's list is found by
// a linear scan of them — no key string is ever hashed. A list is removed
// when its last link goes, and the host with its last list.
type hostFacts struct {
	ip     netaddr.IP
	marker factList
	keys   []*factList
}

// find returns the host's list for key, nil when no live record read it.
func (h *hostFacts) find(key string) *factList {
	if key == "" {
		return &h.marker
	}
	for _, l := range h.keys {
		if l.key == key {
			return l
		}
	}
	return nil
}

// factShard is one lock domain of the fact side: the hosts whose IPs hash to
// it, with every list of theirs. The flows and the classes behind a fact sit
// in one list, so one Resolve is one snapshot of everything standing on it:
// no link made before the lock was taken is missed, of either kind.
type factShard struct {
	mu    sync.Mutex
	hosts map[netaddr.IP]*hostFacts
}

// keyShard is one lock domain of the key→record side. live counts the
// records of each kind, so occupancy is read without a walk.
type keyShard struct {
	mu      sync.Mutex
	records map[key]*record
	live    [2]int
}

// Index is the sharded fact-dependency index. All methods are safe for
// concurrent use. A record's key-shard lock is held for as long as its links
// are spliced in or out, each splice under the fact shard's lock: locks are
// always taken key before fact, and never two fact locks at once, so a
// Register and a Drop of one key are serialized whole — no link a racing
// Register makes survives the Drop after it. Resolve, Hosts and Expired take
// one side's locks only, and read nothing a record changes after it is
// published.
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

func (ix *Index) factShard(host netaddr.IP) *factShard {
	return &ix.factShards[uint64(host)*0x9e3779b97f4a7c15>>32&ix.mask]
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
// under the same key (re-decided flows re-register; the old record is
// unlinked first so the index never accretes). A fact listed twice — the
// marker of a flow whose two ends are one host — is linked once.
func (ix *Index) Register(r Registration) {
	distinct := 0
	for i := range r.Facts {
		if !repeated(r.Facts, i) {
			distinct++
		}
	}
	rec := newRecord(distinct)
	if !r.Lease.IsZero() {
		rec.lease = r.Lease.UnixNano()
	}
	rec.paths = append(rec.inline[:0:len(rec.inline)], r.Paths...)
	k, ks := ix.lock(Key{Flow: r.Flow, Class: r.Class})
	rec.key = k
	if old := ks.records[k]; old != nil {
		ix.unlink(old)
	} else {
		ks.live[k.kind()]++
	}
	ks.records[k] = rec
	ix.link(rec, r.Facts)
	ks.mu.Unlock()
	ix.counts[k.kind()].registered.Add(1)
}

// repeated reports whether facts[i] is listed earlier in facts.
func repeated(facts []Fact, i int) bool {
	for _, f := range facts[:i] {
		if f == facts[i] {
			return true
		}
	}
	return false
}

// link splices rec's links into the lists of facts' distinct entries,
// creating any list or host missing. The caller holds rec's key-shard lock;
// the fact shards are locked one at a time, once per run of facts that
// share one.
func (ix *Index) link(rec *record, facts []Fact) {
	var sh *factShard
	var h *hostFacts
	n := 0
	for i, f := range facts {
		if repeated(facts, i) {
			continue
		}
		if h == nil || h.ip != f.Host {
			if next := ix.factShard(f.Host); next != sh {
				if sh != nil {
					sh.mu.Unlock()
				}
				sh = next
				sh.mu.Lock()
			}
			if h = sh.hosts[f.Host]; h == nil {
				h = &hostFacts{ip: f.Host}
				h.marker.host = h
				sh.hosts[f.Host] = h
			}
		}
		list := h.find(f.Key)
		if list == nil {
			list = &factList{host: h, key: f.Key}
			h.keys = append(h.keys, list)
		}
		l := &rec.links[n]
		n++
		l.rec, l.list, l.next = rec, list, list.head
		if list.head != nil {
			list.head.prev = l
		}
		list.head = l
	}
	if sh != nil {
		sh.mu.Unlock()
	}
}

// unlink takes rec's links out of their lists, in the order and under the
// locks link took them, and removes every list and host it leaves empty.
func (ix *Index) unlink(rec *record) {
	var sh *factShard
	for i := range rec.links {
		l := &rec.links[i]
		if next := ix.factShard(l.list.host.ip); next != sh {
			if sh != nil {
				sh.mu.Unlock()
			}
			sh = next
			sh.mu.Lock()
		}
		sh.remove(l)
	}
	if sh != nil {
		sh.mu.Unlock()
	}
}

// remove takes l out of its list, and the list out of its host when l was
// its last link, and the host out of the shard when that was its last list.
func (sh *factShard) remove(l *link) {
	list := l.list
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		list.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	}
	l.prev, l.next = nil, nil
	if list.head != nil {
		return
	}
	h := list.host
	if list != &h.marker {
		for i, kl := range h.keys {
			if kl == list {
				last := len(h.keys) - 1
				h.keys[i], h.keys[last] = h.keys[last], nil
				h.keys = h.keys[:last]
				break
			}
		}
	}
	if h.marker.head == nil && len(h.keys) == 0 {
		delete(sh.hosts, h.ip)
	}
}

// Drop removes a flow's record and unlinks its fact dependencies,
// returning its paths and lease for the caller's teardown. ok is false when
// the flow was not registered.
func (ix *Index) Drop(f flow.Five) (Registration, bool) {
	rec := ix.drop(Key{Flow: f})
	if rec == nil {
		return Registration{Flow: f}, false
	}
	reg := Registration{Flow: f, Paths: rec.paths}
	if rec.lease != 0 {
		reg.Lease = time.Unix(0, rec.lease)
	}
	return reg, true
}

// DropClass removes a class's record and unlinks its fact dependencies. ok
// is false when the id was not registered — concurrent teardowns race
// benignly; exactly one caller gets true.
func (ix *Index) DropClass(id uint64) bool {
	return ix.drop(Key{Class: id}) != nil
}

func (ix *Index) drop(of Key) *record {
	k, ks := ix.lock(of)
	rec := ks.records[k]
	if rec != nil {
		delete(ks.records, k)
		ks.live[k.kind()]--
		ix.unlink(rec)
	}
	ks.mu.Unlock()
	if rec != nil {
		ix.counts[k.kind()].dropped.Add(1)
	}
	return rec
}

// Resolve returns the keys — flows and classes alike — whose verdicts
// depend on (host, name), appended to dst, in one pass under the fact's
// shard lock. Key "" resolves the host-scope marker: everything with any
// dependency on the host.
func (ix *Index) Resolve(host netaddr.IP, name string, dst []Key) []Key {
	sh := ix.factShard(host)
	sh.mu.Lock()
	for l := sh.head(host, name); l != nil; l = l.next {
		dst = append(dst, l.rec.key.unpack())
	}
	sh.mu.Unlock()
	return dst
}

// ResolveFact is Resolve narrowed to the flows: the keys of verdicts that
// are not cached, appended to dst.
func (ix *Index) ResolveFact(host netaddr.IP, name string, dst []flow.Five) []flow.Five {
	sh := ix.factShard(host)
	sh.mu.Lock()
	for l := sh.head(host, name); l != nil; l = l.next {
		if k := l.rec.key; k.kind() == flowKind {
			dst = append(dst, k.unpack().Flow)
		}
	}
	sh.mu.Unlock()
	return dst
}

// head is the first link of (host, name)'s list, nil when nothing stands on it.
func (sh *factShard) head(host netaddr.IP, name string) *link {
	if h := sh.hosts[host]; h != nil {
		if list := h.find(name); list != nil {
			return list.head
		}
	}
	return nil
}

// Expired returns the keys whose lease deadline has passed at now, appended
// to dst. The walk is per-shard under that shard's lock only; callers tear
// the returned keys down through the normal pipeline (which drops them).
func (ix *Index) Expired(now time.Time, dst []Key) []Key {
	t := now.UnixNano()
	for i := range ix.keyShards {
		ks := &ix.keyShards[i]
		ks.mu.Lock()
		for k, rec := range ks.records {
			if rec.lease != 0 && t > rec.lease {
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
// cache lines are being flushed wholesale anyway). Every key shard is held
// while the fact side empties — key locks before fact locks, as everywhere
// — so no Register or Drop straddles the flush. Push-capability marks
// survive — they describe daemons, not decisions.
func (ix *Index) FlushAll() {
	for i := range ix.keyShards {
		ix.keyShards[i].mu.Lock()
	}
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		sh.hosts = make(map[netaddr.IP]*hostFacts)
		sh.mu.Unlock()
	}
	for i := range ix.keyShards {
		ks := &ix.keyShards[i]
		ks.records = make(map[key]*record)
		ks.live = [2]int{}
		ks.mu.Unlock()
	}
}

// HostStat is one host's dependency footprint: how many live flow records
// and class (cached-verdict) records read facts from it, and whether its
// daemon has proven it pushes updates (facts lease-free).
type HostStat struct {
	Host    netaddr.IP
	Flows   int
	Classes int
	Push    bool
}

// Hosts snapshots the per-host dependency view, appended to dst and sorted
// by host address. It walks each host's marker list, which holds every
// record that read the host, so the count is exact without a key-side scan.
// Shards are locked one at a time; the result is per-shard consistent.
func (ix *Index) Hosts(dst []HostStat) []HostStat {
	start := len(dst)
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		for ip, h := range sh.hosts {
			if h.marker.head == nil {
				continue
			}
			var n [2]int
			for l := h.marker.head; l != nil; l = l.next {
				n[l.rec.key.kind()]++
			}
			dst = append(dst, HostStat{Host: ip, Flows: n[flowKind], Classes: n[classKind]})
		}
		sh.mu.Unlock()
	}
	ix.pushMu.RLock()
	for i := range dst[start:] {
		dst[start+i].Push = ix.push[dst[start+i].Host]
	}
	ix.pushMu.RUnlock()
	sort.Slice(dst, func(i, j int) bool { return dst[i].Host < dst[j].Host })
	return dst
}

// Stats reports resident flow records and their lifetime register/drop
// counts.
func (ix *Index) Stats() (live int, registered, dropped int64) { return ix.stats(flowKind) }

// ClassStats is Stats for the class records.
func (ix *Index) ClassStats() (live int, registered, dropped int64) { return ix.stats(classKind) }

func (ix *Index) stats(kind int) (live int, registered, dropped int64) {
	for i := range ix.keyShards {
		ks := &ix.keyShards[i]
		ks.mu.Lock()
		live += ks.live[kind]
		ks.mu.Unlock()
	}
	return live, ix.counts[kind].registered.Load(), ix.counts[kind].dropped.Load()
}
