// Package revoke implements the controller side of the revocation plane's
// bookkeeping: a sharded fact-dependency index mapping endpoint facts —
// (host, key) pairs a verdict actually read — to the verdicts whose cached
// decisions and installed entries depend on them.
//
// The controller registers one dependency record per verdict when it
// installs or caches a decision; the facts come from the compiled policy's
// per-flow static key analysis (the same analysis behind query-key hints
// and the header-only pre-pass). A record links once per host it read,
// carrying the set of keys it read there, and once per listener fact, so a
// daemon's listener update resolves to the exact set of affected verdicts in
// O(affected), and any other update to one walk of one host's records —
// never a table scan across every cached flow.
//
// Hosts whose daemons never push updates (the honest-but-legacy case) get
// no revocation channel; their registrations carry a lease deadline
// instead, and the controller periodically tears down expired leases —
// the short-lived-credential workaround the delegation literature reaches
// for when no revocation channel exists, honored by the same index and
// the same teardown pipeline.
package revoke

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// Fact names one endpoint fact a decision depended on. A registration that
// lists any fact at a host read the host, and Key "" says that alone: the
// end was read, whatever keys it answered with. Resolve with Key "" means
// any fact at the host — every record that read it — which is what host-wide
// invalidations (serial-gap resyncs, daemon restarts, operator "revoke
// everything about this host") resolve, without a separate host table. A
// listener fact (ListenerKey) stands for the answer a host gave at a
// listener's scope: the daemon's one update at that scope resolves every
// verdict that took it, however many flows they are.
type Fact struct {
	Host netaddr.IP
	Key  string
}

// listenerPrefix opens every listener fact's Key.
const listenerPrefix = "listener:"

// ListenerKey is the Key of the listener fact for the answer given at the
// listener on port over proto. It holds a colon, which no fact key read from
// a response can (the response line splits at its first one), so it names
// no fact a policy reads.
func ListenerKey(proto netaddr.Proto, port netaddr.Port) string {
	return listenerPrefix + strconv.Itoa(int(proto)) + "/" + strconv.Itoa(int(port))
}

// isListener reports whether key names a listener fact, which has a list of
// its own; any other key is a plain one, held in its host link's key set.
func isListener(key string) bool { return strings.HasPrefix(key, listenerPrefix) }

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
// both. A Registration returned by Drop carries Paths and Lease only, and
// its Paths are the caller's to keep: nothing writes them again.
type Registration struct {
	Flow  flow.Five
	Class uint64
	Facts []Fact
	Paths []uint64
	Lease time.Time
}

// record is one verdict's dependency record, one allocation (newRecord):
// its packed key, its lease (Unix nanoseconds, 0 for none), its installed
// paths (keyShard.intern: a list no record writes) and one link per host it
// read and per listener fact it took. Only the links' neighbours change
// after Register publishes it, until a Drop or a replacing Register recycles
// it (keyShard.recycle).
type record struct {
	key   key
	lease int64
	paths []uint64
	links []link
}

// newRecord allocates a record with n links, as one object for up to three:
// a record is a couple of hundred bytes per installed verdict, and their sum
// is most of the index's footprint. The controller's usual shape is two
// hosts, and three with a listener fact — 152 and 192 bytes; each gets an
// object of its own size, and a free list of its own (sizeClass).
func newRecord(n int) *record {
	switch sizeClass(n) {
	case 0:
		o := new(struct {
			record
			l [2]link
		})
		o.links = o.l[:n]
		return &o.record
	case 1:
		o := new(struct {
			record
			l [3]link
		})
		o.links = o.l[:n]
		return &o.record
	}
	return &record{links: make([]link, n)}
}

// sizeClass is the free list of a record with room for n links: 0 for two,
// 1 for three, -1 for a larger one, which is not recycled.
func sizeClass(n int) int {
	switch {
	case n <= 2:
		return 0
	case n == 3:
		return 1
	}
	return -1
}

// link is one of a record's places in the fact side: in its host's list,
// with keys the plain keys it read there (nil for none), or in a listener
// fact's list, with keys nil. list, rec and keys are fixed when the record
// links; prev and next belong to the list, under its fact shard's lock.
type link struct {
	prev, next *link
	list       *factList
	rec        *record
	keys       *keySet
}

// keySet is a sorted set of plain keys read at one host, interned per fact
// shard (factShard.keySet) and never written: every link with the same set
// shares it.
type keySet struct{ keys []string }

// has reports whether key is in the set; a nil set has no key.
func (s *keySet) has(key string) bool {
	return s != nil && slices.Contains(s.keys, key)
}

// factList is the records standing on one host or one listener fact, most
// recently linked first. key is "" for a host's list.
type factList struct {
	head *link
	host *hostFacts
	key  string
}

// hostFacts is one host's fact lists: all, with one link per live record
// that read the host, and one per listener fact some live record took
// there. A host has a few listeners, so a listener's list is found by a
// linear scan of them, not by hashing its key. A list is removed
// when its last link goes, and the host with its last list, so the fact side
// holds only what live records stand on; both go to their shard's free lists
// for the next verdict that reads a fact anew.
type hostFacts struct {
	ip        netaddr.IP
	all       factList
	listeners []*factList
}

// find returns the list (host, key) is linked into: the host's own for any
// key but a listener's, nil for a listener fact no live record took.
func (h *hostFacts) find(key string) *factList {
	if !isListener(key) {
		return &h.all
	}
	for _, l := range h.listeners {
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

	// freeHosts and freeLists keep hosts and lists remove took out, for the
	// next link that needs one: each holds at most maxFree.
	freeHosts []*hostFacts
	freeLists []*factList

	// sets interns the key sets of this shard's host links, under their
	// sorted keys joined, each ended by a 0 byte; collect and name are
	// keySet's scratch.
	sets    map[string]*keySet
	collect []string
	name    []byte
}

// host returns an empty host for ip, recycled when the free list has one.
func (sh *factShard) host(ip netaddr.IP) *hostFacts {
	var h *hostFacts
	if n := len(sh.freeHosts); n > 0 {
		h = sh.freeHosts[n-1]
		sh.freeHosts[n-1] = nil
		sh.freeHosts = sh.freeHosts[:n-1]
	} else {
		h = new(hostFacts)
	}
	h.ip = ip
	h.all.host = h
	return h
}

// list returns an empty list for key at h, recycled when the free list has
// one.
func (sh *factShard) list(h *hostFacts, key string) *factList {
	var l *factList
	if n := len(sh.freeLists); n > 0 {
		l = sh.freeLists[n-1]
		sh.freeLists[n-1] = nil
		sh.freeLists = sh.freeLists[:n-1]
	} else {
		l = new(factList)
	}
	l.host, l.key = h, key
	return l
}

// keySet returns the interned set of the plain keys facts list at h, nil
// when they list none: the set one of h's two newest links carries when it
// holds the same keys, or else the one set the shard holds under the keys'
// sorted names, joined. The links spare about three Registers in four the
// join and the hash: in the setup_miss and revoke_churn benchmark runs 67 %
// of the calls took the newest link's set and 9 % the one before it
// (BENCH_55.json "keyset_share"). Past maxSets a set nothing interned yet
// is a copy of its own.
func (sh *factShard) keySet(h *hostFacts, facts []Fact) *keySet {
	keys := sh.collect[:0]
	for _, f := range facts {
		if f.Host == h.ip && f.Key != "" && !isListener(f.Key) && !slices.Contains(keys, f.Key) {
			keys = append(keys, f.Key)
		}
	}
	sh.collect = keys
	if len(keys) == 0 {
		return nil
	}
	slices.Sort(keys)
	for l, n := h.all.head, 0; l != nil && n < 2; l, n = l.next, n+1 {
		if l.keys != nil && slices.Equal(l.keys.keys, keys) {
			return l.keys
		}
	}
	name := sh.name[:0]
	for _, k := range keys {
		name = append(append(name, k...), 0)
	}
	sh.name = name
	if s, ok := sh.sets[string(name)]; ok {
		return s
	}
	s := &keySet{keys: slices.Clone(keys)}
	if len(sh.sets) < maxSets {
		sh.sets[string(name)] = s
	}
	return s
}

// keyShard is one lock domain of the key→record side. live counts the
// records of each kind, so occupancy is read without a walk. free keeps
// records a Drop or a replacing Register unlinked, per sizeClass, for the
// next Register; paths is the path lists its records share (intern).
type keyShard struct {
	mu      sync.Mutex
	records map[key]*record
	live    [2]int
	free    [2][]*record
	paths   map[pathKey][]uint64
}

const (
	// maxFree bounds each free list of hosts or fact lists of a shard: a
	// mass teardown leaves no more than this many waiting. A free list of
	// records holds this many, or one for every two live records of its
	// shard when that is more (keyShard.recycle).
	maxFree = 256
	// maxFreeListeners is the most listener lists a recycled host keeps
	// room for.
	maxFreeListeners = 8
	// maxPaths bounds a key shard's interned path lists. Their number is the
	// routes the controller installs along, not its flows; past the bound a
	// record gets a copy of its own.
	maxPaths = 1024
	// maxSets bounds a fact shard's interned key sets. Their number is the
	// key combinations the policy reads at one end, not its flows.
	maxSets = 256
)

// pathKey is a path list of up to four datapaths as intern keys it.
type pathKey struct {
	n   int
	ids [4]uint64
}

// intern returns a list equal to paths that nothing writes: the one every
// record with the same list shares, or, for a list too long to key or past
// maxPaths, a copy of its own. A record's paths outlive it in the hands of
// Drop's caller, so they must not live in the recycled record.
func (ks *keyShard) intern(paths []uint64) []uint64 {
	var pk pathKey
	switch {
	case len(paths) == 0:
		return nil
	case len(paths) > len(pk.ids):
		return slices.Clip(slices.Clone(paths))
	}
	pk.n = copy(pk.ids[:], paths)
	if p, ok := ks.paths[pk]; ok {
		return p
	}
	p := slices.Clip(slices.Clone(paths))
	if len(ks.paths) < maxPaths {
		ks.paths[pk] = p
	}
	return p
}

// record returns a record with n links for Register, recycled when its free
// list has one.
func (ks *keyShard) record(n int) *record {
	if c := sizeClass(n); c >= 0 {
		if free := ks.free[c]; len(free) > 0 {
			rec := free[len(free)-1]
			free[len(free)-1] = nil
			ks.free[c] = free[:len(free)-1]
			rec.links = rec.links[:n]
			return rec
		}
	}
	return newRecord(n)
}

// recycle keeps rec, unlinked from every list and out of records, for the
// next Register, unless its free list is full: it holds maxFree records and
// one for every two live ones. A table that turns over swings by hundreds of
// records around its size as drops run ahead of registers, so a bound that
// grows with the table lets the same records serve it swing after swing,
// where a fixed one would shed the excess of every swing as garbage; a mass
// teardown still leaves at most a third of the records it had waiting.
// Resolve and Hosts read records only through lists, under a fact lock
// unlink took after them, so none of them can see it change.
func (ks *keyShard) recycle(rec *record) {
	c := sizeClass(cap(rec.links))
	if c < 0 {
		return
	}
	if n := len(ks.free[c]); n >= maxFree && n >= (ks.live[0]+ks.live[1])/2 {
		return
	}
	clear(rec.links[:cap(rec.links)])
	*rec = record{links: rec.links[:0]}
	ks.free[c] = append(ks.free[c], rec)
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
// unlinked first so the index never accretes). Every host the facts name is
// linked once, however many of its facts they list — a flow whose two ends
// are one host lists it twice — and so is every distinct listener fact. In
// the steady state it allocates nothing: the record is a recycled one, the
// paths an interned list, each key set an interned one, and a list or host
// it links into anew a recycled one.
func (ix *Index) Register(r Registration) {
	n := 0
	for i := range r.Facts {
		host, listener := links(r.Facts, i)
		if host {
			n++
		}
		if listener {
			n++
		}
	}
	k, ks := ix.lock(Key{Flow: r.Flow, Class: r.Class})
	if old := ks.records[k]; old != nil {
		ix.unlink(old)
		ks.recycle(old)
	} else {
		ks.live[k.kind()]++
	}
	rec := ks.record(n)
	rec.key = k
	if !r.Lease.IsZero() {
		rec.lease = r.Lease.UnixNano()
	}
	rec.paths = ks.intern(r.Paths)
	ks.records[k] = rec
	ix.link(rec, r.Facts)
	ks.mu.Unlock()
	ix.counts[k.kind()].registered.Add(1)
}

// links reports what facts[i] links: its host, when it is the first fact
// listed there, and its listener fact, when it is one listed for the first
// time.
func links(facts []Fact, i int) (host, listener bool) {
	f := facts[i]
	host, listener = true, isListener(f.Key)
	for _, g := range facts[:i] {
		if g.Host == f.Host {
			host = false
			listener = listener && g.Key != f.Key
		}
	}
	return host, listener
}

// link splices rec's links in: one into the list of each host facts name,
// with the set of plain keys they list there, and one into the list of each
// distinct listener fact, creating any list or host missing. The caller
// holds rec's key-shard lock; the fact shards are locked one at a time, once
// per run of facts that share one.
func (ix *Index) link(rec *record, facts []Fact) {
	var sh *factShard
	var h *hostFacts
	n := 0
	splice := func(list *factList, keys *keySet) {
		l := &rec.links[n]
		n++
		l.rec, l.list, l.keys, l.next = rec, list, keys, list.head
		if list.head != nil {
			list.head.prev = l
		}
		list.head = l
	}
	for i, f := range facts {
		first, listener := links(facts, i)
		if !first && !listener {
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
				h = sh.host(f.Host)
				sh.hosts[f.Host] = h
			}
		}
		if first {
			splice(&h.all, sh.keySet(h, facts[i:]))
		}
		if listener {
			list := h.find(f.Key)
			if list == nil {
				list = sh.list(h, f.Key)
				h.listeners = append(h.listeners, list)
			}
			splice(list, nil)
		}
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
// What it takes out goes to the shard's free lists while they have room.
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
	if list != &h.all {
		i := slices.Index(h.listeners, list)
		last := len(h.listeners) - 1
		h.listeners[i], h.listeners[last] = h.listeners[last], nil
		h.listeners = h.listeners[:last]
		if len(sh.freeLists) < maxFree {
			*list = factList{}
			sh.freeLists = append(sh.freeLists, list)
		}
	}
	if h.all.head != nil || len(h.listeners) > 0 {
		return
	}
	delete(sh.hosts, h.ip)
	if len(sh.freeHosts) < maxFree {
		listeners := h.listeners
		if cap(listeners) > maxFreeListeners {
			listeners = nil
		}
		*h = hostFacts{listeners: listeners}
		sh.freeHosts = append(sh.freeHosts, h)
	}
}

// Drop removes a flow's record and unlinks its fact dependencies,
// returning its paths and lease for the caller's teardown. ok is false when
// the flow was not registered.
func (ix *Index) Drop(f flow.Five) (Registration, bool) {
	reg := Registration{Flow: f}
	ok := ix.drop(Key{Flow: f}, &reg)
	return reg, ok
}

// DropClass removes a class's record and unlinks its fact dependencies. ok
// is false when the id was not registered — concurrent teardowns race
// benignly; exactly one caller gets true.
func (ix *Index) DropClass(id uint64) bool {
	return ix.drop(Key{Class: id}, nil)
}

// drop removes of's record, copying its paths and lease into reg when reg is
// not nil, and recycles it.
func (ix *Index) drop(of Key, reg *Registration) bool {
	k, ks := ix.lock(of)
	rec := ks.records[k]
	if rec != nil {
		delete(ks.records, k)
		ks.live[k.kind()]--
		ix.unlink(rec)
		if reg != nil {
			reg.Paths = rec.paths
			if rec.lease != 0 {
				reg.Lease = time.Unix(0, rec.lease)
			}
		}
		ks.recycle(rec)
	}
	ks.mu.Unlock()
	if rec != nil {
		ix.counts[k.kind()].dropped.Add(1)
	}
	return rec != nil
}

// Resolve returns the keys — flows and classes alike — whose verdicts
// depend on (host, name), appended to dst, in one pass under the fact's
// shard lock. Key "" resolves any fact at the host: everything that read it.
// A listener fact walks its own list; a plain key walks the host's, keeping
// the records whose key set holds it.
func (ix *Index) Resolve(host netaddr.IP, name string, dst []Key) []Key {
	sh := ix.factShard(host)
	sh.mu.Lock()
	l, want := sh.head(host, name)
	for ; l != nil; l = l.next {
		if want == "" || l.keys.has(want) {
			dst = append(dst, l.rec.key.unpack())
		}
	}
	sh.mu.Unlock()
	return dst
}

// ResolveFact is Resolve narrowed to the flows: the keys of verdicts that
// are not cached, appended to dst.
func (ix *Index) ResolveFact(host netaddr.IP, name string, dst []flow.Five) []flow.Five {
	sh := ix.factShard(host)
	sh.mu.Lock()
	l, want := sh.head(host, name)
	for ; l != nil; l = l.next {
		if k := l.rec.key; k.kind() == flowKind && (want == "" || l.keys.has(want)) {
			dst = append(dst, k.unpack().Flow)
		}
	}
	sh.mu.Unlock()
	return dst
}

// head is the first link of the list (host, name) is linked into, nil when
// nothing stands on it, and the key a link's set must hold for its record to
// stand on the fact: "" when every link's does — on the host's list for
// any fact at the host, on a listener fact's own list.
func (sh *factShard) head(host netaddr.IP, name string) (*link, string) {
	want := name
	if isListener(name) {
		want = ""
	}
	if h := sh.hosts[host]; h != nil {
		if list := h.find(name); list != nil {
			return list.head, want
		}
	}
	return nil, want
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
		sh.freeHosts, sh.freeLists = nil, nil
		sh.sets = make(map[string]*keySet)
		sh.mu.Unlock()
	}
	for i := range ix.keyShards {
		ks := &ix.keyShards[i]
		ks.records = make(map[key]*record)
		ks.live = [2]int{}
		ks.free = [2][]*record{}
		ks.paths = make(map[pathKey][]uint64)
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
// by host address. It walks each host's list, which holds every record that
// read the host once, so the count is exact without a key-side scan.
// Shards are locked one at a time; the result is per-shard consistent.
func (ix *Index) Hosts(dst []HostStat) []HostStat {
	start := len(dst)
	for i := range ix.factShards {
		sh := &ix.factShards[i]
		sh.mu.Lock()
		for ip, h := range sh.hosts {
			if h.all.head == nil {
				continue
			}
			var n [2]int
			for l := h.all.head; l != nil; l = l.next {
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
