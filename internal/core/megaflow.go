package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/pf"
)

// The megaTable is the controller's one verdict cache (§3.4: the decision
// is what gets cached — as flow entries along the path, and here). Every
// cacheable full decision inserts one entry keyed by the decided flow's
// tuple under a field mask, and a later flow agreeing with it on the
// masked fields takes the stored verdict in a single table probe — no
// query, no evaluation. The mask is the whole tuple by default (an exact
// entry: the class is the one flow). With Config.Megaflow it is the
// field-use trace (pf.EvaluateTraced) — the Open vSwitch megaflow insight
// applied to the paper's controller: the trace reports which header fields
// the matched path actually consumed, every flow agreeing with the decided
// flow on exactly those fields takes the same path through the program and
// gets the same verdict, so one widened entry serves the whole traffic
// equivalence class.
//
// Correctness leans on three invariants:
//
//   - Entries are pinned to the policy epoch and to ResponseCacheTTL, so
//     SetPolicy and expiry invalidate every cached verdict identically.
//     Expiry ends an entry's hits, not the flows installed under it: no
//     delete is sent — switch entries idle out (see megaEntry.aged).
//   - The entry's dependency record in the revocation index (keyed by the
//     entry's id) is the one record of every verdict installed under it,
//     the founder's included: every member's switch entries carry the
//     class's cookie and every datapath they touched is in its paths, so
//     a daemon-pushed update tears the whole class down in O(affected)
//     with one delete per datapath. The trace forces a queried end's IP
//     and port into the mask, so every member of a class shares the
//     traced end — the facts of one member are the facts of all.
//   - A teardown racing a member's in-flight hit is settled by the dead
//     flag: the teardown's path snapshot is taken under the entry lock,
//     and a hit that installed entries after the snapshot finds
//     addPaths refused and deletes its own installs (the hit self-
//     cleans). Either the teardown saw the paths or the hit cleans up;
//     no switch entry survives unaccounted.

// megaKey identifies one equivalence class: the founder's tuple with
// untraced fields zeroed, plus the mask itself (the same masked bytes
// under different masks are different classes).
type megaKey struct {
	masked flow.Five
	mask   uint8
}

// megaEntry is one cached verdict. The verdict fields are copies — no
// response views are retained, so the entry never pins pooled memory and
// responses never outlive the decision that gathered them.
type megaEntry struct {
	id      uint64 // its members' cookie is cookies.class(id)
	founder flow.Five
	masked  flow.Five
	mask    uint8
	epoch   uint64
	expires time.Time

	action    pf.Action
	rule      *pf.Rule
	matched   bool
	keepState bool

	// aged is set, under the shard lock, when a sweep finds the entry expired
	// but announced (see announced) and leaves it in place: it serves no hit
	// and blocks no founder, as any expired entry, but its flow's switch
	// entries may outlive it by hours and it stays their record — a fact
	// update, a lease or a flow-removed finds it as it would a serving entry
	// — until one of those retires it or the flow's next verdict takes the
	// class over. It has been counted out of the cache, and whatever retires
	// it later counts nothing more.
	aged bool

	// dead flips exactly once, under mu, when the entry is retired;
	// lookup reads it lock-free (a stale read is settled by addPaths).
	// paths accumulates every datapath a member's install touched, so
	// teardown deletes everywhere the class left state.
	dead  atomic.Bool
	mu    sync.Mutex
	paths []uint64
}

// addPaths merges a member decision's installed datapaths into the
// entry's teardown set. ok=false means the entry was retired first: the
// member's installs postdate the teardown's path snapshot and the
// caller must delete them itself.
func (e *megaEntry) addPaths(ids []uint64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead.Load() {
		return false
	}
	for _, id := range ids {
		e.paths = appendPathID(e.paths, id)
	}
	return true
}

// announced reports whether the network will say when the entry's installed
// state is gone: it is one flow's own, that flow passes, and entries went
// in — the ingress one asking for a flow-removed. Nothing reports the end
// of a drop entry or of a wider class's members.
func (e *megaEntry) announced() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mask == pf.TraceAllFields && e.action == pf.Pass && len(e.paths) > 0 && !e.dead.Load()
}

// kill retires the entry, returning its path snapshot. ok=false means
// another retirer won; exactly one caller performs the teardown.
func (e *megaEntry) kill() ([]uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead.Load() {
		return nil, false
	}
	e.dead.Store(true)
	return e.paths, true
}

// megaShard is one lock domain of the class table.
type megaShard struct {
	mu        sync.Mutex
	entries   map[megaKey]*megaEntry
	lastSweep time.Time
}

// megaTable is the sharded verdict cache. Lookup probes one map per
// active mask: the mask census (maskCounts/active) tracks which of the
// 16 possible field masks have resident entries, so a probe costs
// popcount(active) map reads — exactly one without Config.Megaflow (only
// the full mask is ever resident), in practice one or two with it, since
// a policy produces few distinct masks — instead of 16.
type megaTable struct {
	shards []megaShard
	mask   uint64
	nextID atomic.Uint64 // the last class id issued: ids count up from 1

	byIDMu sync.Mutex
	byID   map[uint64]*megaEntry

	maskMu     sync.Mutex
	maskCounts [16]int
	active     atomic.Uint32 // bitset over masks with resident entries
}

func newMegaTable(n int) *megaTable {
	n = ceilPow2(n)
	t := &megaTable{
		shards: make([]megaShard, n),
		mask:   uint64(n - 1),
	}
	t.flushAll()
	return t
}

func (t *megaTable) shardFor(k megaKey) *megaShard {
	h := k.masked.Hash() ^ (uint64(k.mask) * 0x9e3779b97f4a7c15)
	return &t.shards[h&t.mask]
}

// maskCount moves mask m's census by d (an entry in: +1, out: -1).
func (t *megaTable) maskCount(m uint8, d int) {
	t.maskMu.Lock()
	t.maskCounts[m] += d
	if t.maskCounts[m] == 0 {
		t.active.Store(t.active.Load() &^ (1 << m))
	} else {
		t.active.Store(t.active.Load() | 1<<m)
	}
	t.maskMu.Unlock()
}

// resident returns whatever entry occupies class slot k — live, stale, aged
// or dead — or nil.
func (t *megaTable) resident(k megaKey) *megaEntry {
	sh := t.shardFor(k)
	sh.mu.Lock()
	e := sh.entries[k]
	sh.mu.Unlock()
	return e
}

// lookup probes the active masks for a live, current-epoch, unexpired
// entry covering f.
func (t *megaTable) lookup(f flow.Five, now time.Time, epoch uint64) *megaEntry {
	active := t.active.Load()
	for active != 0 {
		m := uint8(bits.TrailingZeros32(active))
		active &= active - 1
		e := t.resident(megaKey{masked: pf.Trace{Fields: m}.Mask(f), mask: m})
		if e != nil && e.epoch == epoch && now.Before(e.expires) && !e.dead.Load() {
			return e
		}
	}
	return nil
}

// insert publishes e unless a live entry for the same class is already
// resident (a founder race: the caller joins the resident as a member;
// resident is nil when e went in). The opportunistic per-shard TTL sweep
// unmaps every expired entry except the announced ones, which it marks aged
// and leaves in place, and e takes its class over from whatever held it — a
// stale resident (dead, expired, old epoch) or an aged entry, whose flow's
// switch entries the install that follows replaces. aged counts the entries
// newly marked; swept returns the others unmapped, and the resident taken
// over, for the caller to retire.
func (t *megaTable) insert(e *megaEntry, now time.Time, ttl time.Duration) (resident *megaEntry, aged int, swept []*megaEntry) {
	k := megaKey{masked: e.masked, mask: e.mask}
	sh := t.shardFor(k)
	sh.mu.Lock()
	if sh.lastSweep.IsZero() {
		sh.lastSweep = now
	} else if now.Sub(sh.lastSweep) >= ttl {
		for ok, old := range sh.entries {
			if ok == k || old.aged || now.Before(old.expires) {
				continue
			}
			if old.announced() {
				old.aged = true
				aged++
			} else {
				delete(sh.entries, ok)
				swept = append(swept, old)
			}
		}
		sh.lastSweep = now
	}
	res, ok := sh.entries[k]
	if ok && res.epoch == e.epoch && now.Before(res.expires) && !res.dead.Load() {
		sh.mu.Unlock()
		return res, aged, swept
	}
	if ok {
		swept = append(swept, res)
	}
	sh.entries[k] = e
	sh.mu.Unlock()
	t.byIDMu.Lock()
	t.byID[e.id] = e
	t.byIDMu.Unlock()
	t.maskCount(e.mask, +1)
	return nil, aged, swept
}

// get resolves a class record's id back to its entry.
func (t *megaTable) get(id uint64) *megaEntry {
	t.byIDMu.Lock()
	e := t.byID[id]
	t.byIDMu.Unlock()
	return e
}

// exact returns the entry whose class is the single flow f (a full-mask
// entry) — serving, stale, dead or aged; nil when there is none.
func (t *megaTable) exact(f flow.Five) *megaEntry {
	return t.resident(megaKey{masked: f, mask: pf.TraceAllFields})
}

// retire kills e and unlinks it from its class slot (when it is still
// there: a sweep or the class's next entry has already unmapped it), the id
// map and the mask census, returning its installed-path snapshot. Exactly
// one caller gets ok=true per entry.
func (t *megaTable) retire(e *megaEntry) ([]uint64, bool) {
	paths, ok := e.kill()
	if !ok {
		return nil, false
	}
	k := megaKey{masked: e.masked, mask: e.mask}
	sh := t.shardFor(k)
	sh.mu.Lock()
	if sh.entries[k] == e {
		delete(sh.entries, k)
	}
	sh.mu.Unlock()
	t.byIDMu.Lock()
	delete(t.byID, e.id)
	t.byIDMu.Unlock()
	t.maskCount(e.mask, -1)
	return paths, true
}

// covering returns the live entries whose class contains f, across all
// active masks — the teardown-side dual of lookup, indifferent to epoch
// and expiry (a stale covering entry must still be torn down: its
// switch entries are live until someone deletes them).
func (t *megaTable) covering(f flow.Five, dst []*megaEntry) []*megaEntry {
	active := t.active.Load()
	for active != 0 {
		m := uint8(bits.TrailingZeros32(active))
		active &= active - 1
		e := t.resident(megaKey{masked: pf.Trace{Fields: m}.Mask(f), mask: m})
		if e != nil && !e.dead.Load() {
			dst = append(dst, e)
		}
	}
	return dst
}

// flushAll empties the table and kills every entry in it, so member hits
// in flight across a policy swap find addPaths refused and clean up after
// themselves instead of appending to an unreachable entry.
func (t *megaTable) flushAll() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		old := sh.entries
		sh.entries = make(map[megaKey]*megaEntry)
		sh.lastSweep = time.Time{}
		sh.mu.Unlock()
		for _, e := range old {
			e.kill()
		}
	}
	t.byIDMu.Lock()
	t.byID = make(map[uint64]*megaEntry)
	t.byIDMu.Unlock()
	t.maskMu.Lock()
	t.maskCounts = [16]int{}
	t.active.Store(0)
	t.maskMu.Unlock()
}

// live counts the entries a lookup could still serve (current epoch,
// unexpired, not retired); a diagnostics helper for tests and operators.
func (t *megaTable) live(now time.Time, epoch uint64) int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			if e.epoch == epoch && now.Before(e.expires) && !e.dead.Load() {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// megaInstall caches a freshly decided verdict in the class table — under
// the field-use trace's mask with Config.Megaflow, under the full mask (the
// class is the one flow) without — with the facts the trace says it read as
// its one dependency record, and returns the entry the decision installs
// under as a member: its own, or the resident one when another decision
// founded the class first. Runs before install and before the publication
// re-check: a fact update racing this insert either finds the entry (its
// resolve or covering probe runs after it trips the fence, which the
// re-check observes) or the re-check fires and tears the entry straight
// back down — in neither
// interleaving does a cached verdict survive facts it predates.
func (c *Controller) megaInstall(s *decisionScratch, st *ctlState, d pf.Decision, tr pf.Trace) *megaEntry {
	if !c.widen {
		tr.Fields = pf.TraceAllFields
	}
	now := c.clock()
	e := &megaEntry{
		id:        c.mega.nextID.Add(1),
		founder:   s.five,
		masked:    tr.Mask(s.five),
		mask:      tr.Fields,
		epoch:     st.epoch,
		expires:   now.Add(c.cacheTTL),
		action:    d.Action,
		rule:      d.Rule,
		matched:   d.Matched,
		keepState: d.KeepState,
	}
	if c.revoker != nil {
		// Register before publishing: a teardown can only reach the entry
		// through the table, so whichever one finds it also finds (and
		// drops) a complete record. Registered after the insert, a teardown
		// in between dropped an id not yet registered and the late record
		// was never dropped — an index leak.
		reg := c.deps(s, tr.SrcRead, tr.DstRead)
		reg.Class = e.id
		c.revoker.Register(reg)
	}
	resident, expired, swept := c.mega.insert(e, now, c.cacheTTL)
	for _, old := range swept {
		// Expired, not revoked: nothing is deleted under live traffic.
		if _, ok := c.retireMega(old); ok && !old.aged {
			expired++
		}
	}
	if expired > 0 {
		c.Counters.Add("megaflow_expired", int64(expired))
	}
	if resident != nil {
		// Founder race: another decision founded this class first, and this
		// one joins it.
		if c.revoker != nil {
			c.revoker.DropClass(e.id)
		}
		return resident
	}
	c.hot.megaInstalls.Add(1)
	return e
}

// retireMega retires one cached verdict, entry and dependency record, and
// returns every datapath its members' entries went to. ok=false means
// another retirer won and did all of it.
func (c *Controller) retireMega(e *megaEntry) ([]uint64, bool) {
	paths, ok := c.mega.retire(e)
	if ok && c.revoker != nil {
		c.revoker.DropClass(e.id)
	}
	return paths, ok
}

// teardownMega revokes one cached verdict: retired, its installed entries
// deleted, counted as one revoked verdict and audited under the founder's
// tuple. False means another retirer won and did all of it.
func (c *Controller) teardownMega(st *ctlState, e *megaEntry, reason string) bool {
	paths, ok := c.retireMega(e)
	if !ok {
		return false
	}
	c.deleteMegaAt(st, e, paths)
	if !e.aged {
		c.hot.megaTeardowns.Add(1)
	}
	c.hot.revFlows.Add(1)
	c.auditRevoked(e.founder, "(megaflow revoked: "+reason+")")
	return true
}

// MegaflowStats reports the verdict cache's live (current-epoch,
// unexpired) entries and lifetime hit/install/teardown totals. Zeros when
// the cache is off (ResponseCacheTTL 0).
func (c *Controller) MegaflowStats() (live int, hits, installs, teardowns int64) {
	if c.mega == nil {
		return 0, 0, 0, 0
	}
	return c.mega.live(c.clock(), c.state.Load().epoch), c.hot.megaHits.Load(), c.hot.megaInstalls.Load(), c.hot.megaTeardowns.Load()
}
