package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/revoke"
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
//   - Entries whose verdict read endpoint facts register those facts in
//     the revocation index's wide side (one entry ↔ many installed
//     paths), so a daemon-pushed update tears the whole class down in
//     O(affected). The trace forces a queried end's IP and port into the
//     mask, so every member of a class shares the traced end — the facts
//     of one member are the facts of all.
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
	id      uint64
	cookie  uint64 // id<<1: even, disjoint from exact cookies (hash|1, odd)
	founder flow.Five
	masked  flow.Five
	mask    uint8
	epoch   uint64
	expires time.Time

	action    pf.Action
	rule      *pf.Rule
	matched   bool
	keepState bool

	hits atomic.Int64

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
	nextID atomic.Uint64

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
		byID:   make(map[uint64]*megaEntry),
	}
	for i := range t.shards {
		t.shards[i].entries = make(map[megaKey]*megaEntry)
	}
	return t
}

func (t *megaTable) shardFor(k megaKey) *megaShard {
	h := k.masked.Hash() ^ (uint64(k.mask) * 0x9e3779b97f4a7c15)
	return &t.shards[h&t.mask]
}

func (t *megaTable) maskAcquire(m uint8) {
	t.maskMu.Lock()
	t.maskCounts[m]++
	if t.maskCounts[m] == 1 {
		t.active.Store(t.active.Load() | 1<<m)
	}
	t.maskMu.Unlock()
}

func (t *megaTable) maskRelease(m uint8) {
	t.maskMu.Lock()
	t.maskCounts[m]--
	if t.maskCounts[m] == 0 {
		t.active.Store(t.active.Load() &^ (1 << m))
	}
	t.maskMu.Unlock()
}

// resident returns whatever entry occupies class slot k — live, stale or
// dead — or nil.
func (t *megaTable) resident(k megaKey) *megaEntry {
	sh := t.shardFor(k)
	sh.mu.Lock()
	e := sh.entries[k]
	sh.mu.Unlock()
	return e
}

// lookup probes the active masks for a live, current-epoch, unexpired
// entry covering f. The winning entry's hit counter is bumped here so
// the caller's fast path stays load-only.
func (t *megaTable) lookup(f flow.Five, now time.Time, epoch uint64) *megaEntry {
	active := t.active.Load()
	for active != 0 {
		m := uint8(bits.TrailingZeros32(active))
		active &= active - 1
		e := t.resident(megaKey{masked: pf.Trace{Fields: m}.Mask(f), mask: m})
		if e != nil && e.epoch == epoch && now.Before(e.expires) && !e.dead.Load() {
			e.hits.Add(1)
			return e
		}
	}
	return nil
}

// insert publishes e unless a live entry for the same class is already
// resident (a founder race: the caller keeps its own verdict and skips
// the wide registration). A stale resident (dead, expired, old epoch) is
// displaced and returned in swept, along with anything the opportunistic
// per-shard TTL sweep collected; the caller retires swept entries and
// drops their wide registrations. resident is nil when e went in.
func (t *megaTable) insert(e *megaEntry, now time.Time, ttl time.Duration) (resident *megaEntry, swept []*megaEntry) {
	k := megaKey{masked: e.masked, mask: e.mask}
	sh := t.shardFor(k)
	sh.mu.Lock()
	if sh.lastSweep.IsZero() {
		sh.lastSweep = now
	} else if now.Sub(sh.lastSweep) >= ttl {
		for ok, old := range sh.entries {
			if ok != k && !now.Before(old.expires) {
				delete(sh.entries, ok)
				swept = append(swept, old)
			}
		}
		sh.lastSweep = now
	}
	if res, ok := sh.entries[k]; ok {
		if res.epoch == e.epoch && now.Before(res.expires) && !res.dead.Load() {
			sh.mu.Unlock()
			return res, swept
		}
		swept = append(swept, res)
	}
	sh.entries[k] = e
	sh.mu.Unlock()
	t.byIDMu.Lock()
	t.byID[e.id] = e
	t.byIDMu.Unlock()
	t.maskAcquire(e.mask)
	return nil, swept
}

// get resolves a wide-registration id back to its entry.
func (t *megaTable) get(id uint64) *megaEntry {
	t.byIDMu.Lock()
	e := t.byID[id]
	t.byIDMu.Unlock()
	return e
}

// exact returns the resident entry whose class is the single flow f (a
// full-mask entry), dead or stale included; nil when there is none.
func (t *megaTable) exact(f flow.Five) *megaEntry {
	return t.resident(megaKey{masked: f, mask: pf.TraceAllFields})
}

// retire kills e and unlinks it from the id map and the mask census,
// returning its installed-path snapshot. Exactly one caller gets
// ok=true per entry; the shard-map removal is separate (remove) because
// sweep paths have already unmapped the entry.
func (t *megaTable) retire(e *megaEntry) ([]uint64, bool) {
	paths, ok := e.kill()
	if !ok {
		return nil, false
	}
	t.byIDMu.Lock()
	delete(t.byID, e.id)
	t.byIDMu.Unlock()
	t.maskRelease(e.mask)
	return paths, true
}

// remove unmaps e from its class slot if it is still the resident entry.
func (t *megaTable) remove(e *megaEntry) {
	k := megaKey{masked: e.masked, mask: e.mask}
	sh := t.shardFor(k)
	sh.mu.Lock()
	if sh.entries[k] == e {
		delete(sh.entries, k)
	}
	sh.mu.Unlock()
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

// flushAll empties the table and kills every resident entry, so member
// hits in flight across a policy swap find addPaths refused and clean
// up after themselves instead of appending to an unreachable entry.
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
// class is the one flow) without — and registers its fact dependencies in
// the revocation index's wide side. Runs on the decision path after
// install, before the publication re-check: a fact update racing this
// insert either finds the entry (its covering probe runs after its rev
// bump, which the re-check observes) or the re-check fires and tears the
// entry straight back down — in neither interleaving does a cached verdict
// survive facts it predates.
func (c *Controller) megaInstall(s *decisionScratch, st *ctlState, d pf.Decision, tr pf.Trace) {
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
	e.cookie = e.id << 1
	if c.revoker != nil {
		// Register before publishing: a teardown can only reach the entry
		// through the table, so whichever one finds it also finds (and
		// drops) a complete registration. Registered after the insert, a
		// teardown in between dropped an id not yet registered and the
		// late registration was never dropped — a wide-index leak.
		g := &s.gather
		facts := make([]revoke.Fact, 0, 2+len(g.qs.Keys)+len(g.qd.Keys))
		leased := false
		if tr.SrcRead {
			facts = append(facts, revoke.Fact{Host: s.five.SrcIP})
			for _, k := range g.qs.Keys {
				facts = append(facts, revoke.Fact{Host: s.five.SrcIP, Key: k})
			}
			leased = leased || !c.revoker.PushCapable(s.five.SrcIP)
		}
		if tr.DstRead {
			facts = append(facts, revoke.Fact{Host: s.five.DstIP})
			for _, k := range g.qd.Keys {
				facts = append(facts, revoke.Fact{Host: s.five.DstIP, Key: k})
			}
			leased = leased || !c.revoker.PushCapable(s.five.DstIP)
		}
		var lease time.Time
		if c.leaseTTL > 0 && leased && len(facts) > 0 {
			lease = now.Add(c.leaseTTL)
		}
		c.revoker.RegisterWide(e.id, facts, lease)
	}
	resident, swept := c.mega.insert(e, now, c.cacheTTL)
	for _, old := range swept {
		if _, ok := c.mega.retire(old); ok {
			if c.revoker != nil {
				c.revoker.DropWide(old.id)
			}
			c.Counters.Add("megaflow_expired", 1)
		}
	}
	if resident != nil {
		// Founder race: another decision widened this class first. Our
		// own installs carry the exact cookie and our exact registration
		// covers them; nothing to merge.
		if c.revoker != nil {
			c.revoker.DropWide(e.id)
		}
		return
	}
	c.hot.megaInstalls.Add(1)
}

// retireMega retires one cached verdict and deletes the class's installed
// entries at every datapath its members touched, by the entry's cookie
// under an all-fields wildcard — one delete mod per datapath covers every
// member tuple. False means another retirer won and did all of it.
func (c *Controller) retireMega(st *ctlState, e *megaEntry) bool {
	paths, ok := c.mega.retire(e)
	if !ok {
		return false
	}
	c.mega.remove(e)
	if c.revoker != nil {
		c.revoker.DropWide(e.id)
	}
	c.deleteMegaAt(st, e.cookie, paths)
	c.hot.megaTeardowns.Add(1)
	return true
}

// teardownMega is retireMega plus the class's audit record, for teardowns
// no per-flow record reports.
func (c *Controller) teardownMega(st *ctlState, e *megaEntry, reason string) bool {
	if !c.retireMega(st, e) {
		return false
	}
	c.Audit.Record(AuditEntry{
		Time:    c.clock(),
		Flow:    e.founder,
		Action:  pf.Block,
		Rule:    "(megaflow revoked: " + reason + ")",
		Revoked: true,
	})
	return true
}

// deleteMegaAt issues one cookie-scoped wildcard delete at every
// registered datapath in paths, in order, on the calling goroutine.
func (c *Controller) deleteMegaAt(st *ctlState, cookie uint64, paths []uint64) {
	m := openflow.FlowMod{Delete: true, Cookie: cookie, Match: flow.MatchAll(), BufferID: openflow.BufferNone}
	for _, id := range paths {
		if dp := st.datapaths[id]; dp != nil {
			c.apply(dp, m)
		}
	}
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
