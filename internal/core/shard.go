package core

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
)

// The controller's per-flow in-flight state — the pending set, which maps
// each flow being decided to its decision's scratch, where the flow's parked
// duplicate packet-ins wait — is split across N power-of-two shards keyed by
// flow.Five.ShardIndex, so concurrent packet-ins for different flows never
// contend on one lock. Each shard owns its own mutex and map, and nothing in
// a shard is touched without that shard's lock. Cached verdicts live in the
// megaTable (megaflow.go), which is sharded by class, not by flow.
//
// A decision must not publish a verdict on answers an update has since
// overturned, so each in-flight decision is fenced on what it asked about:
//
//   - The flow fence. A revocation naming a flow (revokeFlow, and the
//     founder of a class revokeKeys tears down) marks that flow's in-flight
//     scratch, if there is one, under its shard lock (shard.void).
//   - The host fence. An update scoped to a host — a resync, a key-scoped
//     update, RevokeHost — bumps the host's generation (hostGens) before it
//     resolves the index; a decision captures both ends' generations when it
//     claims its flow.
//
// Either fence tripped between the claim and publication voids the attempt,
// and the decision re-decides in place (finishDecision). The capture is at
// claim, not when an answer is read: a daemon can write an update ahead of a
// response it built before the change, so a capture at read could postdate
// the update the response predates.

// parked is a duplicate packet-in waiting for the first packet's verdict.
// Releasing its buffer after the verdict's entries are installed lets the
// switch forward (or drop) it from its own table instead of re-punting.
// switchID and frame are kept so ablation runs (InstallEntries=false, no
// table entry to forward through) can packet-out the parked frame along
// the path instead of silently dropping it with the buffer.
type parked struct {
	dp       openflow.Datapath
	switchID uint64
	bufferID uint32
	frame    []byte
}

// shard is one lock domain of the flow-decision fast path.
type shard struct {
	mu      sync.Mutex
	pending map[flow.Five]*decisionScratch
}

// shardTable is the full sharded state. Size is fixed at construction, so
// lookups need no lock at all: shard selection is pure hashing.
type shardTable struct {
	shards []shard
	mask   uint64
}

func newShardTable(n int) *shardTable {
	n = ceilPow2(n)
	t := &shardTable{shards: make([]shard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].pending = make(map[flow.Five]*decisionScratch)
	}
	return t
}

func (t *shardTable) shardFor(five flow.Five) *shard {
	return &t.shards[five.Hash()&t.mask]
}

// maxParked bounds the waiter list per in-flight flow. Parked events hold
// switch buffer slots until the verdict, so a slow daemon must not let one
// flow pin unbounded buffers: past the cap, duplicates fall back to the
// old drop-and-re-punt behavior (buffer released immediately).
const maxParked = 64

// begin claims the flow for a decision. The first caller for a flow gets a
// fresh scratch, now the flow's in-flight decision, and owns resolving it;
// a later caller gets nil and its event is parked on the in-flight
// decision's waiter list (parkedOK=true) to be resolved by its verdict,
// unless the list is full (parkedOK=false: the caller releases now). A
// parked event keeps a copy of its frame: the caller's may be a read buffer
// the switch channel reuses for its next message.
func (s *shard) begin(five flow.Five, dp openflow.Datapath, ev openflow.PacketIn) (d *decisionScratch, parkedOK bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner := s.pending[five]; owner != nil {
		if len(owner.waiters) >= maxParked {
			return nil, false
		}
		owner.waiters = append(owner.waiters, parked{
			dp: dp, switchID: ev.SwitchID, bufferID: ev.BufferID, frame: bytes.Clone(ev.Frame),
		})
		return nil, true
	}
	d = acquireScratch()
	s.pending[five] = d
	return d, false
}

// resolve ends the flow's in-flight window. From here no duplicate parks on
// the decision and no revocation marks it, so the owner has its waiters to
// itself.
func (s *shard) resolve(five flow.Five) {
	s.mu.Lock()
	delete(s.pending, five)
	s.mu.Unlock()
}

// void trips the flow fence of the flow's in-flight decision, if it has one.
func (s *shard) void(five flow.Five) {
	s.mu.Lock()
	if d := s.pending[five]; d != nil {
		d.voided.Store(true)
	}
	s.mu.Unlock()
}

// hostGens is the host fence: a generation per slot of a small fixed table
// hashed by IP. Two hosts sharing a slot cost a spurious void, never a
// missed one.
type hostGens [256]atomic.Uint64

func (g *hostGens) slot(ip netaddr.IP) *atomic.Uint64 {
	return &g[uint32(ip)*0x9e3779b9>>24] // Fibonacci hash: the top 8 bits
}

func (g *hostGens) load(ip netaddr.IP) uint64 { return g.slot(ip).Load() }

func (g *hostGens) bump(ip netaddr.IP) { g.slot(ip).Add(1) }

func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// defaultShards sizes the table to the hardware: the next power of two at
// or above GOMAXPROCS, clamped to [1, 256].
func defaultShards() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > 256 {
		n = 256
	}
	return n
}
