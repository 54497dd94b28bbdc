package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"identxx/internal/flow"
	"identxx/internal/openflow"
)

// The controller's per-flow in-flight state (the pending set with its
// parked duplicate packet-ins, and the revocation sequence) is split across
// N power-of-two shards keyed by flow.Five.ShardIndex, so concurrent
// packet-ins for different flows never contend on one lock. Each shard owns
// its own mutex and map; nothing in a shard but rev is touched without that
// shard's lock. Cached verdicts live in the megaTable (megaflow.go), which
// is sharded by class, not by flow.

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
	pending map[flow.Five][]parked

	// rev counts revocations that touched this shard. A decision captures
	// the value when it claims its flow and re-checks before publishing
	// (verdict-cache insert + install): a bump in between means an
	// endpoint-state update raced the decision, whose gathered responses
	// may predate the change — the decision voids itself instead of
	// installing possibly stale state, and the packet's retransmission
	// re-decides under current facts. Per-shard granularity means an
	// unrelated same-shard revocation occasionally voids a healthy
	// decision; that costs one re-decision, never correctness.
	rev atomic.Uint64
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
		t.shards[i].pending = make(map[flow.Five][]parked)
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

// begin claims the flow for the calling decision. The first caller for a
// flow gets first=true and owns resolving it; later callers' events are
// parked on the waiter list (parked=true) and resolved by the owner's
// verdict, unless the list is full (parked=false: caller releases now).
func (s *shard) begin(five flow.Five, dp openflow.Datapath, ev openflow.PacketIn) (first, parkedOK bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if waiters, inFlight := s.pending[five]; inFlight {
		if len(waiters) >= maxParked {
			return false, false
		}
		s.pending[five] = append(waiters, parked{
			dp: dp, switchID: ev.SwitchID, bufferID: ev.BufferID, frame: ev.Frame,
		})
		return false, true
	}
	s.pending[five] = nil // in flight, no waiters yet
	return true, false
}

// resolve ends the flow's in-flight window and returns the parked
// duplicates for the owner to release now that the verdict is installed.
func (s *shard) resolve(five flow.Five) []parked {
	s.mu.Lock()
	defer s.mu.Unlock()
	waiters := s.pending[five]
	delete(s.pending, five)
	return waiters
}

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
