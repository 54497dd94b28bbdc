// Package cluster splits flow ownership across N controller replicas by
// consistent-hashing the 5-tuple: a rendezvous (highest-random-weight)
// ring maps every flow to exactly one owning replica, a Router in front of
// core.Controller.HandleEvent forwards non-owned packet-ins to the owner
// over a pipelined wire.Frame inter-controller link, and the read-mostly
// configuration (policy source, answer-on-behalf data, datapath set)
// replicates via epoch-fenced snapshot pushes so a SetPolicy on any
// replica converges everywhere with stale-epoch writes rejected.
//
// The design lifts the controller's existing per-shard isolation across
// process boundaries (ROADMAP: "lifting shards across processes is a
// refactor, not a rewrite"): per-flow state — cached verdict,
// pending decision, revocation-index registration, daemon subscription —
// lives only at the flow's owner, so replicas share no per-flow state and
// need no cross-replica locks. Replica loss is handled by rebuilding the
// ring and deleting the lost replica's entries from the switches by its
// installer tag (core.Controller.TakeOver); the next packet of each of its
// flows punts to the new owner, which re-queries and re-subscribes through
// the ordinary query plane — failover is resubscribe, not restart.
package cluster

import "identxx/internal/flow"

// Member is one controller replica in the ring: a stable identity plus
// the address of its inter-controller link ("" for in-process peers,
// whose links are constructed directly).
type Member struct {
	ID   string
	Addr string
}

// ring is one immutable ownership epoch: members, their precomputed
// rendezvous seeds, and the links to reach them (nil at self and for
// members with no link). Routers swap whole rings atomically; nothing in
// a published ring is ever mutated.
type ring struct {
	members []Member
	seeds   []uint64
	links   []Link
	self    int // index of the local replica in members; -1 when absent
}

// fnv64 is FNV-1a, used to derive a member's rendezvous seed from its ID —
// stable across processes and restarts, as every input to the ownership
// function must be: all replicas have to compute the same owner for the
// same flow from the member list alone.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix that turns
// flow-hash ^ member-seed into an independent uniform score per member.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// owner returns the index of the member with the highest rendezvous score
// for flow-hash h, or -1 for an empty ring. Rendezvous hashing gives the
// two properties the cluster needs with no token tables to replicate:
// every replica computes the same owner from the member list alone, and a
// membership change moves only the flows whose argmax involved the changed
// member (1/N of the space on average).
func (r *ring) owner(h uint64) int {
	if len(r.seeds) <= 1 {
		return len(r.seeds) - 1
	}
	best, bestScore := 0, mix64(h^r.seeds[0])
	for i := 1; i < len(r.seeds); i++ {
		if s := mix64(h ^ r.seeds[i]); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// ownsSelf reports whether the local replica owns flow-hash h.
func (r *ring) ownsSelf(h uint64) bool {
	return r.self >= 0 && r.owner(h) == r.self
}

// canonFive maps both directions of a flow onto one canonical orientation
// before hashing, so a keep-state pair — forward and reverse entries,
// installed together and revoked together — has a single owner. Without
// this, reply packets of a flow admitted by replica A would punt to
// replica B, which has no cache entry, no registration, and no
// subscription for them.
func canonFive(f flow.Five) flow.Five {
	if f.DstIP < f.SrcIP || (f.DstIP == f.SrcIP && f.DstPort < f.SrcPort) {
		return f.Reverse()
	}
	return f
}

// ownerHash is the hash the ring is keyed on. It deliberately does NOT use
// flow.Five.Hash(): that hash is seeded per process (maphash.MakeSeed), so
// two replicas would disagree about every flow's owner and forward events
// in circles. Ownership instead hashes the canonical orientation's fields
// through splitmix64 — deterministic across processes, zero-allocation,
// and uniform enough for HRW's argmax.
func ownerHash(f flow.Five) uint64 {
	f = canonFive(f)
	h := mix64(uint64(f.SrcIP)<<32 | uint64(f.DstIP))
	h ^= uint64(f.SrcPort)<<24 | uint64(f.DstPort)<<8 | uint64(f.Proto)
	return mix64(h)
}
