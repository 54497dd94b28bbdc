package core

import (
	"hash/fnv"

	"identxx/internal/flow"
)

// A switch entry's cookie says whose entry it is and which verdict put it
// there. This file is the one place that knows the layout:
//
//   - The top 16 bits are the installer tag: a fixed hash of the installing
//     controller's Config.Name — not maphash, so a peer and a restarted
//     process compute the same tag from the name alone. "Every entry
//     controller N installed on this switch" is then one delete under
//     tagMask (Controller.TakeOver), with no table to enumerate. Two names
//     sharing a tag only widen such a delete: the flows it takes from the
//     other controller re-decide on their next packet.
//   - The low 48 bits name the verdict: an uncached flow's tuple hash with
//     the low bit set (odd), or a cached class's id shifted left once
//     (even; ids count up from 1, so never zero). Replicas number their
//     classes alike; the tag keeps their cookies apart.
const tagMask uint64 = 0xffff << 48

// installerTag is the tag bits, in place, of the controller named name: its
// 64-bit FNV-1a hash xor-folded to 16 bits (FNV's own high bits barely move
// between short names).
func installerTag(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	x := h.Sum64()
	return (x ^ x<<16 ^ x<<32 ^ x<<48) & tagMask
}

// cookies is one controller's cookie layout: its tag, and the two cookie
// shapes under it.
type cookies struct{ tag uint64 }

// flow is the cookie of an uncached verdict's entries for f.
func (k cookies) flow(f flow.Five) uint64 { return k.tag | f.Hash()&^tagMask | 1 }

// class is the cookie every member of cached class id installs under.
func (k cookies) class(id uint64) uint64 { return k.tag | id<<1&^tagMask }
