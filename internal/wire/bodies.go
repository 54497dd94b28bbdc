package wire

import (
	"bytes"

	"identxx/internal/netaddr"
)

// BodyTableBytes bounds what one BodyTable keeps, in the bytes it charges
// each body (see BodyTable): one connection's worth.
const BodyTableBytes = 64 << 10

const (
	// maxTableBody is the longest body a BodyTable keeps; a longer one is
	// decoded every time it arrives.
	maxTableBody = BodyTableBytes / 16

	// entryBytes and kvBytes are what a kept body costs beside its own
	// bytes: the map slot and the response object DecodeResponse allocates
	// with its first sections and pairs, and each pair's KV. strBytes is what
	// a kept update value costs beside its own: its map slot.
	entryBytes = 512
	kvBytes    = 32
	strBytes   = 48
)

// BodyTable decodes the responses of one connection, parsing each distinct
// body once. A body is everything a payload holds after its tuple line, scope
// line included, and a daemon that builds one answer per process or per
// listener sends the same body for every flow it answers that way. The
// sections decoded from it depend on those bytes alone, so a repeated body
// parses only its tuple line and shares the sections of its first sight.
//
// Shared sections are immutable: they have len == cap at both levels, so a
// Response.Add or an Augment on a response that holds them, or a Section.Add
// on a section Augment returned, copies instead of writing into them. A
// holder must not write into the sections in place: not a pair, not a
// section through r.Sections[i] (its Add rewrites the section there), and
// not through Reset.
//
// The same connection carries the daemon's pushed updates, and a daemon
// names the same few keys and values in update after update: DecodeUpdate
// keeps each distinct value once, and an update whose values it holds is
// decoded without an allocation.
//
// The table charges each body its length, its pairs and a fixed overhead,
// and each value its length and a fixed overhead, and holds at most
// BodyTableBytes: when a new body or value would take it past that, it
// forgets everything first. A body or value longer than BodyTableBytes/16 is
// not kept. The zero value is an empty table; it is not safe for concurrent
// use.
type BodyTable struct {
	bodies map[string]decodedBody
	strs   map[string]string
	size   int
}

type decodedBody struct {
	secs  []Section
	scope Scope
}

// Decode parses payload into r exactly as DecodeResponse would, and returns
// DecodeResponse's error for a payload it refuses, leaving r as it was. r's
// sections may be shared with every other response the table decoded from
// the same body: read-only (see BodyTable).
func (t *BodyTable) Decode(payload []byte, srcIP, dstIP netaddr.IP, r *Response) error {
	first, body, _ := bytes.Cut(payload, newline)
	if b, ok := t.bodies[string(body)]; ok && len(payload) <= MaxMessageSize {
		f, err := responseTuple(string(first), srcIP, dstIP)
		if err != nil {
			return err
		}
		*r = Response{Flow: f, Sections: b.secs, Scope: b.scope}
		return nil
	}
	d, key, err := decodeResponse(payload, srcIP, dstIP)
	if err != nil {
		return err
	}
	d.Sections = d.Sections[:len(d.Sections):len(d.Sections)]
	*r = *d
	t.keep(key, decodedBody{d.Sections, d.Scope})
	return nil
}

// keep remembers b under body, a string the decode's copy of the payload
// already backs, unless it is too long to keep.
func (t *BodyTable) keep(body string, b decodedBody) {
	if len(body) > maxTableBody {
		return
	}
	cost := len(body) + entryBytes
	for _, s := range b.secs {
		cost += kvBytes * len(s.Pairs)
	}
	t.charge(cost)
	if t.bodies == nil {
		t.bodies = make(map[string]decodedBody)
	}
	t.bodies[body] = b
}

// DecodeUpdate parses payload exactly as DecodeUpdate does, errors included.
// Key, Old and New are strings the table holds (see BodyTable).
func (t *BodyTable) DecodeUpdate(payload []byte, srcIP, dstIP netaddr.IP) (Update, error) {
	return decodeUpdate(payload, srcIP, dstIP, t)
}

// str returns b as a string: the one the table holds for those bytes, or a
// copy it keeps from now on. A nil table, or a value too long to keep, gets a
// copy of its own.
func (t *BodyTable) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t == nil || len(b) > maxTableBody {
		return string(b)
	}
	if s, ok := t.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	t.charge(len(s) + strBytes)
	if t.strs == nil {
		t.strs = make(map[string]string)
	}
	t.strs[s] = s
	return s
}

// charge counts cost against the bound, forgetting every body and value the
// table holds first when cost would take it past BodyTableBytes.
func (t *BodyTable) charge(cost int) {
	if t.size+cost > BodyTableBytes {
		clear(t.bodies)
		clear(t.strs)
		t.size = 0
	}
	t.size += cost
}

// Bytes reports what the table is charged for what it holds, at most
// BodyTableBytes.
func (t *BodyTable) Bytes() int { return t.size }
