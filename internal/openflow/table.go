// Package openflow implements the substrate the paper assumes (§3.1): flow
// tables in switches remotely managed by a controller. A packet that misses
// the table is sent to the controller; the controller's decision is cached
// as a flow entry with the 10-tuple match, actions, and idle/hard timeouts,
// exactly the contract ident++ relies on. The package provides the switch
// datapath, an OpenFlow-1.0-style binary message codec, and a TCP secure
// channel, plus an in-process channel for the simulator.
package openflow

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
)

// ActionType discriminates entry actions.
type ActionType int

// Action types. OFPP-style special ports are modelled as distinct action
// types rather than magic port numbers.
const (
	ActionOutput     ActionType = iota // forward on a specific port
	ActionFlood                        // forward on every port except ingress
	ActionController                   // punt to the controller
	ActionDrop                         // explicit drop
)

// Action is one forwarding action.
type Action struct {
	Type ActionType
	Port uint16 // for ActionOutput
}

// Drop is the action list meaning "drop" (an empty action list in OpenFlow
// 1.0 drops; an explicit value keeps call sites readable).
var Drop = []Action{{Type: ActionDrop}}

// outputIntern caches the canonical single-action list per port. The
// controller builds an Output list for every flow-mod it installs, and the
// switch retains the slice in its table entry, so the lists cannot come
// from per-decision scratch; interning makes them shared immutable
// constants instead of per-install garbage. The table lives in BSS and only
// the pages for ports actually used are ever faulted in.
var outputIntern [1 << 16]atomic.Pointer[[]Action]

// Output returns the single-action list forwarding on port. The returned
// slice is interned and shared: callers must treat it (like Drop) as
// immutable.
func Output(port uint16) []Action {
	if p := outputIntern[port].Load(); p != nil {
		return *p
	}
	a := []Action{{Type: ActionOutput, Port: port}}
	outputIntern[port].CompareAndSwap(nil, &a)
	return *outputIntern[port].Load()
}

// Entry is one cached flow decision.
type Entry struct {
	Match    flow.Match
	Priority int
	Actions  []Action
	Cookie   uint64

	// IdleTimeout evicts the entry after inactivity; HardTimeout evicts it
	// unconditionally. Zero disables the respective timeout.
	IdleTimeout time.Duration
	HardTimeout time.Duration

	// NotifyRemoved: the entry's expiry raises a FlowRemoved.
	NotifyRemoved bool

	// Counters.
	Packets uint64
	Bytes   uint64

	installed time.Time
	lastUsed  time.Time
}

// RemovedReason says why an entry left the table.
type RemovedReason int

// Removal reasons, mirroring OFPRR_*.
const (
	RemovedIdleTimeout RemovedReason = iota
	RemovedHardTimeout
	RemovedDelete
)

// Removed reports an evicted entry to the controller (OFPT_FLOW_REMOVED).
type Removed struct {
	Entry  *Entry
	Reason RemovedReason
}

// Table is a switch's flow table: exact-match entries in a hash map, flow-
// granularity entries (the ident++ controller's 5-tuple caches, L2 fields
// wildcarded) in a second hash map keyed by the 5-tuple, and a priority-
// ordered wildcard list behind both — the standard OpenFlow 1.0 software-
// switch layout, with the dominant entry class indexed instead of scanned.
// The five map is what makes delete-by-flow O(1): revoking one flow's
// cached verdict no longer walks the whole table. All methods are safe for
// concurrent use.
type Table struct {
	mu       sync.RWMutex
	exact    map[flow.Ten]*Entry
	five     map[flow.Five]*Entry // 5-tuple-granularity entries (FiveMatch)
	wild     []*Entry             // sorted by Priority descending, stable
	capacity int
}

// NewTable creates a table. capacity bounds the number of entries (0 means
// unbounded); hardware tables are finite and E6/M5 exercise eviction.
func NewTable(capacity int) *Table {
	return &Table{
		exact:    make(map[flow.Ten]*Entry),
		five:     make(map[flow.Five]*Entry),
		capacity: capacity,
	}
}

// fiveGranular reports whether m is exactly the controller's flow-cache
// shape: all five tuple fields matched exactly, everything else
// wildcarded (flow.FiveMatch's output).
func fiveGranular(m flow.Match) (flow.Five, bool) {
	const l2Wild = flow.WInPort | flow.WMACSrc | flow.WMACDst | flow.WEthType | flow.WVLAN
	if m.Wild != l2Wild || m.SrcBits < 32 || m.DstBits < 32 {
		return flow.Five{}, false
	}
	return m.Tuple.Five(), true
}

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.exact) + len(t.five) + len(t.wild)
}

// ErrTableFull is returned when inserting into a full table.
type ErrTableFull struct{ Capacity int }

func (e ErrTableFull) Error() string { return "openflow: flow table full" }

// Insert installs an entry at now. An exact-match or flow-granularity
// entry replaces any previous entry with the identical tuple; wildcard
// entries accumulate.
func (t *Table) Insert(e *Entry, now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e.installed = now
	e.lastUsed = now
	if e.Match.IsExact() {
		if _, exists := t.exact[e.Match.Tuple]; !exists && t.full() {
			return ErrTableFull{t.capacity}
		}
		t.exact[e.Match.Tuple] = e
		return nil
	}
	if f, ok := fiveGranular(e.Match); ok {
		if _, exists := t.five[f]; !exists && t.full() {
			return ErrTableFull{t.capacity}
		}
		t.five[f] = e
		return nil
	}
	if t.full() {
		return ErrTableFull{t.capacity}
	}
	t.wild = append(t.wild, e)
	sort.SliceStable(t.wild, func(i, j int) bool { return t.wild[i].Priority > t.wild[j].Priority })
	return nil
}

func (t *Table) full() bool {
	return t.capacity > 0 && len(t.exact)+len(t.five)+len(t.wild) >= t.capacity
}

// Lookup finds the matching entry for a tuple, updating its counters and
// idle timer. It returns nil on a table miss. Match order: exact first
// (the OpenFlow convention that exact entries beat wildcards, unchanged
// from before the five index), then the flow-granularity index — unless a
// strictly higher-priority wildcard entry also covers the tuple, which
// preserves the priority semantics the scan-only table had — then the
// wildcard scan.
func (t *Table) Lookup(ten flow.Ten, size int, now time.Time) *Entry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.exact[ten]; ok {
		e.hit(size, now)
		return e
	}
	if e, ok := t.five[ten.Five()]; ok {
		if w := t.wildAboveLocked(e.Priority, ten); w != nil {
			w.hit(size, now)
			return w
		}
		e.hit(size, now)
		return e
	}
	for _, e := range t.wild {
		if e.Match.Covers(ten) {
			e.hit(size, now)
			return e
		}
	}
	return nil
}

// wildAboveLocked returns the first wildcard entry covering ten with
// Priority strictly above p. The wild list is priority-sorted descending,
// so the scan stops at the first entry at or below p — free when the list
// is empty (the controller-programmed common case) and cheap otherwise.
func (t *Table) wildAboveLocked(p int, ten flow.Ten) *Entry {
	for _, e := range t.wild {
		if e.Priority <= p {
			return nil
		}
		if e.Match.Covers(ten) {
			return e
		}
	}
	return nil
}

func (e *Entry) hit(size int, now time.Time) {
	e.Packets++
	e.Bytes += uint64(size)
	e.lastUsed = now
}

// Peek is Lookup without counter updates, for stats handlers.
func (t *Table) Peek(ten flow.Ten) *Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if e, ok := t.exact[ten]; ok {
		return e
	}
	if e, ok := t.five[ten.Five()]; ok {
		if w := t.wildAboveLocked(e.Priority, ten); w != nil {
			return w
		}
		return e
	}
	for _, e := range t.wild {
		if e.Match.Covers(ten) {
			return e
		}
	}
	return nil
}

// Expire removes entries whose idle or hard timeout has elapsed at now and
// returns them, for FLOW_REMOVED notifications.
func (t *Table) Expire(now time.Time) []Removed {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Removed
	for k, e := range t.exact {
		if reason, expired := e.expired(now); expired {
			delete(t.exact, k)
			out = append(out, Removed{Entry: e, Reason: reason})
		}
	}
	for k, e := range t.five {
		if reason, expired := e.expired(now); expired {
			delete(t.five, k)
			out = append(out, Removed{Entry: e, Reason: reason})
		}
	}
	kept := t.wild[:0]
	for _, e := range t.wild {
		if reason, expired := e.expired(now); expired {
			out = append(out, Removed{Entry: e, Reason: reason})
			continue
		}
		kept = append(kept, e)
	}
	t.wild = kept
	return out
}

func (e *Entry) expired(now time.Time) (RemovedReason, bool) {
	if e.HardTimeout > 0 && now.Sub(e.installed) >= e.HardTimeout {
		return RemovedHardTimeout, true
	}
	if e.IdleTimeout > 0 && now.Sub(e.lastUsed) >= e.IdleTimeout {
		return RemovedIdleTimeout, true
	}
	return 0, false
}

// DeleteWhere removes entries matching pred and returns them. The
// controller uses it to revoke cached decisions when policy changes —
// the paper's "override, audit, and revoke the delegation" (§7).
func (t *Table) DeleteWhere(pred func(*Entry) bool) []Removed {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Removed
	for k, e := range t.exact {
		if pred(e) {
			delete(t.exact, k)
			out = append(out, Removed{Entry: e, Reason: RemovedDelete})
		}
	}
	for k, e := range t.five {
		if pred(e) {
			delete(t.five, k)
			out = append(out, Removed{Entry: e, Reason: RemovedDelete})
		}
	}
	kept := t.wild[:0]
	for _, e := range t.wild {
		if pred(e) {
			out = append(out, Removed{Entry: e, Reason: RemovedDelete})
			continue
		}
		kept = append(kept, e)
	}
	t.wild = kept
	return out
}

// DeleteFlow removes the flow-granularity entry for f, if its cookie agrees
// with cookie on mask's bits (FlowMod.CookieMask), in O(1) — the revocation
// plane's delete-by-flow, which must not scan a production-size table per
// revoked flow. Entries at other granularities that a FiveMatch(f) delete
// would also cover are the caller's (Switch.Apply's) concern; it scans them
// only when any exist.
func (t *Table) DeleteFlow(f flow.Five, cookie, mask uint64) []Removed {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.five[f]
	if !ok || e.Cookie&mask != cookie&mask {
		return nil
	}
	delete(t.five, f)
	return []Removed{{Entry: e, Reason: RemovedDelete}}
}

// OtherGranularities returns how many entries live outside the five map —
// the Switch's cue that a flow-granularity delete cannot stop at the O(1)
// path.
func (t *Table) OtherGranularities() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.exact) + len(t.wild)
}

// Entries returns a snapshot of all entries (stats requests).
func (t *Table) Entries() []*Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Entry, 0, len(t.exact)+len(t.five)+len(t.wild))
	for _, e := range t.exact {
		out = append(out, e)
	}
	for _, e := range t.five {
		out = append(out, e)
	}
	out = append(out, t.wild...)
	return out
}
