package metrics

import (
	"sort"
	"sync"
)

// Ring retains the newest values put into it, up to an exact capacity: the
// controller's audit trail and the flight recorder's retained traces. Puts
// run on the decision path, so the ring is striped across independently
// locked rings, picked round-robin by each value's sequence number:
// concurrent puts rarely share a lock, and retention is the full capacity
// whatever the traffic (striping by a hash of the flow would pin one
// dominant flow to one stripe and quietly shrink retention eightfold).
type Ring[T any] struct {
	stripes []ringStripe[T]
}

type ringStripe[T any] struct {
	mu    sync.Mutex
	slots []ringSlot[T]
	next  int
	full  bool
}

// ringSlot keeps a value with the sequence number that orders it on read.
type ringSlot[T any] struct {
	seq int64
	v   T
}

// ringStripes is the stripe count of a ring of at least as many values; a
// smaller ring has one stripe.
const ringStripes = 8

// NewRing returns a ring retaining up to capacity values; capacity must be
// positive.
func NewRing[T any](capacity int) *Ring[T] {
	n := ringStripes
	if capacity < n {
		n = 1
	}
	per, rem := capacity/n, capacity%n
	r := &Ring[T]{stripes: make([]ringStripe[T], n)}
	for i := range r.stripes {
		size := per
		if i < rem {
			size++ // distribute the remainder so capacity is exact
		}
		r.stripes[i].slots = make([]ringSlot[T], size)
	}
	return r
}

// Put retains v under seq, its place in the order Values reads back. seqs
// come from one increasing counter, which also deals puts round-robin over
// the stripes; a full stripe overwrites its oldest slot.
func (r *Ring[T]) Put(seq int64, v T) {
	s := &r.stripes[uint64(seq)%uint64(len(r.stripes))]
	s.mu.Lock()
	s.slots[s.next] = ringSlot[T]{seq: seq, v: v}
	if s.next++; s.next == len(s.slots) {
		s.next, s.full = 0, true
	}
	s.mu.Unlock()
}

// Values returns the retained values, oldest first.
func (r *Ring[T]) Values() []T {
	return Collect(r, func(_ int64, v *T) T { return *v })
}

// Collect returns fn of each value r retains, with the sequence number it
// was put under, oldest first.
func Collect[T, U any](r *Ring[T], fn func(seq int64, v *T) U) []U {
	var slots []ringSlot[T]
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		n := s.next
		if s.full {
			n = len(s.slots)
		}
		slots = append(slots, s.slots[:n]...)
		s.mu.Unlock()
	}
	if len(slots) == 0 {
		return nil
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].seq < slots[j].seq })
	out := make([]U, len(slots))
	for i := range slots {
		out[i] = fn(slots[i].seq, &slots[i].v)
	}
	return out
}
