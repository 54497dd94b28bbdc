package metrics

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestRingRetainsExactCapacityInOrder fills rings of every size around the
// stripe count three times over: each keeps exactly its capacity, reads
// back oldest first, and holds the newest value.
func TestRingRetainsExactCapacityInOrder(t *testing.T) {
	for capacity := 1; capacity <= 3*ringStripes; capacity++ {
		r := NewRing[int64](capacity)
		if got := r.Values(); got != nil {
			t.Fatalf("capacity %d: empty ring reads %v", capacity, got)
		}
		n := int64(3 * capacity)
		for seq := int64(1); seq <= n; seq++ {
			r.Put(seq, seq)
		}
		got := r.Values()
		if len(got) != capacity {
			t.Fatalf("capacity %d: retained %d", capacity, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("capacity %d: not oldest first: %v", capacity, got)
			}
		}
		if got[len(got)-1] != n {
			t.Fatalf("capacity %d: newest retained %d, want %d", capacity, got[len(got)-1], n)
		}
	}
}

// TestRingConcurrentPuts races puts from several goroutines against reads.
func TestRingConcurrentPuts(t *testing.T) {
	const writers, each = 4, 500
	r := NewRing[int64](64)
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := seq.Add(1)
				r.Put(s, s)
				_ = r.Values()
			}
		}()
	}
	wg.Wait()
	if got := r.Values(); len(got) != 64 {
		t.Fatalf("retained %d, want 64", len(got))
	}
}
