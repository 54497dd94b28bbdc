package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 50*time.Millisecond || mean > 51*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
	p50 := h.Quantile(0.5)
	if p50 < 45*time.Millisecond || p50 > 55*time.Millisecond {
		t.Errorf("p50 = %v", p50)
	}
	if h.Quantile(0) != time.Millisecond {
		t.Errorf("p0 = %v", h.Quantile(0))
	}
	if h.Quantile(1) != 100*time.Millisecond {
		t.Errorf("p100 = %v", h.Quantile(1))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
	if !strings.Contains(h.Summary(), "n=0") {
		t.Errorf("summary = %q", h.Summary())
	}
}

// TestHistogramQuantileAccuracy: against a sorted reference, a quantile read
// off the cells is within one cell (12.5 %) of the true value, and a
// constant stream reads back exactly.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h := NewHistogram()
	ref := make([]time.Duration, 200000)
	for i := range ref {
		// log-uniform over 100 ns .. 10 s
		ref[i] = time.Duration(100 * math.Pow(1e8, rng.Float64()))
		h.Observe(ref[i])
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := ref[int(q*float64(len(ref)-1))]
		got := h.Quantile(q)
		if err := math.Abs(float64(got-want)) / float64(want); err > 0.125 {
			t.Errorf("Quantile(%v) = %v, reference %v: off by %.1f%%", q, got, want, 100*err)
		}
	}
	if h.Quantile(0) != ref[0] || h.Quantile(1) != ref[len(ref)-1] || h.Quantile(1) != h.Max() {
		t.Errorf("ends = %v/%v, want %v/%v", h.Quantile(0), h.Quantile(1), ref[0], ref[len(ref)-1])
	}

	c := NewHistogram()
	for i := 0; i < 1000; i++ {
		c.Observe(1234567 * time.Nanosecond)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := c.Quantile(q); got != 1234567*time.Nanosecond {
			t.Errorf("constant stream: Quantile(%v) = %v", q, got)
		}
	}
}

// TestHistogramCells pins the cell layout: every duration lies in
// (cellEdge(i), cellEdge(i+1)] of its cell, no cell is wider than 1/8 of its
// lower edge, negative durations clamp to cell 0 and durations past the top
// edge land in the overflow cell that only the total reports.
func TestHistogramCells(t *testing.T) {
	for _, d := range []time.Duration{2, 8, 9, 16, 17, 1000, 1024, 1025, 5 * time.Microsecond,
		time.Millisecond, 10 * time.Second, 1 << topBound} {
		i := cellOf(d)
		if lo, hi := cellEdge(i), cellEdge(i+1); d <= lo || d > hi || (lo >= 8 && (hi-lo)*8 > lo) {
			t.Errorf("cellOf(%d) = %d, edges (%d, %d]", d, i, lo, hi)
		}
	}
	if cellEdge(numCells) != 1<<topBound {
		t.Errorf("top edge = %d", cellEdge(numCells))
	}
	h := NewHistogram()
	for _, d := range []time.Duration{-time.Second, 0, 1, 1<<topBound + 1, math.MaxInt64} {
		h.Observe(d)
	}
	if h.cells[0].Load() != 3 || h.cells[numCells].Load() != 2 {
		t.Errorf("cell 0 = %d, overflow = %d, want 3 and 2", h.cells[0].Load(), h.cells[numCells].Load())
	}
	ladder, count := h.Buckets()
	if last := ladder[len(ladder)-1]; last.Le != 1<<topBound || last.Count != 3 || count != 5 {
		t.Errorf("top bucket = %+v, count = %d, want 3 at the top edge and 5", last, count)
	}
	if unsafe.Sizeof(*h) > 2200 {
		t.Errorf("a histogram is %d bytes, want ≈ 2 KB", unsafe.Sizeof(*h))
	}
}

// TestHistogramConcurrent is a conservation test: against 8 writers a
// looping reader sees counts, buckets and sums that only grow, +Inf never
// below a finite bucket, and the final count and sum are exact.
func TestHistogramConcurrent(t *testing.T) {
	const writers, each = 8, 50000
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var prev []Bucket
	var prevCount int64
	var prevSum time.Duration
	for running := true; running; {
		select {
		case <-done:
			running = false // one more read, of the final state
		default:
		}
		ladder, count := h.Buckets()
		sum := h.Sum()
		if count < prevCount || sum < prevSum {
			t.Fatalf("count %d -> %d, sum %v -> %v: not monotone", prevCount, count, prevSum, sum)
		}
		for i, b := range ladder {
			if b.Count > count || (i > 0 && b.Count < ladder[i-1].Count) || (prev != nil && b.Count < prev[i].Count) {
				t.Fatalf("bucket le=%v = %d (before %v, total %d): not monotone", b.Le, b.Count, prev, count)
			}
		}
		if q := h.Quantile(0.5); count > 0 && (q < h.Min() || q > h.Max()) {
			t.Fatalf("p50 %v outside [%v, %v]", q, h.Min(), h.Max())
		}
		prev, prevCount, prevSum = ladder, count, sum
	}
	if want := int64(writers * each); h.Count() != want || prevCount != want {
		t.Errorf("count = %d (last read %d), want %d", h.Count(), prevCount, want)
	}
	if want := time.Duration(each*writers*(writers+1)/2) * time.Microsecond; h.Sum() != want {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
}

// BenchmarkSetupRecorderObserve prices what every decision pays for its four
// latency histograms.
func BenchmarkSetupRecorderObserve(b *testing.B) {
	r := NewSetupRecorder()
	bd := SetupBreakdown{QuerySrc: 210 * time.Microsecond, QueryDst: 190 * time.Microsecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd.Eval = time.Duration(i&1023) * time.Nanosecond
		r.Observe(bd)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Add("allow", 3)
	c.Add("deny", 1)
	c.Add("allow", 2)
	if c.Get("allow") != 5 || c.Get("deny") != 1 || c.Get("other") != 0 {
		t.Errorf("counter values wrong: %v", c.Snapshot())
	}
	if s := c.String(); s != "allow=5 deny=1" {
		t.Errorf("String = %q", s)
	}
	snap := c.Snapshot()
	snap["allow"] = 99
	if c.Get("allow") != 5 {
		t.Error("snapshot aliases live map")
	}
}

func TestSetupBreakdownTotalUsesSlowerQuery(t *testing.T) {
	b := SetupBreakdown{
		QuerySrc: 5 * time.Millisecond,
		QueryDst: 9 * time.Millisecond,
		Eval:     100 * time.Microsecond,
	}
	want := 9*time.Millisecond + 100*time.Microsecond
	if b.Total() != want {
		t.Errorf("total = %v, want %v", b.Total(), want)
	}
}

func TestSetupRecorder(t *testing.T) {
	r := NewSetupRecorder()
	r.Observe(SetupBreakdown{Eval: time.Millisecond, QuerySrc: 2 * time.Millisecond})
	r.Observe(SetupBreakdown{Eval: 3 * time.Millisecond, QueryDst: 4 * time.Millisecond})
	if r.Eval.Count() != 2 || r.Total.Count() != 2 {
		t.Error("recorder did not observe all stages")
	}
	if r.Total.Max() != 7*time.Millisecond {
		t.Errorf("total max = %v", r.Total.Max())
	}
}
