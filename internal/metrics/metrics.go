// Package metrics provides the counters and latency histograms the
// experiment harness reports: flow-setup latency breakdowns (the standard
// evaluation metric of the Ethane/NOX lineage the paper builds on),
// decision counts, and cache statistics.
//
// Everything here sits on the controller's packet-in hot path, so nothing
// takes a lock: counters are atomics behind a sync.Map, and a histogram is
// a fixed array of atomic cells.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Cell layout: a duration d lands in the cell of v = d-1 ns, so a cell covers
// (lower, upper] and a cumulative count up to an edge is exactly the
// Prometheus "le" count. Cells 0-15 are 1 ns wide; from there each octave of
// v (bits.Len64) splits into 8 linear cells, so a cell is never wider than
// 1/8 of its lower edge. 256 cells end at 2^34 ns (≈ 17.2 s); the cell after
// them counts everything above that.
const (
	firstBound = 9  // the le ladder starts at 2^9 ns (512 ns) ...
	topBound   = 34 // ... and doubles up to the top edge, 2^34 ns
	numCells   = (topBound - 2) << 3
)

// cellOf returns the cell d is counted in: cell 0 for d <= 1 ns (negative
// durations included), the overflow cell past the top edge.
func cellOf(d time.Duration) int {
	if d <= 1 {
		return 0
	}
	v := uint64(d - 1)
	e := max(bits.Len64(v), 4) - 4
	return min(e<<3+int(v>>e), numCells)
}

// cellEdge returns the exclusive lower edge of cell i, which is the
// inclusive upper edge of cell i-1.
func cellEdge(i int) time.Duration {
	if i < 8 {
		return time.Duration(i)
	}
	return time.Duration(8|i&7) << (i>>3 - 1)
}

// Histogram records durations in a fixed array of atomic cells (≈ 2 KB), so
// Observe takes no lock and allocates nothing, and count, sum, min, max and
// every bucket are exact for the life of the process. Quantiles are read
// off the cells and are within one cell (12.5 %) of the true value.
type Histogram struct {
	cells         [numCells + 1]atomic.Int64
	sum, min, max atomic.Int64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	h := new(Histogram)
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one sample. The extremes are published before the cell, so
// a reader that loads the cells first never counts a sample outside
// [min, max].
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	for m := h.max.Load(); v > m && !h.max.CompareAndSwap(m, v); {
		m = h.max.Load()
	}
	for m := h.min.Load(); v < m && !h.min.CompareAndSwap(m, v); {
		m = h.min.Load()
	}
	h.sum.Add(v)
	h.cells[cellOf(d)].Add(1)
}

// load reads every cell once and returns the counts and their total.
func (h *Histogram) load() (cells [numCells + 1]int64, n int64) {
	for i := range h.cells {
		cells[i] = h.cells[i].Load()
		n += cells[i]
	}
	return cells, n
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, n := h.load()
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the mean of all observations.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Max returns the largest observation, zero when there is none.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Min returns the smallest observation, zero when there is none.
func (h *Histogram) Min() time.Duration {
	if m := h.min.Load(); m != math.MaxInt64 {
		return time.Duration(m)
	}
	return 0
}

// Bucket is one line of the exported histogram: the number of observations
// at or below Le.
type Bucket struct {
	Le    time.Duration
	Count int64
}

// Buckets reads the cells once and returns the cumulative counts for the
// fixed le ladder, whose bounds are cell edges, and the total those counts
// were derived from: the +Inf bucket, never below a finite one.
func (h *Histogram) Buckets() (ladder []Bucket, count int64) {
	cells, count := h.load()
	ladder = make([]Bucket, 0, topBound-firstBound+1)
	i, below := 0, int64(0)
	for k := firstBound; k <= topBound; k++ {
		for ; i < (k-2)<<3; i++ { // cellEdge((k-2)<<3) is 2^k ns
			below += cells[i]
		}
		ladder = append(ladder, Bucket{Le: 1 << k, Count: below})
	}
	return ladder, count
}

// Quantile returns the q-quantile (0 <= q <= 1): the cell holding that rank,
// interpolated linearly and clamped into [Min, Max], so the ends and a
// constant stream are exact.
func (h *Histogram) Quantile(q float64) time.Duration {
	cells, n := h.load()
	lo, hi := h.Min(), h.Max()
	rank := int64(q * float64(n-1))
	if rank <= 0 {
		return lo
	}
	if rank >= n-1 {
		return hi
	}
	for i, c := range cells {
		if rank < c {
			a, b := max(cellEdge(i), lo), min(cellEdge(i+1), hi)
			return a + time.Duration(float64(b-a)*(float64(rank)+0.5)/float64(c))
		}
		rank -= c
	}
	return hi
}

// Summary renders count/mean/p50/p95/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean().Round(time.Microsecond),
		h.Quantile(0.50).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.Quantile(0.99).Round(time.Microsecond),
		h.Max().Round(time.Microsecond))
}

// Counter is a named monotonically increasing counter set. Increments are
// a sync.Map load plus one atomic add — no shared lock, so hot-path
// counters scale with cores instead of convoying.
type Counter struct {
	m sync.Map // string -> *atomic.Int64
}

// NewCounter creates an empty counter set.
func NewCounter() *Counter {
	return &Counter{}
}

func (c *Counter) cell(name string) *atomic.Int64 {
	if v, ok := c.m.Load(name); ok {
		return v.(*atomic.Int64)
	}
	v, _ := c.m.LoadOrStore(name, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// Add increments name by delta.
func (c *Counter) Add(name string, delta int64) {
	c.cell(name).Add(delta)
}

// Cell returns the addend cell behind name, for callers hot enough that
// even the lock-free map lookup per Add is measurable. The cell may be
// retained for the life of the Counter and incremented directly; it is the
// same cell Add and Get use, so reads stay coherent.
func (c *Counter) Cell(name string) *atomic.Int64 {
	return c.cell(name)
}

// Get returns the value of name.
func (c *Counter) Get(name string) int64 {
	if v, ok := c.m.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// Snapshot returns a copy of all counters.
func (c *Counter) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	c.m.Range(func(k, v any) bool {
		out[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return out
}

// String renders the counters sorted by name.
func (c *Counter) String() string {
	snap := c.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, snap[k])
	}
	return strings.Join(parts, " ")
}

// Gauge is an instantaneous level — in-flight queries, open connections —
// as opposed to Counter's monotone totals. It is a bare atomic so Inc/Dec
// pairs are cheap enough for per-request bracketing on hot paths.
type Gauge struct {
	v atomic.Int64
}

// Inc raises the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the gauge by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add moves the gauge by delta (negative to lower).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Get returns the current level.
func (g *Gauge) Get() int64 { return g.v.Load() }

// SetupBreakdown decomposes what the controller observes of one flow-setup
// (Figure 1): the ident++ queries to both ends (3) and the policy
// evaluation. The punt (2) and the entry installation (4) cross the switch
// channel, where the controller sees neither end; they are not here.
type SetupBreakdown struct {
	QuerySrc time.Duration // ident++ RTT to source daemon
	QueryDst time.Duration // ident++ RTT to destination daemon
	Eval     time.Duration // PF+=2 evaluation
}

// Total returns the setup latency the controller accounts for. Queries to
// the two ends overlap (§2 queries "both the source and the destination"),
// so the slower of the two dominates.
func (b SetupBreakdown) Total() time.Duration {
	q := b.QuerySrc
	if b.QueryDst > q {
		q = b.QueryDst
	}
	return q + b.Eval
}

// SetupRecorder aggregates breakdowns stage by stage.
type SetupRecorder struct {
	QuerySrc, QueryDst, Eval, Total *Histogram
}

// NewSetupRecorder creates a recorder.
func NewSetupRecorder() *SetupRecorder {
	return &SetupRecorder{
		QuerySrc: NewHistogram(),
		QueryDst: NewHistogram(),
		Eval:     NewHistogram(),
		Total:    NewHistogram(),
	}
}

// Observe records one breakdown.
func (r *SetupRecorder) Observe(b SetupBreakdown) {
	r.QuerySrc.Observe(b.QuerySrc)
	r.QueryDst.Observe(b.QueryDst)
	r.Eval.Observe(b.Eval)
	r.Total.Observe(b.Total())
}
