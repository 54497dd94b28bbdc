// Package trace is the per-decision flight recorder: a pooled, fixed-size
// span buffer rides each decision through the controller pipeline and
// records timestamped events at every stage boundary — megaflow and exact
// cache probes, the header-only pre-pass, query enqueue/completion per
// endpoint (annotated with the query engine's retries and breaker),
// policy eval, install fan-out, waiter
// release, and revocation voids. Completed traces land in a metrics.Ring;
// the telemetry server exports them as JSON-lines on /trace.
//
// The recorder has three costs, kept strictly separated:
//
//   - Disabled (nil *Recorder anywhere in the pipeline): every instrument
//     point is a nil-receiver method call that returns immediately. The
//     decision path performs zero additional allocations — the ≤ 2
//     allocs/op budgets (BenchmarkM8/M12/M14) hold, enforced by
//     BenchmarkM15_Trace/off in bench-compare.
//   - Enabled, not retained: Begin takes a pooled buffer and Rec appends
//     into its fixed array; Finish returns the buffer to the pool. Two
//     time reads and a pool round-trip per decision, still allocation-free
//     in steady state.
//   - Retained (sampled, or slower than the slow threshold): the buffer is
//     copied into the ring. Only this path allocates.
//
// Sampling is deterministic on the trace ID (a bit-mix, not a per-process
// RNG), so when a forwarded packet-in carries its ID across the cluster
// link, the forwarder and the owner independently reach the same
// keep/drop verdict and the stitched halves are retained together. The
// slow-decision trigger is local and unconditional: even at sample rate 0
// a decision that crosses SlowThreshold is captured, which keeps the tail
// visible at negligible steady-state cost.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/metrics"
)

// Stage identifies one pipeline boundary a span event marks.
type Stage uint8

const (
	// StageBegin is recorded when a decision acquires its trace buffer.
	StageBegin Stage = iota
	// StageForward marks a non-owned packet-in handed to its owning
	// replica over the cluster link (recorded on the forwarder's half).
	StageForward
	// StageMegaflowProbe is the verdict-cache probe (exact entries and
	// wildcard classes alike; the wire name predates the one table).
	StageMegaflowProbe
	// StagePrepass is the header-only pre-pass.
	StagePrepass
	// StageQueryEnqueue marks one endpoint query entering the query plane.
	StageQueryEnqueue
	// StageQueryDone marks one endpoint query completing. Arg is the RTT
	// in nanoseconds, Aux the transport attempts the flight consumed.
	StageQueryDone
	// StageEval is policy evaluation.
	StageEval
	// StageInstall marks the verdict's flow-mods applied. Arg is the
	// number the switches accepted.
	StageInstall
	// StageWaiterRelease marks parked duplicate packet-ins being
	// released. Arg is the waiter count.
	StageWaiterRelease
	// StageRevocationVoid marks the decision voided by a racing
	// revocation (the verdict was discarded, not installed).
	StageRevocationVoid
	// StageFinish closes the trace.
	StageFinish
)

var stageNames = [...]string{
	StageBegin:          "begin",
	StageForward:        "forward",
	StageMegaflowProbe:  "megaflow-probe",
	StagePrepass:        "prepass",
	StageQueryEnqueue:   "query-enqueue",
	StageQueryDone:      "query-done",
	StageEval:           "eval",
	StageInstall:        "install",
	StageWaiterRelease:  "waiter-release",
	StageRevocationVoid: "revocation-void",
	StageFinish:         "finish",
}

// String returns the stage's stable wire/JSON name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage-" + strconv.Itoa(int(s))
}

// Event flags annotate a span event. Src/Dst tell the two endpoint
// queries apart; the query-plane flags carry the engine's view of how the
// flight was served.
const (
	// FlagHit marks a probe that hit (megaflow/cache) or a pre-pass that
	// decided the flow.
	FlagHit uint16 = 1 << iota
	// FlagSrc marks an event about the source endpoint.
	FlagSrc
	// FlagDst marks an event about the destination endpoint.
	FlagDst
	// FlagBreaker marks a query fast-failed by an open circuit breaker.
	FlagBreaker
	// FlagErr marks a stage that completed with an error.
	FlagErr
	// FlagDeny marks an eval/finish whose verdict blocked the flow.
	FlagDeny
	// FlagStitched marks a begin that inherited its trace ID from
	// another replica's forward (or a retried local fallback).
	FlagStitched
	// FlagFallback marks a forward that failed and fell back to a local
	// decision.
	FlagFallback
)

var flagNames = []struct {
	bit  uint16
	name string
}{
	{FlagHit, "hit"},
	{FlagSrc, "src"},
	{FlagDst, "dst"},
	{FlagBreaker, "breaker"},
	{FlagErr, "err"},
	{FlagDeny, "deny"},
	{FlagStitched, "stitched"},
	{FlagFallback, "fallback"},
}

// FlagString renders a flag set as a stable comma-joined list.
func FlagString(f uint16) string {
	if f == 0 {
		return ""
	}
	var parts []string
	for _, fn := range flagNames {
		if f&fn.bit != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, ",")
}

// Event is one recorded span event. At is the offset from the trace's
// start; Arg and Aux are stage-specific (see the Stage constants).
type Event struct {
	Stage Stage
	Flags uint16
	Aux   int32
	At    time.Duration
	Arg   int64
}

// maxEvents bounds one decision's span count. A full decision records
// roughly a dozen events; the headroom absorbs waiter bursts and future
// stages without reallocating. Overflow drops further events silently —
// the buffer is a flight recorder, not a log.
const maxEvents = 24

// Buffer is the pooled per-decision recording surface. All methods are
// nil-receiver safe so instrument points need no enabled-check of their
// own; a nil *Buffer IS the disabled state.
//
// Rec/RecAux may be called concurrently (the two endpoint-query
// completions run on independent worker goroutines); slots are reserved
// with an atomic cursor. Finish must only run once every recorder is done
// — the controller's pending-completion count provides that ordering.
type Buffer struct {
	id       uint64
	start    time.Time
	sampled  bool
	stitched bool
	n        atomic.Int32
	ev       [maxEvents]Event

	proto            uint8
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	verdict          string
}

// ID returns the trace ID (0 on a nil buffer).
func (b *Buffer) ID() uint64 {
	if b == nil {
		return 0
	}
	return b.id
}

// Sampled reports whether the deterministic sampler selected this trace.
func (b *Buffer) Sampled() bool { return b != nil && b.sampled }

// Rec appends one span event. Nil-safe; events past maxEvents are dropped.
func (b *Buffer) Rec(stage Stage, flags uint16, arg int64) {
	b.RecAux(stage, flags, arg, 0)
}

// RecAux is Rec with the auxiliary count field (e.g. transport attempts).
func (b *Buffer) RecAux(stage Stage, flags uint16, arg int64, aux int32) {
	if b == nil {
		return
	}
	i := b.n.Add(1) - 1
	if int(i) >= len(b.ev) {
		return
	}
	b.ev[i] = Event{Stage: stage, Flags: flags, Aux: aux, At: time.Since(b.start), Arg: arg}
}

// SetFlow records the decision's 5-tuple for export.
func (b *Buffer) SetFlow(proto uint8, srcIP, dstIP uint32, srcPort, dstPort uint16) {
	if b == nil {
		return
	}
	b.proto, b.srcIP, b.dstIP, b.srcPort, b.dstPort = proto, srcIP, dstIP, srcPort, dstPort
}

// SetVerdict records the decision outcome ("pass", "deny", ...). The
// string should be a constant; retained traces keep the reference.
func (b *Buffer) SetVerdict(v string) {
	if b == nil {
		return
	}
	b.verdict = v
}

// Trace is one retained (completed) trace: an immutable copy of a
// buffer's recording plus retention metadata.
type Trace struct {
	ID       uint64
	Seq      int64
	Start    time.Time
	Elapsed  time.Duration
	Sampled  bool
	Slow     bool
	Stitched bool

	Proto            uint8
	SrcIP, DstIP     uint32
	SrcPort, DstPort uint16
	Verdict          string

	Events []Event
}

// FlowString renders the recorded 5-tuple.
func (t Trace) FlowString() string {
	return fmt.Sprintf("%d %s:%d>%s:%d", t.Proto, ipString(t.SrcIP), t.SrcPort, ipString(t.DstIP), t.DstPort)
}

func ipString(ip uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// FormatID renders a trace ID the way the JSON export and the /trace
// endpoint's ?id= both spell it.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID parses FormatID's rendering (leading zeros optional).
func ParseID(s string) (uint64, error) {
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil || id == 0 {
		return 0, fmt.Errorf("bad trace id %q", s)
	}
	return id, nil
}

// Config parameterizes a Recorder.
type Config struct {
	// SampleEvery retains roughly 1 in N traces, selected
	// deterministically from the trace ID so stitched halves agree
	// across replicas. 1 retains every trace; 0 disables sampling
	// entirely (slow-capture still applies).
	SampleEvery int
	// SlowThreshold retains any decision that took at least this long,
	// regardless of sampling. 0 disables the slow trigger.
	SlowThreshold time.Duration
	// RingSize is the retained-trace capacity
	// (default 512).
	RingSize int
}

// Recorder owns the buffer pool, the sampler, and the retention ring.
// A nil *Recorder is the disabled state: Begin returns nil and Finish is
// a no-op, so components hold a possibly-nil recorder and never branch.
type Recorder struct {
	sampleEvery uint64
	slow        time.Duration

	// Counters: trace_sampled / trace_dropped / trace_slow_captured /
	// trace_stitched, exported through telemetry.RegisterTrace.
	Counters *metrics.Counter
	hot      struct {
		sampled, dropped, slowCaptured, stitched *atomic.Int64
	}

	idSeq atomic.Uint64
	seed  uint64
	pool  sync.Pool
	ring  *metrics.Ring[Trace]
	seq   atomic.Int64
}

// New creates an enabled recorder. Callers that want tracing off pass a
// nil *Recorder around instead.
func New(cfg Config) *Recorder {
	r := &Recorder{
		sampleEvery: uint64(max(cfg.SampleEvery, 0)),
		slow:        cfg.SlowThreshold,
		Counters:    metrics.NewCounter(),
		seed:        mix64(uint64(time.Now().UnixNano()) | 1),
	}
	r.hot.sampled = r.Counters.Cell("trace_sampled")
	r.hot.dropped = r.Counters.Cell("trace_dropped")
	r.hot.slowCaptured = r.Counters.Cell("trace_slow_captured")
	r.hot.stitched = r.Counters.Cell("trace_stitched")
	r.pool.New = func() any { return new(Buffer) }
	size := cfg.RingSize
	if size <= 0 {
		size = 512
	}
	r.ring = metrics.NewRing[Trace](size)
	return r
}

// mix64 is splitmix64's finalizer: a fixed, process-independent bit mix
// used for both ID generation and the deterministic sampler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewID mints a fresh non-zero trace ID.
func (r *Recorder) NewID() uint64 {
	id := mix64(r.seed ^ r.idSeq.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// sampledID is the deterministic sampler: pure function of the ID, so
// every replica that sees this trace reaches the same verdict.
func (r *Recorder) sampledID(id uint64) bool {
	switch r.sampleEvery {
	case 0:
		return false
	case 1:
		return true
	}
	return mix64(id)%r.sampleEvery == 0
}

// Begin takes a pooled buffer for one decision. inherited is the trace ID
// carried in on a forwarded packet-in (0 = fresh decision); a non-zero
// inherited ID stitches this trace to the forwarder's and counts
// trace_stitched. Returns nil on a nil recorder.
func (r *Recorder) Begin(inherited uint64) *Buffer {
	if r == nil {
		return nil
	}
	id := inherited
	if id == 0 {
		id = r.NewID()
	}
	b := r.pool.Get().(*Buffer)
	b.id = id
	b.start = time.Now()
	b.sampled = r.sampledID(id)
	b.stitched = inherited != 0
	b.n.Store(0)
	b.proto, b.srcIP, b.dstIP, b.srcPort, b.dstPort = 0, 0, 0, 0, 0
	b.verdict = ""
	if b.stitched {
		r.hot.stitched.Add(1)
		b.Rec(StageBegin, FlagStitched, 0)
	} else {
		b.Rec(StageBegin, 0, 0)
	}
	return b
}

// Finish retires a buffer: retained into the ring when sampled or slower
// than the threshold, dropped (and counted) otherwise. The buffer returns
// to the pool either way and must not be used afterwards. Nil-safe on
// both receiver and argument.
func (r *Recorder) Finish(b *Buffer) {
	if r == nil || b == nil {
		return
	}
	elapsed := time.Since(b.start)
	b.Rec(StageFinish, 0, 0)
	slow := r.slow > 0 && elapsed >= r.slow
	if b.sampled || slow {
		n := int(b.n.Load())
		if n > len(b.ev) {
			n = len(b.ev)
		}
		t := Trace{
			ID:       b.id,
			Seq:      r.seq.Add(1),
			Start:    b.start,
			Elapsed:  elapsed,
			Sampled:  b.sampled,
			Slow:     slow,
			Stitched: b.stitched,
			Proto:    b.proto,
			SrcIP:    b.srcIP,
			DstIP:    b.dstIP,
			SrcPort:  b.srcPort,
			DstPort:  b.dstPort,
			Verdict:  b.verdict,
			Events:   append([]Event(nil), b.ev[:n]...),
		}
		r.ring.Put(t.Seq, t)
		if b.sampled {
			r.hot.sampled.Add(1)
		} else {
			r.hot.slowCaptured.Add(1)
		}
	} else {
		r.hot.dropped.Add(1)
	}
	r.pool.Put(b)
}

// Traces returns every retained trace, oldest first.
func (r *Recorder) Traces() []Trace {
	if r == nil {
		return nil
	}
	return r.ring.Values()
}

// Slow returns the retained traces captured (or also qualifying) as slow.
func (r *Recorder) Slow() []Trace {
	all := r.Traces()
	out := all[:0]
	for _, t := range all {
		if t.Slow {
			out = append(out, t)
		}
	}
	return out
}

// Find returns every retained trace with the given ID (a stitched
// decision retained on a replica that both forwarded and decided — e.g.
// after a fallback — yields more than one).
func (r *Recorder) Find(id uint64) []Trace {
	all := r.Traces()
	out := all[:0]
	for _, t := range all {
		if t.ID == id {
			out = append(out, t)
		}
	}
	return out
}

// JSON-lines export: one object per trace, events inline, IDs and stages
// spelled exactly as FormatID and the stage names spell them.
type eventJSON struct {
	Stage string `json:"stage"`
	AtUS  int64  `json:"at_us"`
	Flags string `json:"flags,omitempty"`
	Arg   int64  `json:"arg,omitempty"`
	Aux   int32  `json:"aux,omitempty"`
}

type traceJSON struct {
	ID        string      `json:"id"`
	Seq       int64       `json:"seq"`
	Start     string      `json:"start"`
	ElapsedUS int64       `json:"elapsed_us"`
	Sampled   bool        `json:"sampled"`
	Slow      bool        `json:"slow"`
	Stitched  bool        `json:"stitched"`
	Flow      string      `json:"flow"`
	Verdict   string      `json:"verdict,omitempty"`
	Events    []eventJSON `json:"events"`
}

// WriteJSON writes traces as JSON-lines.
func WriteJSON(w io.Writer, traces []Trace) error {
	enc := json.NewEncoder(w)
	for _, t := range traces {
		tj := traceJSON{
			ID:        FormatID(t.ID),
			Seq:       t.Seq,
			Start:     t.Start.UTC().Format(time.RFC3339Nano),
			ElapsedUS: t.Elapsed.Microseconds(),
			Sampled:   t.Sampled,
			Slow:      t.Slow,
			Stitched:  t.Stitched,
			Flow:      t.FlowString(),
			Verdict:   t.Verdict,
			Events:    make([]eventJSON, len(t.Events)),
		}
		for i, e := range t.Events {
			tj.Events[i] = eventJSON{
				Stage: e.Stage.String(),
				AtUS:  e.At.Microseconds(),
				Flags: FlagString(e.Flags),
				Arg:   e.Arg,
				Aux:   e.Aux,
			}
		}
		if err := enc.Encode(tj); err != nil {
			return err
		}
	}
	return nil
}
