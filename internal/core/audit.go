package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/metrics"
	"identxx/internal/pf"
)

// AuditEntry records one flow decision. The audit trail is what lets an
// administrator "override, audit, and revoke the delegation when necessary"
// (§7): every decision names the deciding rule and carries the evaluation
// diagnostics.
type AuditEntry struct {
	Time      time.Time
	Flow      flow.Five
	Action    pf.Action
	Rule      string
	Matched   bool
	KeepState bool
	Diags     []string
	Setup     metrics.SetupBreakdown

	// Revoked marks a revocation-plane teardown record: not a flow-setup
	// decision but the live withdrawal of one (Rule carries the reason).
	Revoked bool

	// seq totally orders entries across stripes; assigned by Record.
	seq int64
}

// Seq returns the entry's global sequence number (1-based, assigned by
// Record); exported for streaming sinks that need a stable cursor.
func (e AuditEntry) Seq() int64 { return e.seq }

func (e AuditEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s -> %s (rule: %s)",
		e.Time.Format(time.RFC3339), e.Flow, e.Action, e.Rule)
	if len(e.Diags) > 0 {
		fmt.Fprintf(&b, " diags=%d", len(e.Diags))
	}
	return b.String()
}

// auditStripe is one independently locked ring buffer.
type auditStripe struct {
	mu      sync.Mutex
	entries []AuditEntry
	next    int
	full    bool
}

func (s *auditStripe) record(e AuditEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[s.next] = e
	s.next++
	if s.next == len(s.entries) {
		s.next = 0
		s.full = true
	}
}

func (s *auditStripe) retained() []AuditEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		out := make([]AuditEntry, s.next)
		copy(out, s.entries[:s.next])
		return out
	}
	out := make([]AuditEntry, 0, len(s.entries))
	out = append(out, s.entries[s.next:]...)
	out = append(out, s.entries[:s.next]...)
	return out
}

// AuditLog is a bounded ring buffer of decisions. Internally it is striped
// across independently locked rings so Record — which runs on every flow
// decision — never serializes concurrent decisions behind one lock; a
// global sequence number restores total order on read and doubles as the
// total-recorded count.
type AuditLog struct {
	stripes []auditStripe
	seq     atomic.Int64

	// stream is the optional live tap (SetStream): a decision-path-safe
	// callback invoked once per recorded entry, after the ring write. It is
	// an atomic pointer so the common case — no sink attached — costs one
	// load per Record, and attaching costs no lock anywhere.
	stream atomic.Pointer[func(AuditEntry)]
}

// auditStripes is fixed: enough to keep concurrent deciders apart without
// fragmenting small logs.
const auditStripes = 8

// NewAuditLog creates a log holding up to capEntries (default 4096).
func NewAuditLog(capEntries int) *AuditLog {
	if capEntries <= 0 {
		capEntries = 4096
	}
	n := auditStripes
	if capEntries < n {
		n = 1
	}
	per, rem := capEntries/n, capEntries%n
	l := &AuditLog{stripes: make([]auditStripe, n)}
	for i := range l.stripes {
		size := per
		if i < rem {
			size++ // distribute the remainder so capacity is exact
		}
		l.stripes[i].entries = make([]AuditEntry, size)
	}
	return l
}

// Record appends an entry. Stripes are picked round-robin off the global
// sequence number, so retained capacity stays ~capEntries even when one
// flow dominates the traffic (hash striping would pin such a workload to
// one ring and quietly shrink retention 8x).
func (l *AuditLog) Record(e AuditEntry) {
	e.seq = l.seq.Add(1)
	l.stripes[e.seq%int64(len(l.stripes))].record(e)
	if fn := l.stream.Load(); fn != nil {
		(*fn)(e)
	}
}

// SetStream attaches (or with nil detaches) a live tap invoked once per
// recorded entry with the sequence number already assigned. Record runs on
// the decision path, so fn MUST NOT block: sinks buffer and drop (see
// internal/telemetry.AuditSink), they do not apply backpressure here.
func (l *AuditLog) SetStream(fn func(AuditEntry)) {
	if fn == nil {
		l.stream.Store(nil)
		return
	}
	l.stream.Store(&fn)
}

// Total returns the number of entries ever recorded.
func (l *AuditLog) Total() int64 {
	return l.seq.Load()
}

// Entries returns the retained entries, oldest first.
func (l *AuditLog) Entries() []AuditEntry {
	var out []AuditEntry
	for i := range l.stripes {
		out = append(out, l.stripes[i].retained()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Denials returns the retained entries that denied a flow at setup.
// Revocation records are not denials — the flow was admitted, then
// withdrawn — so they are excluded; see Revocations.
func (l *AuditLog) Denials() []AuditEntry {
	var out []AuditEntry
	for _, e := range l.Entries() {
		if e.Action == pf.Block && !e.Revoked {
			out = append(out, e)
		}
	}
	return out
}

// Revocations returns the retained revocation-plane teardown records.
func (l *AuditLog) Revocations() []AuditEntry {
	var out []AuditEntry
	for _, e := range l.Entries() {
		if e.Revoked {
			out = append(out, e)
		}
	}
	return out
}

// RuleCount aggregates the retained audit entries that named one policy
// rule: how often it decided, how many of those decisions denied, and how
// many were revocation teardowns. This is the per-policy-rule drill-down
// behind the `/rules` operator view — counts cover the audit ring's retention
// window, not process lifetime.
type RuleCount struct {
	Rule                   string
	Total, Denied, Revoked int64
}

// RuleCounts aggregates the retained entries by deciding rule, sorted by
// descending Total then rule string (deterministic for the operator view).
func (l *AuditLog) RuleCounts() []RuleCount {
	agg := make(map[string]*RuleCount)
	for _, e := range l.Entries() {
		rc := agg[e.Rule]
		if rc == nil {
			rc = &RuleCount{Rule: e.Rule}
			agg[e.Rule] = rc
		}
		rc.Total++
		if e.Revoked {
			rc.Revoked++
		} else if e.Action == pf.Block {
			rc.Denied++
		}
	}
	out := make([]RuleCount, 0, len(agg))
	for _, rc := range agg {
		out = append(out, *rc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}
