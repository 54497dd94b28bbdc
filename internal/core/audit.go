package core

import (
	"fmt"
	"sort"
	"strings"
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

// AuditLog is a bounded ring buffer of decisions. Record runs on every flow
// decision, so the ring is a metrics.Ring, striped so concurrent decisions
// rarely share a lock; a global sequence number restores total order on read
// and doubles as the total-recorded count. The ring keeps each entry as an
// auditSlot and Entries rebuilds the AuditEntry.
type AuditLog struct {
	ring *metrics.Ring[auditSlot]
	seq  atomic.Int64

	// stream is the optional live tap (SetStream): a decision-path-safe
	// callback invoked once per recorded entry, after the ring write. It is
	// an atomic pointer so the common case — no sink attached — costs one
	// load per Record, and attaching costs no lock anywhere.
	stream atomic.Pointer[func(AuditEntry)]
}

// auditSlot is what the ring keeps of one AuditEntry: 80 bytes with the
// ring's sequence number, where the entry took 152, so a 4096-entry ring
// holds 320 KB, not 608 (TestAuditSlotSize). The time is Unix nanoseconds
// and a bit for UTC: it comes back as the same instant, in UTC if it was
// recorded in UTC and in Local otherwise (the simulator's clock is UTC, a
// real one Local), without a monotonic reading. The rule text is a pointer
// to a string that outlives the entry (a rule's memoized rendering, a
// teardown label); diagnostics, rare, are boxed; the booleans are bits.
type auditSlot struct {
	unixNano                 int64
	rule                     *string
	diags                    *[]string
	querySrc, queryDst, eval time.Duration
	flow                     flow.Five
	action                   uint8
	flags                    uint8
}

// auditSlot.flags bits.
const (
	slotMatched = 1 << iota
	slotKeepState
	slotRevoked
	slotDstHeld
	slotTime // the time is not the zero time
	slotUTC  // the time was recorded in UTC
)

// emptyRule is the text of an entry recorded with no rule.
var emptyRule = ""

func newAuditSlot(e *AuditEntry, rule *string) auditSlot {
	s := auditSlot{
		rule:     rule,
		querySrc: e.Setup.QuerySrc,
		queryDst: e.Setup.QueryDst,
		eval:     e.Setup.Eval,
		flow:     e.Flow,
		action:   uint8(e.Action),
	}
	if !e.Time.IsZero() {
		s.unixNano = e.Time.UnixNano()
		s.flags |= slotTime
		if e.Time.Location() == time.UTC {
			s.flags |= slotUTC
		}
	}
	if len(e.Diags) > 0 {
		d := e.Diags
		s.diags = &d
	}
	if e.Matched {
		s.flags |= slotMatched
	}
	if e.KeepState {
		s.flags |= slotKeepState
	}
	if e.Revoked {
		s.flags |= slotRevoked
	}
	if e.Setup.DstHeld {
		s.flags |= slotDstHeld
	}
	return s
}

// entry rebuilds the AuditEntry recorded under seq.
func (s *auditSlot) entry(seq int64) AuditEntry {
	e := AuditEntry{
		Flow:      s.flow,
		Action:    pf.Action(s.action),
		Rule:      *s.rule,
		Matched:   s.flags&slotMatched != 0,
		KeepState: s.flags&slotKeepState != 0,
		Setup: metrics.SetupBreakdown{
			QuerySrc: s.querySrc,
			QueryDst: s.queryDst,
			Eval:     s.eval,
			DstHeld:  s.flags&slotDstHeld != 0,
		},
		Revoked: s.flags&slotRevoked != 0,
		seq:     seq,
	}
	if s.flags&slotTime != 0 {
		e.Time = time.Unix(0, s.unixNano)
		if s.flags&slotUTC != 0 {
			e.Time = e.Time.UTC()
		}
	}
	if s.diags != nil {
		e.Diags = *s.diags
	}
	return e
}

// NewAuditLog creates a log holding up to capEntries (default 4096).
func NewAuditLog(capEntries int) *AuditLog {
	if capEntries <= 0 {
		capEntries = 4096
	}
	return &AuditLog{ring: metrics.NewRing[auditSlot](capEntries)}
}

// Record appends an entry under the next sequence number.
func (l *AuditLog) Record(e AuditEntry) {
	rule := &emptyRule
	if e.Rule != "" {
		text := e.Rule
		rule = &text
	}
	l.record(e, rule)
}

// record is Record for a caller holding a pointer to e.Rule's text that
// stays valid and unchanged: the slot keeps the pointer, not a copy.
func (l *AuditLog) record(e AuditEntry, rule *string) {
	e.seq = l.seq.Add(1)
	l.ring.Put(e.seq, newAuditSlot(&e, rule))
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
	return metrics.Collect(l.ring, func(seq int64, s *auditSlot) AuditEntry { return s.entry(seq) })
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
