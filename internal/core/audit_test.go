package core

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"identxx/internal/flow"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/pf"
)

// TestAuditEntriesRoundTrip: the ring keeps an entry as a compact slot, and
// Entries gives back everything Record was given — the time as the same
// instant in the same zone, UTC for the simulator's clock and Local for a
// real one — for each kind of record the controller writes.
func TestAuditEntriesRoundTrip(t *testing.T) {
	five := flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 5060}
	at := time.Date(2009, 8, 21, 0, 0, 0, 0, time.UTC) // the simulator's epoch
	want := []AuditEntry{
		{ // a decision, with everything set
			Time: at, Flow: five, Action: pf.Pass,
			Rule:    "pass from any to any with eq(@src[name], skype) keep state @ policy:2",
			Matched: true, KeepState: true,
			Diags: []string{"policy:3: unknown function frob", "policy:4: eq: want 2 arguments"},
			Setup: metrics.SetupBreakdown{QuerySrc: 1234567 * time.Nanosecond, QueryDst: 3 * time.Hour, Eval: 1, DstHeld: true},
		},
		{ // a flow's teardown, on a real clock
			Time: time.Now(), Flow: five.Reverse(), Action: pf.Block,
			Rule: "(revoked: update:name)", Revoked: true,
		},
		{ // a class's teardown, at the Unix epoch
			Time: time.Unix(0, 0).UTC(), Flow: five, Action: pf.Block,
			Rule: "(megaflow revoked: update:name)", Revoked: true,
		},
		{ // the default verdict, unmatched, with the zero time
			Flow: five, Action: pf.Block, Rule: "(default)",
			Setup: metrics.SetupBreakdown{QuerySrc: 5 * time.Microsecond, QueryDst: 6 * time.Microsecond, Eval: 7 * time.Microsecond},
		},
		{Flow: five}, // nothing else at all
	}
	l := NewAuditLog(8)
	var streamed []AuditEntry
	l.SetStream(func(e AuditEntry) { streamed = append(streamed, e) })
	for i := range want {
		l.Record(want[i])
		want[i].seq = int64(i + 1)
	}
	if !reflect.DeepEqual(streamed, want) {
		t.Errorf("stream got %+v,\nwant %+v", streamed, want)
	}
	got := l.Entries()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i := range got {
		want[i].Time = want[i].Time.Round(0) // the ring keeps no monotonic reading
		if !reflect.DeepEqual(got[i], want[i]) {
			type fields AuditEntry // prints every field, where AuditEntry.String does not
			t.Errorf("entry %d: %+v,\nwant %+v", i, fields(got[i]), fields(want[i]))
		}
	}
	if s, w := got[0].String(), "2009-08-21T00:00:00Z "; !strings.HasPrefix(s, w) {
		t.Errorf("entry 0 prints %q, want it to start %q", s, w)
	}
	if d := l.Denials(); len(d) != 2 || d[0].Rule != "(default)" {
		t.Errorf("denials %+v, want the default verdict and the empty entry", d)
	}
	if r := l.Revocations(); len(r) != 2 || r[1].Rule != "(megaflow revoked: update:name)" {
		t.Errorf("revocations %+v, want the two teardowns", r)
	}
}

// TestAuditSlotSize pins what the ring holds per entry, its sequence number
// included: at most 80 bytes, where the entry itself takes 144.
func TestAuditSlotSize(t *testing.T) {
	var slot struct {
		seq int64
		v   auditSlot
	}
	if n := unsafe.Sizeof(slot); n > 80 {
		t.Errorf("an audit ring slot takes %d bytes, want at most 80", n)
	}
}
