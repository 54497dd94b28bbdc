package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderAndBufferAreInert(t *testing.T) {
	var r *Recorder
	b := r.Begin(42)
	if b != nil {
		t.Fatalf("nil recorder Begin returned %v", b)
	}
	// Every instrument point must be callable on the nils the disabled
	// path holds.
	b.Rec(StageEval, 0, 0)
	b.RecAux(StageQueryDone, FlagSrc, 1, 2)
	b.SetFlow(6, 1, 2, 3, 4)
	b.SetVerdict("pass")
	if b.ID() != 0 || b.Sampled() {
		t.Fatal("nil buffer leaked state")
	}
	r.Finish(b)
	if got := r.Traces(); got != nil {
		t.Fatalf("nil recorder retained %v", got)
	}
}

func TestSampleEveryOneRetainsAll(t *testing.T) {
	r := New(Config{SampleEvery: 1})
	for i := 0; i < 10; i++ {
		b := r.Begin(0)
		b.Rec(StageMegaflowProbe, FlagHit, 0)
		b.SetVerdict("pass")
		r.Finish(b)
	}
	got := r.Traces()
	if len(got) != 10 {
		t.Fatalf("retained %d traces, want 10", len(got))
	}
	if n := r.Counters.Get("trace_sampled"); n != 10 {
		t.Fatalf("trace_sampled=%d, want 10", n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("traces not seq-ordered: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	// begin + probe + finish
	if len(got[0].Events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(got[0].Events), got[0].Events)
	}
	if got[0].Verdict != "pass" {
		t.Fatalf("verdict %q", got[0].Verdict)
	}
}

func TestSampleRateZeroDropsUnlessSlow(t *testing.T) {
	r := New(Config{SampleEvery: 0, SlowThreshold: 5 * time.Millisecond})
	// Fast decision: dropped.
	b := r.Begin(0)
	r.Finish(b)
	if n := r.Counters.Get("trace_dropped"); n != 1 {
		t.Fatalf("trace_dropped=%d, want 1", n)
	}
	// Slow decision: captured by the threshold despite sampling off.
	b = r.Begin(0)
	b.start = time.Now().Add(-10 * time.Millisecond) // age the trace past the threshold
	r.Finish(b)
	slow := r.Slow()
	if len(slow) != 1 || !slow[0].Slow || slow[0].Sampled {
		t.Fatalf("slow capture wrong: %+v", slow)
	}
	if n := r.Counters.Get("trace_slow_captured"); n != 1 {
		t.Fatalf("trace_slow_captured=%d, want 1", n)
	}
}

func TestSamplerIsDeterministicOnID(t *testing.T) {
	r1 := New(Config{SampleEvery: 4})
	r2 := New(Config{SampleEvery: 4})
	// Two recorders (different seeds) must agree on any given ID: the
	// forwarder and the owner keep or drop the same stitched trace.
	var kept int
	for id := uint64(1); id <= 256; id++ {
		a, b := r1.sampledID(id), r2.sampledID(id)
		if a != b {
			t.Fatalf("sampler disagrees on id %d", id)
		}
		if a {
			kept++
		}
	}
	if kept == 0 || kept == 256 {
		t.Fatalf("sampler kept %d/256 at rate 4", kept)
	}
}

func TestStitchedInheritsIDAndCounts(t *testing.T) {
	r := New(Config{SampleEvery: 1})
	b := r.Begin(0xabcdef)
	if b.ID() != 0xabcdef || !b.stitched {
		t.Fatalf("inherited id not honored: %x stitched=%v", b.ID(), b.stitched)
	}
	r.Finish(b)
	if n := r.Counters.Get("trace_stitched"); n != 1 {
		t.Fatalf("trace_stitched=%d, want 1", n)
	}
	got := r.Find(0xabcdef)
	if len(got) != 1 || !got[0].Stitched {
		t.Fatalf("Find: %+v", got)
	}
	if got[0].Events[0].Flags&FlagStitched == 0 {
		t.Fatal("begin event missing stitched flag")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := New(Config{SampleEvery: 1, RingSize: 16})
	for i := 0; i < 100; i++ {
		r.Finish(r.Begin(0))
	}
	got := r.Traces()
	if len(got) != 16 {
		t.Fatalf("retained %d, want ring size 16", len(got))
	}
	// The survivors are the newest 100-16.. range (striped, so exact
	// membership varies, but nothing older than seq 100-2*stripe span
	// should survive and the max seq must be the last one).
	if got[len(got)-1].Seq != 100 {
		t.Fatalf("newest retained seq %d, want 100", got[len(got)-1].Seq)
	}
}

func TestEventOverflowDropsSilently(t *testing.T) {
	r := New(Config{SampleEvery: 1})
	b := r.Begin(0)
	for i := 0; i < 2*maxEvents; i++ {
		b.Rec(StageEval, 0, int64(i))
	}
	r.Finish(b)
	got := r.Traces()
	if len(got[0].Events) != maxEvents {
		t.Fatalf("got %d events, want capped at %d", len(got[0].Events), maxEvents)
	}
}

func TestBufferReuseResetsState(t *testing.T) {
	r := New(Config{SampleEvery: 1, RingSize: 4})
	b := r.Begin(0)
	b.SetFlow(6, 0x0a000001, 0x0a000002, 40000, 80)
	b.SetVerdict("deny")
	for i := 0; i < maxEvents; i++ {
		b.Rec(StageEval, FlagDeny, 0)
	}
	r.Finish(b)
	// The pool has one buffer; the next Begin must not leak the old run.
	b2 := r.Begin(0)
	if n := b2.n.Load(); n != 1 { // just the begin event
		t.Fatalf("reused buffer has %d events", n)
	}
	if b2.verdict != "" || b2.srcIP != 0 {
		t.Fatalf("reused buffer leaked flow/verdict: %+v", b2)
	}
	r.Finish(b2)
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := New(Config{SampleEvery: 1})
	b := r.Begin(0)
	b.SetFlow(6, 0x0a000001, 0x0a000002, 40000, 80)
	b.SetVerdict("pass")
	b.RecAux(StageQueryDone, FlagSrc|FlagErr, int64(3*time.Millisecond), 2)
	r.Finish(b)

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Traces()); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("want one JSON line, got %q", line)
	}
	var decoded struct {
		ID     string `json:"id"`
		Flow   string `json:"flow"`
		Events []struct {
			Stage string `json:"stage"`
			Flags string `json:"flags"`
			Arg   int64  `json:"arg"`
			Aux   int32  `json:"aux"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(line), &decoded); err != nil {
		t.Fatalf("line not JSON: %v\n%s", err, line)
	}
	if decoded.Flow != "6 10.0.0.1:40000>10.0.0.2:80" {
		t.Fatalf("flow rendered %q", decoded.Flow)
	}
	if _, err := ParseID(decoded.ID); err != nil {
		t.Fatalf("exported id %q does not parse: %v", decoded.ID, err)
	}
	found := false
	for _, e := range decoded.Events {
		if e.Stage == "query-done" {
			found = true
			if e.Flags != "src,err" || e.Arg != int64(3*time.Millisecond) || e.Aux != 2 {
				t.Fatalf("query-done event wrong: %+v", e)
			}
		}
	}
	if !found {
		t.Fatal("query-done event missing from export")
	}
}

func TestParseIDRejectsJunk(t *testing.T) {
	for _, s := range []string{"", "0", "zz", "10000000000000000f"} {
		if _, err := ParseID(s); err == nil {
			t.Fatalf("ParseID(%q) accepted", s)
		}
	}
	id, err := ParseID(FormatID(0xdeadbeef))
	if err != nil || id != 0xdeadbeef {
		t.Fatalf("round trip: %x %v", id, err)
	}
}

func TestConcurrentRecordRetain(t *testing.T) {
	r := New(Config{SampleEvery: 2, SlowThreshold: time.Hour, RingSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := r.Begin(0)
				b.Rec(StageMegaflowProbe, 0, 0)
				b.Rec(StageEval, 0, 0)
				r.Finish(b)
			}
		}()
	}
	wg.Wait()
	total := r.Counters.Get("trace_sampled") + r.Counters.Get("trace_dropped") + r.Counters.Get("trace_slow_captured")
	if total != 1600 {
		t.Fatalf("conservation: sampled+dropped+slow=%d, want 1600", total)
	}
	for _, tr := range r.Traces() {
		if len(tr.Events) != 4 {
			t.Fatalf("trace has %d events, want 4", len(tr.Events))
		}
	}
}
