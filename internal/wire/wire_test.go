package wire

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

func sampleFlow() flow.Five {
	return flow.Five{
		SrcIP:   netaddr.MustParseIP("192.168.0.5"),
		DstIP:   netaddr.MustParseIP("192.168.1.1"),
		Proto:   netaddr.ProtoTCP,
		SrcPort: 43210,
		DstPort: 80,
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := Query{Flow: sampleFlow(), Keys: []string{KeyUserID, KeyName, KeyExeHash}}
	payload := EncodeQuery(q)
	// First line must be "<PROTO> <SRC PORT> <DST PORT>" per §3.2.
	first := strings.SplitN(string(payload), "\n", 2)[0]
	if first != "6 43210 80" {
		t.Errorf("tuple line = %q", first)
	}
	got, err := DecodeQuery(payload, q.Flow.SrcIP, q.Flow.DstIP)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != q.Flow {
		t.Errorf("flow = %v, want %v", got.Flow, q.Flow)
	}
	if len(got.Keys) != 3 || got.Keys[0] != KeyUserID || got.Keys[2] != KeyExeHash {
		t.Errorf("keys = %v", got.Keys)
	}
}

func TestQueryNoKeys(t *testing.T) {
	q := Query{Flow: sampleFlow()}
	got, err := DecodeQuery(EncodeQuery(q), q.Flow.SrcIP, q.Flow.DstIP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys) != 0 {
		t.Errorf("keys = %v, want none", got.Keys)
	}
}

// TestQueryTraceIDRoundTrip: the flight-recorder trace ID rides the query
// as a `trace:<hex>` line after the key hints and survives a round trip;
// an untraced query carries no trace line at all.
func TestQueryTraceIDRoundTrip(t *testing.T) {
	q := Query{Flow: sampleFlow(), Keys: []string{KeyUserID}, TraceID: 0xdeadbeefcafe0001}
	payload := EncodeQuery(q)
	if !strings.Contains(string(payload), "trace:deadbeefcafe0001\n") {
		t.Fatalf("payload missing trace line:\n%s", payload)
	}
	got, err := DecodeQuery(payload, q.Flow.SrcIP, q.Flow.DstIP)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != q.TraceID {
		t.Errorf("TraceID = %x, want %x", got.TraceID, q.TraceID)
	}
	if len(got.Keys) != 1 || got.Keys[0] != KeyUserID {
		t.Errorf("keys = %v, want [%s] (trace line must not surface as a hint)", got.Keys, KeyUserID)
	}

	plain := EncodeQuery(Query{Flow: sampleFlow(), Keys: []string{KeyUserID}})
	if strings.Contains(string(plain), "trace:") {
		t.Errorf("untraced query grew a trace line:\n%s", plain)
	}
}

// TestQueryTraceLineLegacyTolerance: a malformed trace line must degrade
// to an ordinary key hint instead of failing the query — hints are
// advisory, and a legacy peer emitting something trace-shaped still gets
// an answer.
func TestQueryTraceLineLegacyTolerance(t *testing.T) {
	// Only the exact EncodeQuery shape (%016x, nonzero) is a trace line:
	// short hex — a legitimate hint that merely resembles a trace — must
	// reach the daemon as a hint, not be silently consumed.
	for _, line := range []string{"trace:", "trace:zzzz", "trace:0", "trace:abcd", "trace:deadbeefcafe00011", "trace:0000000000000000"} {
		payload := []byte("6 43210 80\n" + KeyUserID + "\n" + line + "\n")
		got, err := DecodeQuery(payload, 0, 0)
		if err != nil {
			t.Fatalf("DecodeQuery with %q: %v", line, err)
		}
		if got.TraceID != 0 {
			t.Errorf("line %q parsed as TraceID %x, want 0", line, got.TraceID)
		}
		if len(got.Keys) != 2 || got.Keys[1] != line {
			t.Errorf("line %q: keys = %v, want it preserved as a hint", line, got.Keys)
		}
	}
}

// TestQueryTraceLineFirstWins: with two trace-shaped lines in one payload,
// the first sets the trace ID and the second degrades to a hint — a later
// line must not overwrite the ID the querier attributed the RTT to.
func TestQueryTraceLineFirstWins(t *testing.T) {
	payload := []byte("6 43210 80\ntrace:deadbeefcafe0001\ntrace:deadbeefcafe0002\n")
	got, err := DecodeQuery(payload, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 0xdeadbeefcafe0001 {
		t.Errorf("TraceID = %x, want first line's deadbeefcafe0001", got.TraceID)
	}
	if len(got.Keys) != 1 || got.Keys[0] != "trace:deadbeefcafe0002" {
		t.Errorf("keys = %v, want the second trace line preserved as a hint", got.Keys)
	}
}

func TestDecodeQueryErrors(t *testing.T) {
	for _, bad := range []string{"", "6 80", "x 1 2", "6 x 2", "6 1 x", "6 1 999999"} {
		if _, err := DecodeQuery([]byte(bad), 0, 0); err == nil {
			t.Errorf("DecodeQuery(%q) should fail", bad)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	r := NewResponse(sampleFlow())
	r.Add(KeyUserID, "alice")
	r.Add(KeyName, "skype")
	r.Add(KeyVersion, "210")
	sec := r.Augment("controller-B")
	sec.Add("netpath", "branchB")
	sec.Add(KeyUserID, "alice@B")

	payload := EncodeResponse(r)
	got, err := DecodeResponse(payload, r.Flow.SrcIP, r.Flow.DstIP)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != r.Flow {
		t.Errorf("flow = %v", got.Flow)
	}
	if len(got.Sections) != 2 {
		t.Fatalf("sections = %d, want 2: %q", len(got.Sections), payload)
	}
	if v, _ := got.Latest(KeyName); v != "skype" {
		t.Errorf("name = %q", v)
	}
	// Latest wins across sections.
	if v, _ := got.Latest(KeyUserID); v != "alice@B" {
		t.Errorf("latest userID = %q, want alice@B", v)
	}
	// Concat exposes the full chain.
	if v, _ := got.Concat(KeyUserID); v != "alice"+ConcatSeparator+"alice@B" {
		t.Errorf("concat userID = %q", v)
	}
}

func TestResponseWireFormatShape(t *testing.T) {
	r := NewResponse(sampleFlow())
	r.Add("a", "1")
	r.Augment("x").Add("b", "2")
	text := string(EncodeResponse(r))
	want := "6 43210 80\na: 1\n\nb: 2\n"
	if text != want {
		t.Errorf("wire text = %q, want %q", text, want)
	}
}

func TestLatestWithinSection(t *testing.T) {
	r := NewResponse(sampleFlow())
	r.Add("k", "old")
	r.Add("k", "new")
	if v, _ := r.Latest("k"); v != "new" {
		t.Errorf("latest = %q, want new (last pair in section wins)", v)
	}
}

func TestLatestMissing(t *testing.T) {
	r := NewResponse(sampleFlow())
	if _, ok := r.Latest("nope"); ok {
		t.Error("Latest on missing key should report !ok")
	}
	if _, ok := r.Concat("nope"); ok {
		t.Error("Concat on missing key should report !ok")
	}
}

func TestValueSanitization(t *testing.T) {
	r := NewResponse(sampleFlow())
	r.Add("rules", "block all\npass all")
	got, err := DecodeResponse(EncodeResponse(r), r.Flow.SrcIP, r.Flow.DstIP)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := got.Latest("rules")
	if strings.Contains(v, "\n") {
		t.Errorf("newline leaked into wire value: %q", v)
	}
	if v != "block all pass all" {
		t.Errorf("sanitized value = %q", v)
	}
	// Injection attempt: a value carrying an empty line + fake pair must not
	// create a forged section.
	r2 := NewResponse(sampleFlow())
	r2.Add("x", "1\n\nuserID: root")
	got2, err := DecodeResponse(EncodeResponse(r2), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Sections) != 1 {
		t.Errorf("value injection created %d sections", len(got2.Sections))
	}
	if _, ok := got2.Latest(KeyUserID); ok {
		t.Error("value injection forged a userID pair")
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"6 1",
		"6 1 2\nno-colon-line\n",
		"6 1 2\n: novalue\n",
	} {
		if _, err := DecodeResponse([]byte(bad), 0, 0); err == nil {
			t.Errorf("DecodeResponse(%q) should fail", bad)
		}
	}
}

func TestDecodeResponseOversize(t *testing.T) {
	big := make([]byte, MaxMessageSize+1)
	if _, err := DecodeResponse(big, 0, 0); err == nil {
		t.Error("oversized response should fail")
	}
}

func TestResponseClone(t *testing.T) {
	r := NewResponse(sampleFlow())
	r.Add("k", "v")
	c := r.Clone()
	c.Augment("x").Add("k", "v2")
	if len(r.Sections) != 1 {
		t.Error("Clone aliases the original sections")
	}
	if v, _ := r.Latest("k"); v != "v" {
		t.Error("mutating clone changed original")
	}
}

func TestResponseKeys(t *testing.T) {
	r := NewResponse(sampleFlow())
	r.Add("b", "1")
	r.Add("a", "2")
	r.Augment("x").Add("b", "3")
	keys := r.Keys()
	if len(keys) != 2 || keys[0] != "b" || keys[1] != "a" {
		t.Errorf("keys = %v", keys)
	}
}

func TestResponseRoundTripProperty(t *testing.T) {
	// Any response assembled from printable single-line pairs survives a
	// wire round trip with sections and order intact.
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r < 32 || r == 127 || r == ':' {
				return -1
			}
			return r
		}, s)
		s = strings.TrimSpace(s)
		if s == "" {
			return "k"
		}
		return s
	}
	f := func(keys []string, vals []string, split uint8) bool {
		if len(keys) == 0 {
			return true
		}
		if len(vals) < len(keys) {
			return true
		}
		r := NewResponse(sampleFlow())
		cut := int(split) % (len(keys) + 1)
		for i, k := range keys {
			if i == cut {
				r.Augment("mid")
			}
			v := strings.TrimSpace(strings.Map(func(c rune) rune {
				if c < 32 || c == 127 {
					return ' '
				}
				return c
			}, vals[i]))
			r.Add(clean(k), v)
		}
		got, err := DecodeResponse(EncodeResponse(r), r.Flow.SrcIP, r.Flow.DstIP)
		if err != nil {
			return false
		}
		for _, k := range r.Keys() {
			wantV, _ := r.Latest(k)
			gotV, ok := got.Latest(k)
			if !ok || gotV != strings.Join(strings.Fields(wantV), " ") {
				// Encoding collapses embedded control chars to spaces; compare
				// with whitespace normalized.
				if !ok || strings.Join(strings.Fields(gotV), " ") != strings.Join(strings.Fields(wantV), " ") {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFramedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	q := Query{Flow: sampleFlow(), Keys: []string{KeyUserID}}
	if err := WriteQuery(&buf, q); err != nil {
		t.Fatal(err)
	}
	r := NewResponse(sampleFlow())
	r.Add(KeyUserID, "bob")
	if err := WriteResponse(&buf, r); err != nil {
		t.Fatal(err)
	}

	gotQ, err := ReadQuery(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotQ.Flow != q.Flow || len(gotQ.Keys) != 1 {
		t.Errorf("query = %+v", gotQ)
	}
	gotR, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := gotR.Latest(KeyUserID); v != "bob" {
		t.Errorf("framed response userID = %q", v)
	}
}

func TestFramedTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	r := NewResponse(sampleFlow())
	if err := WriteResponse(&buf, r); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadQuery(&buf); err == nil {
		t.Error("ReadQuery on a response frame should fail")
	}
}

func TestFramedRejectsOversize(t *testing.T) {
	// A forged header advertising a huge payload must be rejected before
	// allocation.
	hdr := []byte{FrameQuery, 0, 0, 0, 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("oversized frame header accepted")
	}
}

func TestFramedRejectsUnknownType(t *testing.T) {
	// 'C' is the config snapshot an older controller replica pushes when it
	// joins; no current peer accepts it.
	for _, typ := range []byte{'Z', 'C'} {
		hdr := []byte{typ, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0}
		if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
			t.Errorf("unknown frame type %q accepted", typ)
		}
	}
}

func TestFramedTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteQuery(&buf, Query{Flow: sampleFlow()}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for cut := 1; cut < len(b); cut += 2 {
		if _, err := ReadFrame(bytes.NewReader(b[:cut])); err == nil {
			t.Errorf("truncated frame (%d bytes) accepted", cut)
		}
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	r := NewResponse(sampleFlow())
	r.Add(KeyUserID, "alice")
	r.Add(KeyName, "skype")
	r.Add(KeyVersion, "210")
	r.Add(KeyExeHash, strings.Repeat("ab", 32))
	r.Add(KeyRequirements, "block all pass all with eq(@src[name], skype)")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeResponse(r)
	}
}

func BenchmarkDecodeResponse(b *testing.B) {
	r := NewResponse(sampleFlow())
	r.Add(KeyUserID, "alice")
	r.Add(KeyName, "skype")
	r.Augment("ctrl").Add("netpath", "branchB")
	payload := EncodeResponse(r)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResponse(payload, r.Flow.SrcIP, r.Flow.DstIP); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeResponseAllocations: a decode costs the payload's string and one
// object holding the response, its first two sections and its first eight
// pairs; only pairs past the eighth cost an array of their own.
func TestDecodeResponseAllocations(t *testing.T) {
	for _, c := range []struct {
		pairs, sections int
		want            float64
	}{{5, 2, 2}, {8, 2, 2}, {9, 1, 3}} {
		r := NewResponse(sampleFlow())
		for i := 0; i < c.pairs; i++ {
			if i == c.pairs/2 && c.sections > 1 {
				r.Augment("ctrl")
			}
			r.Add(fmt.Sprintf("key%d", i), "value")
		}
		payload := EncodeResponse(r)
		got := testing.AllocsPerRun(100, func() {
			if _, err := DecodeResponse(payload, r.Flow.SrcIP, r.Flow.DstIP); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%d pairs in %d sections: %v allocations per decode, want %v", c.pairs, c.sections, got, c.want)
		}
	}
}

// TestDecodeQueryHeadAllocatesNothing: a responder that reads only a query's
// flow and trace ID takes no allocation per query, key hints or not.
func TestDecodeQueryHeadAllocatesNothing(t *testing.T) {
	q := Query{Flow: sampleFlow(), Keys: []string{KeyUserID, "a-rather-long-key-hint-past-the-stack-buffer"}, TraceID: 0xfeedface}
	payload := EncodeQuery(q)
	var got Query
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if got, err = DecodeQueryHead(payload, q.Flow.SrcIP, q.Flow.DstIP); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per decode, want 0", allocs)
	}
	if got.Flow != q.Flow || got.TraceID != q.TraceID || got.Keys != nil {
		t.Errorf("decoded %+v, want the flow and trace ID of %+v and no keys", got, q)
	}
}

// The append encoders replaced fmt and strings.Builder; the bytes on the
// wire are the ones those produced.
func TestAppendEncodersMatchFmt(t *testing.T) {
	f := sampleFlow()
	q := Query{Flow: f, Keys: []string{" name ", "userID"}, TraceID: 0xabc}
	wantQ := fmt.Sprintf("%d %d %d\nname\nuserID\ntrace:%016x\n", f.Proto, f.SrcPort, f.DstPort, q.TraceID)
	if got := string(EncodeQuery(q)); got != wantQ {
		t.Errorf("query payload %q, want %q", got, wantQ)
	}
	r := NewResponse(f)
	r.Add(" name", "sky\npe")
	r.Augment("ctl").Add("netpath", "b")
	wantR := fmt.Sprintf("%d %d %d\nname: sky pe\n\nnetpath: b\n", f.Proto, f.SrcPort, f.DstPort)
	if got := string(EncodeResponse(r)); got != wantR {
		t.Errorf("response payload %q, want %q", got, wantR)
	}

	scoped := r.Clone()
	scoped.Scope = ListenerScope(f.Proto, f.DstPort)

	// AppendQuery/AppendResponse are the frame around the same payload,
	// behind whatever the buffer already held.
	for name, c := range map[string]struct {
		frame Frame
		app   func([]byte) ([]byte, error)
	}{
		"query":    {Frame{FrameQuery, f.SrcIP, f.DstIP, EncodeQuery(q)}, func(b []byte) ([]byte, error) { return AppendQuery(b, q) }},
		"response": {Frame{FrameResponse, f.SrcIP, f.DstIP, EncodeResponse(r)}, func(b []byte) ([]byte, error) { return AppendResponse(b, r) }},
		"response body": {Frame{FrameResponse, f.SrcIP, f.DstIP, EncodeResponse(r)}, func(b []byte) ([]byte, error) {
			return AppendResponseBody(b, f, AppendSections(nil, r.Sections), r.Scope)
		}},
		"scoped response body": {Frame{FrameResponse, f.SrcIP, f.DstIP, EncodeResponse(scoped)}, func(b []byte) ([]byte, error) {
			return AppendResponseBody(b, f, AppendSections(nil, scoped.Sections), scoped.Scope)
		}},
	} {
		want, err := AppendFrame([]byte("earlier"), c.frame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.app([]byte("earlier"))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: %q (%v), want %q", name, got, err, want)
		}
	}

	// A payload over the limit leaves the buffer as it was.
	big := Query{Flow: f, Keys: []string{strings.Repeat("k", MaxMessageSize)}}
	if got, err := AppendQuery([]byte("earlier"), big); err == nil || string(got) != "earlier" {
		t.Errorf("oversized query: err %v, %d bytes in the buffer", err, len(got))
	}
}

type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

func TestWritersIssueOneWrite(t *testing.T) {
	var w writeCounter
	if err := WriteQuery(&w, Query{Flow: sampleFlow(), Keys: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteResponse(&w, NewResponse(sampleFlow())); err != nil {
		t.Fatal(err)
	}
	if err := WriteUpdate(&w, Update{Serial: 1, Hello: true}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSubscribe(&w); err != nil {
		t.Fatal(err)
	}
	if w.writes != 4 {
		t.Fatalf("%d writes for 4 frames", w.writes)
	}
}
