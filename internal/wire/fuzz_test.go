package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

var (
	fuzzSrc = netaddr.MustParseIP("10.0.0.1")
	fuzzDst = netaddr.MustParseIP("10.0.0.2")
)

// FuzzDecodeQuery checks the §3.2 query codec: any payload DecodeQuery
// accepts must re-encode and re-decode to the same query (decode∘encode is
// the identity on decoded values), and no input may panic the decoder.
func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("6 234 80\n"),
		[]byte("6 234 80\nname\nuserID\n"),
		[]byte("17 53 53\nos-patch\n\nversion\n"),
		EncodeQuery(Query{Keys: []string{KeyUserID, KeyName, KeyExeHash}}),
		[]byte("6 234\n"),       // malformed: short tuple line
		[]byte("x y z\nname\n"), // malformed: non-numeric tuple
		[]byte(""),
		[]byte("\n\n\n"),
		// Framing seeds: a payload larger than any read buffer in the tree,
		// and one with a trace line.
		[]byte("6 234 80\n" + strings.Repeat("a-rather-long-key-hint\n", 400)),
		EncodeQuery(Query{Keys: []string{KeyName}, TraceID: 0xfeedface}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkFraming(t, Frame{Type: FrameQuery, SrcIP: fuzzSrc, DstIP: fuzzDst, Payload: payload})
		q, err := DecodeQuery(payload, fuzzSrc, fuzzDst)
		if ref, refErr := decodeQueryRef(payload); (err == nil) != (refErr == nil) || !reflect.DeepEqual(q, ref) {
			t.Fatalf("decoder and reference disagree:\n  got:  %+v, %v\n  want: %+v, %v", q, err, ref, refErr)
		}
		if head, headErr := DecodeQueryHead(payload, fuzzSrc, fuzzDst); (headErr == nil) != (err == nil) ||
			head.Flow != q.Flow || head.TraceID != q.TraceID || head.Keys != nil {
			t.Fatalf("DecodeQueryHead disagrees with DecodeQuery:\n  head: %+v, %v\n  full: %+v, %v", head, headErr, q, err)
		}
		if err != nil {
			return
		}
		if q.Flow.SrcIP != fuzzSrc || q.Flow.DstIP != fuzzDst {
			t.Fatalf("decoded flow lost transport addresses: %+v", q.Flow)
		}
		again, err := DecodeQuery(EncodeQuery(q), fuzzSrc, fuzzDst)
		if err != nil {
			t.Fatalf("re-encoded query is undecodable: %v", err)
		}
		if again.Flow != q.Flow || !reflect.DeepEqual(again.Keys, q.Keys) {
			t.Fatalf("query round trip diverged:\n  first:  %+v\n  second: %+v", q, again)
		}
	})
}

// FuzzDecodeResponse checks the response codec the same way, including the
// §2 section semantics (empty-line-delimited augmentation sections) and
// the Latest/Concat accessors PF+=2 indexes with.
func FuzzDecodeResponse(f *testing.F) {
	multi := NewResponse(flow.Five{})
	multi.Add(KeyName, "skype")
	multi.Add(KeyUserID, "alice")
	sec := multi.Augment("controller:branch")
	sec.Add("netpath", "branchB")
	sec.Add(KeyName, "skype-relay")
	for _, seed := range [][]byte{
		[]byte("6 234 80\n"),
		[]byte("6 234 80\nname: skype\nuserID: alice\n"),
		[]byte("6 234 80\nname: skype\n\nnetpath: branchB\n"),
		[]byte("17 1 2\n\nname: late\n"), // leading empty section
		EncodeResponse(multi),
		[]byte("6 234 80\nno-colon-line\n"), // malformed pair
		[]byte("6 234 80\n: novalue\n"),     // malformed: empty key
		[]byte(""),
		// Framing seed: larger than any read buffer in the tree.
		[]byte("6 234 80\n" + strings.Repeat("requirements: a value of some length\n", 300)),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkFraming(t, Frame{Type: FrameResponse, SrcIP: fuzzSrc, DstIP: fuzzDst, Payload: payload})
		r, err := DecodeResponse(payload, fuzzSrc, fuzzDst)
		if ref, refErr := decodeResponseRef(payload); (err == nil) != (refErr == nil) || !reflect.DeepEqual(r, ref) {
			t.Fatalf("decoder and reference disagree:\n  got:  %+v, %v\n  want: %+v, %v", r, err, ref, refErr)
		}
		if err != nil {
			return
		}
		for i, s := range r.Sections {
			// One array backs every section's pairs: growing one section
			// must not write into the next.
			if len(s.Pairs) != cap(s.Pairs) {
				t.Fatalf("section %d has room for %d pairs beyond its own", i, cap(s.Pairs)-len(s.Pairs))
			}
		}
		again, err := DecodeResponse(EncodeResponse(r), fuzzSrc, fuzzDst)
		if err != nil {
			t.Fatalf("re-encoded response is undecodable: %v", err)
		}
		if again.Flow != r.Flow || !reflect.DeepEqual(again.Sections, r.Sections) {
			t.Fatalf("response round trip diverged:\n  first:  %+v\n  second: %+v", r, again)
		}
		// The dictionary views must agree on every key however sections
		// were split, and Clone must be observationally identical.
		clone := r.Clone()
		for _, k := range r.Keys() {
			lv, lok := r.Latest(k)
			cv, cok := r.Concat(k)
			if !lok || !cok {
				t.Fatalf("key %q listed but not readable (latest %v concat %v)", k, lok, cok)
			}
			if gv, _ := clone.Latest(k); gv != lv {
				t.Fatalf("clone diverged on %q: %q vs %q", k, gv, lv)
			}
			_ = cv
		}
	})
}

// decodeQueryRef and decodeResponseRef are the decoders as first written —
// split the payload into lines, then walk them — kept as the reference the
// in-place decoders must agree with on every input.
func decodeQueryRef(payload []byte) (Query, error) {
	lines := strings.Split(string(payload), "\n")
	if strings.TrimSpace(lines[0]) == "" {
		return Query{}, fmt.Errorf("empty query")
	}
	f, err := parseTupleLineRef(lines[0])
	if err != nil {
		return Query{}, err
	}
	f.SrcIP, f.DstIP = fuzzSrc, fuzzDst
	q := Query{Flow: f}
	for _, l := range lines[1:] {
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(l, traceLinePrefix); ok && q.TraceID == 0 && len(rest) == 16 {
			if id, err := strconv.ParseUint(rest, 16, 64); err == nil && id != 0 {
				q.TraceID = id
				continue
			}
		}
		q.Keys = append(q.Keys, l)
	}
	return q, nil
}

// parseTupleLineRef is the tuple line parser as first written, over
// strings.Fields.
func parseTupleLineRef(line string) (flow.Five, error) {
	var f flow.Five
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return f, fmt.Errorf("malformed tuple line")
	}
	var v [3]uint64
	for i, bits := range []int{8, 16, 16} {
		n, err := strconv.ParseUint(fields[i], 10, bits)
		if err != nil {
			return f, err
		}
		v[i] = n
	}
	f.Proto, f.SrcPort, f.DstPort = netaddr.Proto(v[0]), netaddr.Port(v[1]), netaddr.Port(v[2])
	return f, nil
}

func decodeResponseRef(payload []byte) (*Response, error) {
	if len(payload) > MaxMessageSize {
		return nil, fmt.Errorf("too large")
	}
	lines := strings.Split(string(payload), "\n")
	if strings.TrimSpace(lines[0]) == "" {
		return nil, fmt.Errorf("empty response")
	}
	f, err := parseTupleLineRef(lines[0])
	if err != nil {
		return nil, err
	}
	f.SrcIP, f.DstIP = fuzzSrc, fuzzDst
	r := &Response{Flow: f, Sections: []Section{{}}}
	cur := &r.Sections[0]
	for _, l := range lines[1:] {
		trimmed := strings.TrimRight(l, "\r")
		if strings.TrimSpace(trimmed) == "" {
			if len(cur.Pairs) == 0 && len(r.Sections) > 1 {
				continue
			}
			r.Sections = append(r.Sections, Section{})
			cur = &r.Sections[len(r.Sections)-1]
			continue
		}
		colon := strings.Index(trimmed, ":")
		if colon < 0 {
			return nil, fmt.Errorf("malformed pair")
		}
		key := strings.TrimSpace(trimmed[:colon])
		val := sanitizeValue(strings.TrimSpace(trimmed[colon+1:]))
		if key == "" {
			return nil, fmt.Errorf("empty key")
		}
		cur.Add(key, val)
	}
	if n := len(r.Sections); n > 1 && len(r.Sections[n-1].Pairs) == 0 {
		r.Sections = r.Sections[:n-1]
	}
	return r, nil
}

// checkFraming checks the envelope around any payload: however the stream is
// cut into reads — all at once, a byte at a time, through a buffer smaller
// than the frame — ReadFrame returns the frame that was appended (as does
// ReadFrameInto, reusing its buffer), and FrameBuffered says "whole" exactly when a ReadFrame would not have to wait.
func checkFraming(t *testing.T, f Frame) {
	t.Helper()
	if len(f.Payload) > MaxMessageSize {
		if b, err := AppendFrame([]byte("x"), f); err == nil || string(b) != "x" {
			t.Fatalf("oversized frame appended (err %v, %d bytes)", err, len(b))
		}
		return
	}
	one, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(append([]byte(nil), one...), one...)
	readers := map[string]*bufio.Reader{
		"whole":    bufio.NewReaderSize(bytes.NewReader(stream), len(stream)+16),
		"one-byte": bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), 16),
		"small":    bufio.NewReaderSize(bytes.NewReader(stream), 64),
	}
	for name, br := range readers {
		for i := 0; i < 2; i++ {
			got, err := ReadFrame(br)
			if err != nil || got.Type != f.Type || got.SrcIP != f.SrcIP || got.DstIP != f.DstIP || !bytes.Equal(got.Payload, f.Payload) {
				t.Fatalf("%s reader, frame %d: %+v, %v", name, i, got, err)
			}
		}
		if _, err := ReadFrame(br); err == nil {
			t.Fatalf("%s reader: frame past the end", name)
		}
	}
	// ReadFrameInto over one buffer passed back in: both frames whole, the
	// second in the first's memory when that was large enough.
	var buf []byte
	in := bytes.NewReader(stream)
	for i := 0; i < 2; i++ {
		var got Frame
		held := cap(buf)
		got, buf, err = ReadFrameInto(in, buf)
		if err != nil || got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("ReadFrameInto, frame %d: %+v, %v", i, got, err)
		}
		if i == 1 && cap(buf) != held {
			t.Fatalf("ReadFrameInto replaced a %d-byte buffer for a %d-byte payload", held, len(f.Payload))
		}
	}
	// One and a half frames buffered: the first is whole, the rest is not.
	cut := len(one) + len(one)/2
	br := bufio.NewReaderSize(bytes.NewReader(stream[:cut]), len(stream)+16)
	br.Peek(1) // fill
	if !FrameBuffered(br) {
		t.Fatal("a whole buffered frame reported as not buffered")
	}
	if _, err := ReadFrame(br); err != nil {
		t.Fatal(err)
	}
	if FrameBuffered(br) {
		t.Fatal("half a frame reported as whole")
	}
}

// FuzzDecodeHello checks the update codec with the hello path's
// credential extension: the `cred:`/`csig:` lines are attacker-controlled
// input on a public socket, so no payload may panic the decoder, and one
// encode/decode round trip must be a fixed point — the form the pool
// verifies signatures over is the form that survives relay. (Exact
// first-decode identity is asserted unless a value carried an interior
// CR, which sanitizeValue canonicalizes to a space on re-encode.)
func FuzzDecodeHello(f *testing.F) {
	for _, seed := range [][]byte{
		[]byte("0 0 0\nserial: 7\nhello: 1\n"),
		[]byte("0 0 0\nserial: 7\nhello: 1\ncred: v1 host=10.0.0.1 keys=* exp=1767225600 pub=AAAA sig=BBBB\ncsig: CCCC\n"),
		EncodeUpdate(Update{Serial: 1, Hello: true, Cred: "v1 host=10.0.0.1 keys=name,user-id exp=2 pub=x sig=y", CredSig: "z"}),
		EncodeUpdate(Update{Flow: flow.Five{Proto: 6, SrcPort: 234, DstPort: 80}, Serial: 3, Key: KeyName, Old: "skype", New: ""}),
		[]byte("0 0 0\nserial: 7\ncred: \n"),           // empty blob collapses to absent
		[]byte("0 0 0\nserial: 7\ncsig: a b c\n"),      // spaces inside values survive
		[]byte("0 0 0\nhello: 1\ncred: x\n"),           // malformed: no serial
		[]byte("0 0 0\nserial: 9\ncred no-colon\n"),    // malformed line
		[]byte("0 0 0\nserial: 1\nunknown: ignored\n"), // unknown lines skipped
		[]byte(""),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		u, err := DecodeUpdate(payload, fuzzSrc, fuzzDst)
		if err != nil {
			return
		}
		again, err := DecodeUpdate(EncodeUpdate(u), fuzzSrc, fuzzDst)
		if err != nil {
			t.Fatalf("re-encoded update is undecodable: %v", err)
		}
		crFree := !strings.ContainsRune(u.Key+u.Old+u.New+u.Cred+u.CredSig, '\r')
		if crFree && again != u {
			t.Fatalf("update round trip diverged:\n  first:  %+v\n  second: %+v", u, again)
		}
		third, err := DecodeUpdate(EncodeUpdate(again), fuzzSrc, fuzzDst)
		if err != nil {
			t.Fatalf("second re-encode is undecodable: %v", err)
		}
		if third != again {
			t.Fatalf("round trip has no fixed point:\n  second: %+v\n  third:  %+v", again, third)
		}
	})
}
