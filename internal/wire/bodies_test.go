package wire

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestBodyTableSharesOnlyIdenticalBodies: bodies that differ only in the
// scope line, in one value, or in where a section splits decode apart — none
// is served another's sections — while a repeat of one body, under any tuple
// line, shares the sections of its first sight.
func TestBodyTableSharesOnlyIdenticalBodies(t *testing.T) {
	for _, c := range []struct{ name, a, b string }{
		{"scope line", "name: skype\n", "name: skype\nscope: listener 6/5060\n"},
		{"scope", "name: skype\nscope: listener 6/5060\n", "name: skype\nscope: listener 6/5061\n"},
		{"one value", "name: skype\nuserID: alice\n", "name: skype\nuserID: alicf\n"},
		{"section split", "name: skype\nuserID: alice\n", "name: skype\n\nuserID: alice\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var tab BodyTable
			var first Response
			for i, body := range []string{c.a, c.b, c.a, c.b} {
				payload := []byte(fmt.Sprintf("6 %d 5060\n%s", 40000+i, body))
				want, err := DecodeResponse(payload, fuzzSrc, fuzzDst)
				if err != nil {
					t.Fatal(err)
				}
				var got Response
				if err := tab.Decode(payload, fuzzSrc, fuzzDst, &got); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(&got, want) {
					t.Fatalf("decode %d of %q through the table:\n  %+v\nwant\n  %+v", i, body, got, *want)
				}
				switch i {
				case 0:
					first = got
				case 2:
					if &got.Sections[0] != &first.Sections[0] {
						t.Errorf("a repeat of %q decoded its sections again", body)
					}
				}
			}
		})
	}
}

// TestBodyTableBound: a connection whose every answer is a body never seen
// before keeps its table within BodyTableBytes, each answer decoding as
// DecodeResponse decodes it; a body too long to keep is decoded and not kept.
func TestBodyTableBound(t *testing.T) {
	var tab BodyTable
	for i := 0; i < 10000; i++ {
		payload := []byte(fmt.Sprintf("6 %d 80\nname: app-%d\nrequirements: %0200d\n\nhost: h%d\n", 1+i%60000, i, i, i%7))
		want, _ := DecodeResponse(payload, fuzzSrc, fuzzDst)
		var got Response
		if err := tab.Decode(payload, fuzzSrc, fuzzDst, &got); err != nil || !reflect.DeepEqual(&got, want) {
			t.Fatalf("body %d decoded as %+v (%v), want %+v", i, got, err, *want)
		}
		if b := tab.Bytes(); b <= 0 || b > BodyTableBytes {
			t.Fatalf("after body %d the table holds %d bytes, bound %d", i, b, BodyTableBytes)
		}
	}
	before := tab.Bytes()
	long := []byte("6 1 80\nrequirements: " + strings.Repeat("x", maxTableBody) + "\n")
	var got Response
	if err := tab.Decode(long, fuzzSrc, fuzzDst, &got); err != nil || len(got.Sections[0].Pairs) != 1 {
		t.Fatalf("long body decoded as %+v (%v)", got, err)
	}
	if tab.Bytes() != before {
		t.Errorf("a body past the size cap was kept: %d bytes, was %d", tab.Bytes(), before)
	}
}

// BenchmarkBodyTableDecode prices a connection's replies decoded through a
// BodyTable against DecodeResponse, for a daemon-sized answer of eight pairs:
//
//   - repeat: every reply repeats one body, as a daemon's per-process or
//     per-listener answer does;
//   - distinct: every reply carries a body the table has not kept, as
//     answers with per-flow pairs do: each is decoded and kept, and the
//     table is cleared whenever it fills;
//   - decode-response: the same distinct replies through DecodeResponse.
func BenchmarkBodyTableDecode(b *testing.B) {
	payload := func(i, body int) []byte {
		return []byte(fmt.Sprintf("6 %d 80\nuserID: alice\ngroupID: users staff\nname: skype\napp-name: skype\n"+
			"exe-hash: %064x\nversion: 210\nhost: pc%d\nflow-pair: %d\n", 1024+i%60000, 7, 1, body))
	}
	const n = 4096
	distinct := make([][]byte, n)
	for i := range distinct {
		distinct[i] = payload(i, i)
	}
	repeat := make([][]byte, n)
	for i := range repeat {
		repeat[i] = payload(i, 0)
	}
	run := func(b *testing.B, payloads [][]byte, decode func([]byte) error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := decode(payloads[i%n]); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name     string
		payloads [][]byte
	}{{"repeat", repeat}, {"distinct", distinct}} {
		b.Run(c.name, func(b *testing.B) {
			var tab BodyTable
			var r Response
			run(b, c.payloads, func(p []byte) error { return tab.Decode(p, fuzzSrc, fuzzDst, &r) })
		})
	}
	b.Run("decode-response", func(b *testing.B) {
		run(b, distinct, func(p []byte) error {
			_, err := DecodeResponse(p, fuzzSrc, fuzzDst)
			return err
		})
	})
}

// TestBodyTableDecodeUpdateAllocations: an update whose key and values the
// table holds decodes without an allocation, one with a new value copies that
// value once, and DecodeUpdate copies each value every time.
func TestBodyTableDecodeUpdateAllocations(t *testing.T) {
	u := Update{Flow: sampleFlow(), Scope: ListenerScope(6, 5060), Key: KeyName, Old: "skype", New: "a-value-longer-than-a-stack-buffer-of-32", Serial: 12345678901}
	payload := EncodeUpdate(u)
	var tab BodyTable
	decode := func(decode func() (Update, error)) float64 {
		return testing.AllocsPerRun(100, func() {
			if got, err := decode(); err != nil || got != u {
				t.Fatalf("decoded %+v (%v), want %+v", got, err, u)
			}
		})
	}
	if got := decode(func() (Update, error) { return tab.DecodeUpdate(payload, u.Flow.SrcIP, u.Flow.DstIP) }); got != 0 {
		t.Errorf("a repeated update: %v allocations per decode, want 0", got)
	}
	if got := decode(func() (Update, error) { return DecodeUpdate(payload, u.Flow.SrcIP, u.Flow.DstIP) }); got != 3 {
		t.Errorf("DecodeUpdate: %v allocations per decode, want 3: one per value", got)
	}
	// AllocsPerRun runs its function once more than it counts.
	fresh := make([][]byte, 101)
	for i := range fresh {
		fresh[i] = fmt.Appendf(payload[:len(payload):len(payload)], "old: %d\n", i)
	}
	i := 0
	if got := testing.AllocsPerRun(len(fresh)-1, func() {
		if _, err := tab.DecodeUpdate(fresh[i], u.Flow.SrcIP, u.Flow.DstIP); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 1 {
		t.Errorf("an update with a value new to the table: %v allocations per decode, want 1", got)
	}
}
