package wire

import (
	"reflect"
	"strings"
	"testing"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

func scopeFlow() flow.Five {
	return flow.Five{
		SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 8080,
	}
}

// TestResponseScopeRoundTrip: a listener scope is the payload's last line,
// comes back as the response's Scope and is no pair; a flow-scoped response
// encodes exactly as before scopes existed.
func TestResponseScopeRoundTrip(t *testing.T) {
	f := scopeFlow()
	r := NewResponse(f)
	r.Add(KeyUserID, "www")
	r.Augment("").Add(KeyHost, "pc2") // Source is never serialized
	flat := string(EncodeResponse(r))
	if strings.Contains(flat, "scope") {
		t.Fatalf("flow-scoped payload %q carries a scope line", flat)
	}
	r.Scope = ListenerScope(netaddr.ProtoTCP, 8080)
	payload := EncodeResponse(r)
	if want := flat + "scope: listener 6/8080\n"; string(payload) != want {
		t.Fatalf("payload %q, want %q", payload, want)
	}
	got, err := DecodeResponse(payload, f.SrcIP, f.DstIP)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scope != r.Scope || !reflect.DeepEqual(got.Sections, r.Sections) {
		t.Fatalf("decoded %+v scope %v, want %+v scope %v", got.Sections, got.Scope, r.Sections, r.Scope)
	}
	if _, ok := got.Latest("scope"); ok {
		t.Error("the scope line decoded as a pair")
	}

	// A legacy decoder reads the line as one more pair: the answer is then
	// flow-scoped to it, with an unsolicited key (§3.2).
	legacy, err := DecodeResponse([]byte(strings.Replace(string(payload), "scope:", "x-scope:", 1)), f.SrcIP, f.DstIP)
	if err != nil || legacy.Scope.Listener() {
		t.Fatalf("legacy reading: %+v, %v", legacy, err)
	}

	// Only the last pair, and only a listener value, is a scope.
	for _, p := range []string{
		"6 40000 8080\nscope: listener 6/8080\nuserID: www\n",
		"6 40000 8080\nuserID: www\nscope: listener 0/8080\n",
		"6 40000 8080\nuserID: www\nscope: listener 6/99999\n",
		"6 40000 8080\nuserID: www\nscope: flow\n",
	} {
		got, err := DecodeResponse([]byte(p), f.SrcIP, f.DstIP)
		if err != nil || got.Scope.Listener() {
			t.Errorf("%q: scope %v (%v), want flow", p, got.Scope, err)
		}
		if _, ok := got.Latest("scope"); !ok {
			t.Errorf("%q: the line that is no scope is no pair either", p)
		}
	}
}

// TestScopeUpdateIsResyncToLegacy: a scope update round-trips, is neither
// flow-scoped nor a resync, and a decoder that skips its scope line — as
// every decoder skips a line it does not know — reads a resync.
func TestScopeUpdateIsResyncToLegacy(t *testing.T) {
	u := Update{Scope: ListenerScope(netaddr.ProtoTCP, 80), Serial: 7}
	payload := EncodeUpdate(u)
	got, err := DecodeUpdate(payload, 0, 0)
	if err != nil || got != u {
		t.Fatalf("round trip %+v (%v), want %+v", got, err, u)
	}
	if got.Resync() || got.FlowScoped() {
		t.Errorf("scope update reads as resync=%v flow=%v", got.Resync(), got.FlowScoped())
	}
	legacy, err := DecodeUpdate([]byte(strings.Replace(string(payload), "scope:", "x-future:", 1)), 0, 0)
	if err != nil || !legacy.Resync() {
		t.Fatalf("legacy reading %+v (%v) is not a resync", legacy, err)
	}
	garbled, err := DecodeUpdate([]byte(strings.Replace(string(payload), "6/80", "six/80", 1)), 0, 0)
	if err != nil || !garbled.Resync() {
		t.Fatalf("unreadable scope %+v (%v) is not a resync", garbled, err)
	}
}
