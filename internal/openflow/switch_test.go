package openflow

import (
	"sync"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/packet"
)

var (
	macA = netaddr.MustParseMAC("02:00:00:00:00:0a")
	macB = netaddr.MustParseMAC("02:00:00:00:00:0b")
	ipA  = netaddr.MustParseIP("10.0.0.1")
	ipB  = netaddr.MustParseIP("10.0.0.2")
)

func testFrame(dp netaddr.Port) []byte {
	return packet.TCPFrame(macA, macB, flow.Five{
		SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: 1234, DstPort: dp,
	}, packet.TCPSyn, nil)
}

// recorder collects switch outputs and controller events.
type recorder struct {
	mu sync.Mutex
	tx []struct {
		port  uint16
		frame []byte
	}
	packetIns []PacketIn
	removed   []FlowRemoved
}

func (r *recorder) Transmit(_ *Switch, port uint16, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tx = append(r.tx, struct {
		port  uint16
		frame []byte
	}{port, frame})
}

func (r *recorder) HandleEvent(ev PacketIn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.packetIns = append(r.packetIns, ev)
}

func (r *recorder) HandleFlowRemoved(ev FlowRemoved) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.removed = append(r.removed, ev)
}

func (r *recorder) txCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tx)
}

func newTestSwitch(rec *recorder) *Switch {
	sw := NewSwitch(1, "s1", 0)
	sw.AddPort(1)
	sw.AddPort(2)
	sw.AddPort(3)
	sw.SetController(rec)
	sw.SetTransmitter(rec)
	return sw
}

func TestTableMissRaisesPacketIn(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	sw.Receive(1, testFrame(80))
	if len(rec.packetIns) != 1 {
		t.Fatalf("packet-ins = %d", len(rec.packetIns))
	}
	ev := rec.packetIns[0]
	if ev.InPort != 1 || ev.SwitchID != 1 || ev.Reason != ReasonNoMatch {
		t.Errorf("event = %+v", ev)
	}
	if ev.Tuple.DstPort != 80 {
		t.Errorf("tuple = %v", ev.Tuple)
	}
	if ev.BufferID == BufferNone {
		t.Error("frame should be buffered")
	}
	if sw.Stats.TableMisses.Load() != 1 || sw.Stats.PacketIns.Load() != 1 {
		t.Error("miss counters wrong")
	}
}

func TestFlowModReleasesBufferedFrame(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	sw.Receive(1, testFrame(80))
	ev := rec.packetIns[0]
	// Figure 1 steps 4-5: controller approves, installs the entry naming
	// the buffered packet, which then proceeds out port 2.
	err := sw.Apply(FlowMod{
		Match:    flow.FiveMatch(ev.Tuple.Five()),
		Priority: 10,
		Actions:  Output(2),
		BufferID: ev.BufferID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.txCount() != 1 || rec.tx[0].port != 2 {
		t.Fatalf("buffered frame not forwarded: %+v", rec.tx)
	}
	// Subsequent packets hit the table without controller involvement.
	sw.Receive(1, testFrame(80))
	if len(rec.packetIns) != 1 {
		t.Error("cached flow still punted to controller")
	}
	if rec.txCount() != 2 {
		t.Error("cached flow not forwarded")
	}
}

func TestDenyReleasesBufferWithoutForwarding(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	sw.Receive(1, testFrame(80))
	ev := rec.packetIns[0]
	sw.Apply(FlowMod{Match: flow.FiveMatch(ev.Tuple.Five()), Priority: 10, Actions: Drop})
	sw.ReleaseBuffer(ev.BufferID)
	if rec.txCount() != 0 {
		t.Error("denied packet leaked")
	}
	before := sw.Stats.PacketIns.Load()
	sw.Receive(1, testFrame(80))
	if sw.Stats.PacketIns.Load() != before {
		t.Error("drop entry not cached")
	}
	if rec.txCount() != 0 {
		t.Error("dropped flow forwarded")
	}
}

func TestFloodAction(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	sw.Apply(FlowMod{Match: flow.MatchAll(), Actions: []Action{{Type: ActionFlood}}})
	sw.Receive(1, testFrame(80))
	if rec.txCount() != 2 {
		t.Fatalf("flood tx = %d, want 2 (all ports except ingress)", rec.txCount())
	}
	for _, tx := range rec.tx {
		if tx.port == 1 {
			t.Error("flood echoed out ingress port")
		}
	}
}

func TestMalformedFrameDropped(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	frame := testFrame(80)
	frame[20] ^= 0xff // corrupt IP header
	sw.Receive(1, frame)
	if len(rec.packetIns) != 0 {
		t.Error("malformed frame reached controller")
	}
	if sw.Stats.DecodeErrs.Load() != 1 {
		t.Error("decode error not counted")
	}
}

func TestNoControllerDropsMiss(t *testing.T) {
	rec := &recorder{}
	sw := NewSwitch(1, "s1", 0)
	sw.SetTransmitter(rec)
	sw.Receive(1, testFrame(80))
	if sw.Stats.Drops.Load() != 1 {
		t.Error("miss without controller should drop")
	}
}

// TestIdleTimeoutNotifiesController: an expired entry installed with
// NotifyRemoved raises a FlowRemoved; one installed without it leaves the
// table silently.
func TestIdleTimeoutNotifiesController(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	now := time.Now()
	clock := now
	sw.Clock = func() time.Time { return clock }
	for i, notify := range []bool{true, false} {
		sw.Apply(FlowMod{
			Match:         flow.FiveMatch(flow.Five{SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(1234 + i), DstPort: 80}),
			Actions:       Output(2),
			IdleTimeout:   time.Second,
			NotifyRemoved: notify,
			BufferID:      BufferNone,
			Cookie:        uint64(42 + i),
		})
	}
	clock = now.Add(2 * time.Second)
	sw.Tick()
	if len(rec.removed) != 1 || sw.Table.Len() != 0 {
		t.Fatalf("removed = %d, %d entries left; want the flagged entry's one and none", len(rec.removed), sw.Table.Len())
	}
	if rec.removed[0].Cookie != 42 || rec.removed[0].Reason != RemovedIdleTimeout {
		t.Errorf("removed event = %+v", rec.removed[0])
	}
}

func TestDeleteByCookie(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	f := flow.Five{SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: 1, DstPort: 80}
	sw.Apply(FlowMod{Match: flow.FiveMatch(f), Actions: Output(2), Cookie: 7, BufferID: BufferNone})
	sw.Apply(FlowMod{Match: flow.FiveMatch(f.Reverse()), Actions: Output(1), Cookie: 9, BufferID: BufferNone})
	sw.Apply(FlowMod{Delete: true, Cookie: 7, CookieMask: ^uint64(0), Match: flow.MatchAll(), NotifyRemoved: true, BufferID: BufferNone})
	if sw.Table.Len() != 1 {
		t.Errorf("table len = %d, want 1", sw.Table.Len())
	}
	if len(rec.removed) != 1 || rec.removed[0].Cookie != 7 {
		t.Errorf("removal notification wrong: %+v", rec.removed)
	}
}

// TestDeleteByCookieMask: a delete matches the entries whose cookie agrees
// with its own on the mask's bits — in the five-tuple index and the wildcard
// list alike — and a zero mask matches every cookie.
func TestDeleteByCookieMask(t *testing.T) {
	const tagMask = 0xffff << 48
	const tagA, tagB = 0xa << 48, 0xb << 48
	sw := newTestSwitch(&recorder{})
	install := func(m flow.Match, cookie uint64) {
		t.Helper()
		if err := sw.Apply(FlowMod{Match: m, Actions: Output(2), Cookie: cookie, BufferID: BufferNone}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tag := range []uint64{tagA, tagB} {
		f := flow.Five{SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(1000 + i), DstPort: 80}
		install(flow.FiveMatch(f), tag|1)
		wide := flow.FiveMatch(f)
		wide.Wild |= flow.WSrcPort
		install(wide, tag|2)
	}
	if n := sw.Table.OtherGranularities(); n != 2 || sw.Table.Len() != 4 {
		t.Fatalf("setup: %d wildcard entries of %d, want 2 of 4", n, sw.Table.Len())
	}

	sw.Apply(FlowMod{Delete: true, Match: flow.MatchAll(), Cookie: tagA, CookieMask: tagMask, BufferID: BufferNone})
	left := sw.Table.Entries()
	if len(left) != 2 || sw.Table.OtherGranularities() != 1 {
		t.Fatalf("after the tag-A delete: %d entries, %d wildcard; want tag B's flow and wildcard entries", len(left), sw.Table.OtherGranularities())
	}
	for _, e := range left {
		if e.Cookie&tagMask != tagB {
			t.Errorf("entry %v with cookie %#x survived the tag-A delete", e.Match, e.Cookie)
		}
	}

	sw.Apply(FlowMod{Delete: true, Match: flow.MatchAll(), Cookie: tagA, BufferID: BufferNone})
	if n := sw.Table.Len(); n != 0 {
		t.Errorf("a mask-0 delete left %d entries, want every cookie deleted", n)
	}
}

func TestPacketOut(t *testing.T) {
	rec := &recorder{}
	sw := newTestSwitch(rec)
	frame := testFrame(80)
	sw.PacketOut(3, frame)
	if rec.txCount() != 1 || rec.tx[0].port != 3 {
		t.Fatalf("packet-out tx = %+v", rec.tx)
	}
}

func BenchmarkSwitchCachedForwarding(b *testing.B) {
	rec := &recorder{}
	sw := NewSwitch(1, "s1", 0)
	sw.AddPort(1)
	sw.AddPort(2)
	sw.SetTransmitter(nullTransmitter{})
	sw.SetController(rec)
	frame := testFrame(80)
	var p packet.Packet
	if err := p.DecodeInto(frame); err != nil {
		b.Fatal(err)
	}
	sw.Apply(FlowMod{Match: flow.FiveMatch(p.Five()), Actions: Output(2), BufferID: BufferNone})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sw.Receive(1, frame)
	}
	if sw.Stats.PacketIns.Load() != 0 {
		b.Fatal("unexpected packet-ins")
	}
}

type nullTransmitter struct{}

func (nullTransmitter) Transmit(*Switch, uint16, []byte) {}

// TestFiveIndexRespectsWildcardPriority pins the precedence contract after
// the five-granularity index: a higher-priority wildcard entry still beats
// an indexed flow entry, a lower-priority one does not.
func TestFiveIndexRespectsWildcardPriority(t *testing.T) {
	tb := NewTable(0)
	now := time.Now()
	var ten flow.Ten
	ten.EthType = flow.EthTypeIPv4
	ten.Proto = netaddr.ProtoTCP
	ten.SrcIP = netaddr.MustParseIP("10.0.0.1")
	ten.DstIP = netaddr.MustParseIP("10.0.0.2")
	ten.SrcPort, ten.DstPort = 1234, 80

	flowEntry := &Entry{Match: flow.FiveMatch(ten.Five()), Priority: 100, Actions: Output(1)}
	if err := tb.Insert(flowEntry, now); err != nil {
		t.Fatal(err)
	}
	low := &Entry{Match: flow.MatchAll(), Priority: 1, Actions: Output(2)}
	if err := tb.Insert(low, now); err != nil {
		t.Fatal(err)
	}
	if got := tb.Lookup(ten, 64, now); got != flowEntry {
		t.Fatalf("low-priority wildcard shadowed the flow entry: %+v", got)
	}
	high := &Entry{Match: flow.MatchAll(), Priority: 1 << 15, Actions: Output(3)}
	if err := tb.Insert(high, now); err != nil {
		t.Fatal(err)
	}
	if got := tb.Lookup(ten, 64, now); got != high {
		t.Fatalf("high-priority wildcard did not override the flow entry: %+v", got)
	}
	if got := tb.Peek(ten); got != high {
		t.Fatalf("Peek disagrees with Lookup: %+v", got)
	}
}
