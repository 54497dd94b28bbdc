package openflow

import (
	"bytes"
	"math/bits"
	"net"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/link"
	"identxx/internal/netaddr"
)

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	m := Msg{Type: MsgEchoRequest, Xid: 42, Body: []byte("ping")}
	if err := WriteMsg(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.Xid != m.Xid || !bytes.Equal(got.Body, m.Body) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestReadMsgRejects(t *testing.T) {
	// Wrong version.
	bad := []byte{0x99, 0, 0, 8, 0, 0, 0, 0}
	if _, err := ReadMsg(bytes.NewReader(bad)); err == nil {
		t.Error("wrong version accepted")
	}
	// Length smaller than header.
	bad2 := []byte{ProtoVersion, 0, 0, 4, 0, 0, 0, 0}
	if _, err := ReadMsg(bytes.NewReader(bad2)); err == nil {
		t.Error("short length accepted")
	}
	// Oversized.
	bad3 := []byte{ProtoVersion, 0, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := ReadMsg(bytes.NewReader(bad3)); err == nil {
		t.Error("oversize accepted")
	}
}

func TestMatchCodecRoundTrip(t *testing.T) {
	m := flow.Match{
		Wild:    flow.WInPort | flow.WMACSrc,
		SrcBits: 24, DstBits: 32,
		Tuple: flow.Ten{
			InPort: 3, MACSrc: 0xabcdef, MACDst: 0x123456,
			EthType: flow.EthTypeIPv4, VLAN: 12,
			SrcIP:   netaddr.MustParseIP("192.168.1.0"),
			DstIP:   netaddr.MustParseIP("10.0.0.9"),
			Proto:   netaddr.ProtoUDP,
			SrcPort: 111, DstPort: 222,
		},
	}
	b := make([]byte, matchLen)
	putMatch(b, m)
	got, err := getMatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("match round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestFlowModCodecRoundTrip(t *testing.T) {
	mod := FlowMod{
		Match:         flow.FiveMatch(flow.Five{SrcIP: 1, DstIP: 2, Proto: netaddr.ProtoTCP, SrcPort: 3, DstPort: 4}),
		Priority:      7,
		Actions:       []Action{{Type: ActionOutput, Port: 9}, {Type: ActionController}},
		Cookie:        0xdeadbeef,
		IdleTimeout:   5 * time.Second,
		HardTimeout:   time.Minute,
		BufferID:      17,
		NotifyRemoved: true,
	}
	got, err := DecodeFlowMod(EncodeFlowMod(mod, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Match != mod.Match || got.Priority != mod.Priority || got.Cookie != mod.Cookie ||
		got.IdleTimeout != mod.IdleTimeout || got.HardTimeout != mod.HardTimeout ||
		got.BufferID != mod.BufferID || got.NotifyRemoved != mod.NotifyRemoved || got.Delete != mod.Delete {
		t.Errorf("flow-mod round trip:\n got %+v\nwant %+v", got, mod)
	}
	if len(got.Actions) != 2 || got.Actions[0] != mod.Actions[0] || got.Actions[1] != mod.Actions[1] {
		t.Errorf("actions = %+v", got.Actions)
	}
}

// TestAppendBurstGrowsByDoubling: a burst of flow-mods appended one by one
// to a writer's buffer reallocates it O(log n) times, never past link.Retain
// while the burst fits there, and a buffer with the room reallocates it
// never. Each message must come out intact on a reused,
// dirty buffer too.
func TestAppendBurstGrowsByDoubling(t *testing.T) {
	mod := FlowMod{
		Match:    flow.FiveMatch(flow.Five{SrcIP: 1, DstIP: 2, Proto: netaddr.ProtoTCP, SrcPort: 3, DstPort: 4}),
		Actions:  []Action{{Type: ActionOutput, Port: 9}},
		Cookie:   0xdeadbeef,
		BufferID: BufferNone,
	}
	burst := 64 << 10
	var b []byte
	fill := func() {
		for b = b[:0]; len(b) < burst; {
			var err error
			if b, err = AppendFlowMod(b, mod, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	msgLen := len(EncodeFlowMod(mod, 1).Body) + msgHeaderLen
	limit := 3 + bits.Len(uint(burst/msgLen)) // the first message's two, one per doubling, one at link.Retain
	if got := testing.AllocsPerRun(1, func() { b = nil; fill() }); got > float64(limit) {
		t.Errorf("appending %d KB of flow-mods to an empty buffer allocates %.0f times, want at most %d", burst>>10, got, limit)
	}
	// A burst a link.Writer keeps its buffer for must not grow one past
	// link.Retain, which it would drop after the Write.
	for burst = 40 << 10; burst <= link.Retain-msgLen; burst += 4 << 10 {
		b = nil
		fill()
		if cap(b) > link.Retain {
			t.Errorf("a %d-byte burst grew an empty buffer to %d bytes, past the %d a writer keeps", len(b), cap(b), link.Retain)
		}
	}
	burst = 64 << 10
	b = nil
	fill()
	for i := range b {
		b[i] = 0xff
	}
	if got := testing.AllocsPerRun(1, fill); got != 0 {
		t.Errorf("appending the burst again to the same buffer allocates %.0f times, want 0", got)
	}
	for off := 0; off < len(b); off += msgLen {
		m, err := ReadMsg(bytes.NewReader(b[off : off+msgLen]))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeFlowMod(m); err != nil || got.Match != mod.Match || got.Cookie != mod.Cookie || got.Priority != 0 || got.IdleTimeout != 0 {
			t.Fatalf("message at %d: %+v, %v", off, got, err)
		}
	}
}

func TestFlowModDeleteRoundTrip(t *testing.T) {
	mod := FlowMod{Match: flow.MatchAll(), Delete: true, Cookie: 5, CookieMask: 0xffff << 48, BufferID: BufferNone}
	got, err := DecodeFlowMod(EncodeFlowMod(mod, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Delete || got.Cookie != 5 || got.CookieMask != mod.CookieMask {
		t.Errorf("delete round trip: %+v", got)
	}
}

func TestPacketInCodecRoundTrip(t *testing.T) {
	ev := PacketIn{
		SwitchID: 77, BufferID: 5, InPort: 3, Reason: ReasonAction,
		Frame: []byte{1, 2, 3, 4, 5},
	}
	got, err := DecodePacketIn(EncodePacketIn(ev, 9))
	if err != nil {
		t.Fatal(err)
	}
	if got.SwitchID != 77 || got.BufferID != 5 || got.InPort != 3 || got.Reason != ReasonAction ||
		!bytes.Equal(got.Frame, ev.Frame) {
		t.Errorf("packet-in round trip: %+v", got)
	}
}

func TestPacketOutCodecRoundTrip(t *testing.T) {
	po := PacketOutMsg{BufferID: BufferNone, Port: 4, Frame: []byte("frame")}
	got, err := DecodePacketOut(EncodePacketOut(po, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got.BufferID != po.BufferID || got.Port != po.Port || !bytes.Equal(got.Frame, po.Frame) {
		t.Errorf("packet-out round trip: %+v", got)
	}
}

func TestFlowRemovedCodecRoundTrip(t *testing.T) {
	ev := FlowRemoved{
		SwitchID: 3,
		Match:    flow.FiveMatch(flow.Five{SrcIP: 9, DstIP: 8, Proto: netaddr.ProtoTCP, SrcPort: 7, DstPort: 6}),
		Cookie:   11, Reason: RemovedIdleTimeout, Packets: 100, Bytes: 6400,
	}
	got, err := DecodeFlowRemoved(EncodeFlowRemoved(ev, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got != ev {
		t.Errorf("flow-removed round trip:\n got %+v\nwant %+v", got, ev)
	}
}

// chanHandler is a ChannelController that hands what the server delivers
// to the test over channels.
type chanHandler struct {
	connected chan *RemoteSwitch
	packetIns chan PacketIn
	removed   chan FlowRemoved
}

func newChanHandler() *chanHandler {
	return &chanHandler{
		connected: make(chan *RemoteSwitch, 4),
		packetIns: make(chan PacketIn, 16),
		removed:   make(chan FlowRemoved, 16),
	}
}

func (h *chanHandler) AddDatapath(dp Datapath)          { h.connected <- dp.(*RemoteSwitch) }
func (h *chanHandler) RemoveDatapath(Datapath) bool     { return true }
func (h *chanHandler) HandleEvent(ev PacketIn)          { h.packetIns <- ev }
func (h *chanHandler) HandleFlowRemoved(ev FlowRemoved) { h.removed <- ev }

func TestSecureChannelEndToEnd(t *testing.T) {
	h := newChanHandler()
	server := NewChannelServer(h)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	rec := &recorder{}
	sw := NewSwitch(99, "s99", 0)
	sw.AddPort(1)
	sw.AddPort(2)
	sw.SetTransmitter(rec)
	agent, err := Connect(sw, addr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	var remote *RemoteSwitch
	select {
	case remote = <-h.connected:
	case <-time.After(2 * time.Second):
		t.Fatal("switch never connected")
	}
	if remote.DatapathID() != 99 {
		t.Fatalf("datapath id = %d", remote.DatapathID())
	}

	// Table miss at the switch surfaces as a remote PacketIn.
	sw.Receive(1, testFrame(80))
	var ev PacketIn
	select {
	case ev = <-h.packetIns:
	case <-time.After(2 * time.Second):
		t.Fatal("no packet-in over channel")
	}
	if ev.SwitchID != 99 || ev.InPort != 1 {
		t.Errorf("event = %+v", ev)
	}

	// Remote FlowMod programs the switch and releases the buffer.
	err = remote.Apply(FlowMod{
		Match:    flow.FiveMatch(flow.Five{SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: 1234, DstPort: 80}),
		Priority: 1,
		Actions:  Output(2),
		BufferID: ev.BufferID,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for rec.txCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rec.txCount() != 1 {
		t.Fatal("remote flow-mod did not forward the buffered frame")
	}

	// A packet-out carrying a frame: the agent transmits it.
	remote.packetOut(PacketOutMsg{BufferID: BufferNone, Port: 2, Frame: testFrame(81)})
	deadline = time.Now().Add(2 * time.Second)
	for rec.txCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if rec.txCount() != 2 {
		t.Fatal("remote packet-out not transmitted")
	}
}

// A switch's punt reaches the controller over the secure channel with the
// tuple an in-process punt of the same frame carries: the wire carries only
// the frame, and the server decodes the tuple from it.
func TestChannelPuntCarriesTuple(t *testing.T) {
	h := newChanHandler()
	server := NewChannelServer(h)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	sw := NewSwitch(3, "s3", 0)
	agent, err := Connect(sw, addr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	select {
	case <-h.connected:
	case <-time.After(2 * time.Second):
		t.Fatal("switch never connected")
	}

	sw.Receive(2, testFrame(443))
	var ev PacketIn
	select {
	case ev = <-h.packetIns:
	case <-time.After(2 * time.Second):
		t.Fatal("no packet-in over channel")
	}
	five := flow.Five{SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: 1234, DstPort: 443}
	if ev.Tuple.Five() != five || ev.Tuple.InPort != 2 {
		t.Errorf("tuple over the channel = %v, want %v on port 2", ev.Tuple, five)
	}
	rec := &recorder{}
	newTestSwitch(rec).Receive(2, testFrame(443))
	if len(rec.packetIns) != 1 || rec.packetIns[0].Tuple != ev.Tuple {
		t.Errorf("in-process punt %+v, want the channel's tuple %v", rec.packetIns, ev.Tuple)
	}
}

func TestChannelServerRejectsNonHello(t *testing.T) {
	h := newChanHandler()
	server := NewChannelServer(h)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	WriteMsg(conn, Msg{Type: MsgEchoRequest})
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := ReadMsg(conn); err == nil {
		t.Error("server should hang up on a non-hello first message")
	}
	select {
	case <-h.connected:
		t.Error("non-hello connection reported as a switch")
	default:
	}
}
