package openflow

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// dialSwitch attaches to the server as a bare TCP peer that has done the
// hello exchange, and returns the controller's handle for it.
func dialSwitch(t *testing.T, h *chanHandler, addr string, id uint64) (net.Conn, *RemoteSwitch) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], id)
	if err := WriteMsg(conn, Msg{Type: MsgHello, Body: hello[:]}); err != nil {
		t.Fatal(err)
	}
	if m, err := ReadMsg(conn); err != nil || m.Type != MsgHello {
		t.Fatalf("hello reply: %+v, %v", m, err)
	}
	select {
	case rs := <-h.connected:
		return conn, rs
	case <-time.After(2 * time.Second):
		t.Fatal("switch never connected")
		return nil, nil
	}
}

// Echo replies and flow-mods share one socket. The reply used to be written
// from the reader goroutine outside the channel's lock, in two writes, while
// decision goroutines wrote flow-mods the same way: the streams could
// interleave mid-frame. Every frame the peer reads must decode.
func TestEchoStormConcurrentWithApply(t *testing.T) {
	const appliers, mods, echoes = 8, 400, 400
	h := newChanHandler()
	server := NewChannelServer(h)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	conn, rs := dialSwitch(t, h, addr.String(), 7)
	defer conn.Close()

	go func() {
		for i := uint32(0); i < echoes; i++ {
			body := bytes.Repeat([]byte{byte(i)}, 1+int(i%200))
			if WriteMsg(conn, Msg{Type: MsgEchoRequest, Xid: i, Body: body}) != nil {
				return
			}
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait() // appliers report through t: they end before the test does
	for g := 0; g < appliers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < mods; i++ {
				five := flow.Five{SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(g), DstPort: netaddr.Port(i)}
				if err := rs.Apply(FlowMod{Match: flow.FiveMatch(five), Cookie: uint64(g)<<32 | uint64(i), Actions: Output(uint16(g))}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(g)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	next := make([]int, appliers) // per goroutine, flow-mods arrive in order
	var lastXid uint32
	for gotMods, gotEchoes := 0, 0; gotMods < appliers*mods || gotEchoes < echoes; {
		m, err := ReadMsg(br)
		if err != nil {
			t.Fatalf("after %d flow-mods and %d echo replies: %v", gotMods, gotEchoes, err)
		}
		switch m.Type {
		case MsgFlowMod:
			mod, err := DecodeFlowMod(m)
			if err != nil {
				t.Fatalf("flow-mod %d does not decode: %v", gotMods, err)
			}
			g, i := int(mod.Cookie>>32), int(uint32(mod.Cookie))
			if g >= appliers || i != next[g] || len(mod.Actions) != 1 || mod.Actions[0].Port != uint16(g) {
				t.Fatalf("flow-mod %d of goroutine %d arrived where %d was due: %+v", i, g, next[g], mod)
			}
			next[g]++
			if m.Xid <= lastXid {
				t.Fatalf("xid %d after %d: wire order is not xid order", m.Xid, lastXid)
			}
			lastXid = m.Xid
			gotMods++
		case MsgEchoReply:
			if int(m.Xid) != gotEchoes || !bytes.Equal(m.Body, bytes.Repeat([]byte{byte(m.Xid)}, 1+int(m.Xid%200))) {
				t.Fatalf("echo reply %d (xid %d) is not what was asked", gotEchoes, m.Xid)
			}
			gotEchoes++
		default:
			t.Fatalf("unexpected message type %d", m.Type)
		}
	}
}

// A peer that dies closes the channel: the controller's reader ends, the
// handle fails from then on, and nothing blocks.
func TestRemoteSwitchFailsAfterPeerGone(t *testing.T) {
	h := newChanHandler()
	server := NewChannelServer(h)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	conn, rs := dialSwitch(t, h, addr.String(), 7)
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rs.Apply(FlowMod{Match: flow.MatchAll()}) == nil {
		if time.Now().After(deadline) {
			t.Fatal("Apply still succeeds on a channel whose peer is gone")
		}
		time.Sleep(time.Millisecond)
	}
	rs.PacketOut(1, testFrame(80)) // must not block or panic
}

// countingWriter counts Writes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

func TestWriteMsgIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteMsg(&w, Msg{Type: MsgEchoRequest, Xid: 3, Body: []byte("abc")}); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("%d writes for one message", w.writes)
	}
	if err := WriteMsg(&w, Msg{Body: make([]byte, MaxMsgSize)}); err == nil {
		t.Fatal("oversized message written")
	}
}

// The Append encoders and the Encode+WriteMsg pair put the same bytes on
// the wire, and an oversized message leaves the buffer as it was.
func TestAppendMatchesEncode(t *testing.T) {
	five := flow.Five{SrcIP: ipA, DstIP: ipB, Proto: netaddr.ProtoTCP, SrcPort: 1234, DstPort: 80}
	mod := FlowMod{Match: flow.FiveMatch(five), Cookie: 9, Priority: 100, Actions: Output(3), IdleTimeout: time.Minute, BufferID: 4, NotifyRemoved: true}
	in := PacketIn{SwitchID: 1, BufferID: 2, InPort: 3, Reason: ReasonNoMatch, Frame: testFrame(80)}
	out := PacketOutMsg{BufferID: BufferNone, Port: 2, Frame: testFrame(81)}
	rem := FlowRemoved{SwitchID: 1, Match: flow.FiveMatch(five), Cookie: 9, Reason: RemovedIdleTimeout, Packets: 5, Bytes: 6}

	prefix := []byte("earlier")
	cases := []struct {
		name string
		msg  Msg
		app  func([]byte) ([]byte, error)
	}{
		{"flow-mod", EncodeFlowMod(mod, 7), func(b []byte) ([]byte, error) { return AppendFlowMod(b, mod, 7) }},
		{"packet-in", EncodePacketIn(in, 7), func(b []byte) ([]byte, error) { return AppendPacketIn(b, in, 7) }},
		{"packet-out", EncodePacketOut(out, 7), func(b []byte) ([]byte, error) { return AppendPacketOut(b, out, 7) }},
		{"flow-removed", EncodeFlowRemoved(rem, 7), func(b []byte) ([]byte, error) { return AppendFlowRemoved(b, rem, 7) }},
	}
	for _, c := range cases {
		var want bytes.Buffer
		want.Write(prefix)
		if err := WriteMsg(&want, c.msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.app(append([]byte(nil), prefix...))
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: append and encode disagree (%v)\n got %x\nwant %x", c.name, err, got, want.Bytes())
		}
	}
	big := PacketOutMsg{Frame: make([]byte, MaxMsgSize)}
	got, err := AppendPacketOut(append([]byte(nil), prefix...), big, 1)
	if err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("oversized packet-out: err %v, buffer %q", err, got)
	}
}

// However the stream is cut into reads, ReadMsg returns the same messages,
// and so does ReadMsgInto over one buffer passed back in, which it replaces
// only for a body larger than the buffer.
func TestReadMsgOneByteReaderEqualsWholeBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var stream []byte
	var want []Msg
	for i := 0; i < 200; i++ {
		m := Msg{Type: uint8(rng.Intn(12)), Xid: rng.Uint32(), Body: make([]byte, rng.Intn(300))}
		rng.Read(m.Body)
		want = append(want, m)
		stream, _ = AppendMsg(stream, m)
	}
	readers := map[string]func() *bufio.Reader{
		"whole":    func() *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(stream), 1<<20) },
		"one-byte": func() *bufio.Reader { return bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(stream)), 16) },
		"channel":  func() *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(stream), channelReadBuf) },
	}
	for name, mk := range readers {
		br := mk()
		for i, w := range want {
			got, err := ReadMsg(br)
			if err != nil || !reflect.DeepEqual(got, w) {
				t.Fatalf("%s reader, message %d: %+v, %v; want %+v", name, i, got, err, w)
			}
		}
		if _, err := ReadMsg(br); err == nil {
			t.Fatalf("%s reader: message past the end", name)
		}

		br = mk()
		var buf []byte
		for i, w := range want {
			held := cap(buf)
			got, next, err := ReadMsgInto(br, buf)
			if err != nil || got.Type != w.Type || got.Xid != w.Xid || !bytes.Equal(got.Body, w.Body) {
				t.Fatalf("%s reader, ReadMsgInto message %d: %+v, %v; want %+v", name, i, got, err, w)
			}
			if len(w.Body) <= held && cap(next) != held {
				t.Fatalf("%s reader: ReadMsgInto replaced a %d-byte buffer for a %d-byte body", name, held, len(w.Body))
			}
			buf = next
		}
	}
}

// A decoded packet-in owns its frame: the next message read does not
// overwrite it, though neither ReadMsg nor DecodePacketIn copies twice.
func TestDecodedFrameSurvivesNextRead(t *testing.T) {
	var stream []byte
	frames := [][]byte{testFrame(80), testFrame(81)}
	for i, f := range frames {
		stream, _ = AppendPacketIn(stream, PacketIn{SwitchID: 1, BufferID: uint32(i), Frame: f}, uint32(i))
	}
	br := bufio.NewReaderSize(bytes.NewReader(stream), channelReadBuf)
	var evs []PacketIn
	for range frames {
		m, err := ReadMsg(br)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := DecodePacketIn(m)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	for i, ev := range evs {
		if !bytes.Equal(ev.Frame, frames[i]) {
			t.Errorf("packet-in %d lost its frame to a later read", i)
		}
	}
}
