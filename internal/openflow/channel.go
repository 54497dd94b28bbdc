package openflow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"identxx/internal/link"
)

// Datapath abstracts "a switch the controller can program": the in-process
// *Switch and the TCP-attached RemoteSwitch both implement it, so the
// ident++ controller core is transport-agnostic.
type Datapath interface {
	DatapathID() uint64
	Apply(FlowMod) error
	PacketOut(port uint16, frame []byte)
	ReleaseBuffer(bufID uint32)
}

// DatapathID implements Datapath.
func (s *Switch) DatapathID() uint64 { return s.ID }

var _ Datapath = (*Switch)(nil)

// channelReadBuf is the read buffer of one end of a secure channel: a burst
// of a few hundred minimum-size packet-ins, or ten full Ethernet frames, per
// read. Not larger, because one is held per switch for as long as it is
// connected (docs/architecture.md, "Wire I/O").
const channelReadBuf = 16 << 10

// channelTimeout bounds the hello exchange and every write of either end: a
// peer that stops reading is cut off within it, which fails the senders
// blocked behind it at link.Bound. (A variable for a test to shorten.)
var channelTimeout = 5 * time.Second

var errChannelClosed = errors.New("openflow: channel closed")

// channel is the sending half of either end of a secure channel. Senders
// append whole messages to the coalescing writer's buffer under mu; its
// goroutine is the only writer of the socket, so messages from any number
// of goroutines reach the wire whole, in the order of their xids, one Write
// per burst. A Write that fails, or has not finished within channelTimeout,
// closes the connection, which the reading side of the same end sees as the
// end of the channel.
type channel struct {
	conn net.Conn
	mu   sync.Mutex
	out  *link.Writer
	xid  uint32
}

func newChannel(conn net.Conn) *channel {
	c := &channel{conn: conn}
	c.out = link.NewWriter(&c.mu, link.Deadlined(conn, channelTimeout), func(error) { conn.Close() })
	return c
}

// send appends the message enc encodes, under the next xid, to the pending
// buffer. It blocks only while link.Bound bytes are pending — the peer has
// stopped reading — and fails once the channel is closed.
func (c *channel) send(enc func(b []byte, xid uint32) ([]byte, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.out.Reserve(); err != nil {
		return err
	}
	c.xid++
	b, err := enc(c.out.Buf, c.xid)
	if err != nil {
		return err
	}
	c.out.Buf = b
	c.out.Flush()
	return nil
}

func (c *channel) echoReply(req Msg) {
	c.send(func(b []byte, _ uint32) ([]byte, error) {
		return AppendMsg(b, Msg{Type: MsgEchoReply, Xid: req.Xid, Body: req.Body})
	})
}

// close ends the channel at once. Messages queued but not yet written are
// dropped with it: a sender that needs its last message delivered waits for
// the peer's reaction to it before closing.
func (c *channel) close() {
	c.mu.Lock()
	c.out.Close(errChannelClosed)
	c.mu.Unlock()
	c.conn.Close()
}

// Agent runs on the switch side of a TCP secure channel: it registers as
// the switch's Controller, relays PacketIn/FlowRemoved to the remote
// controller, and applies FlowMod/PacketOut messages it receives.
type Agent struct {
	sw *Switch
	ch *channel
}

// Connect dials the controller, performs the hello exchange (hello bodies
// carry the datapath id), and starts relaying. The agent installs itself as
// the switch's controller.
func Connect(sw *Switch, addr string, timeout time.Duration) (*Agent, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	var hello [8]byte
	binary.BigEndian.PutUint64(hello[:], sw.ID)
	if err := WriteMsg(conn, Msg{Type: MsgHello, Body: hello[:]}); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	br := bufio.NewReaderSize(conn, channelReadBuf)
	m, err := ReadMsg(br)
	if err != nil || m.Type != MsgHello {
		conn.Close()
		return nil, fmt.Errorf("openflow: hello exchange failed: %v", err)
	}
	conn.SetReadDeadline(time.Time{})
	a := &Agent{sw: sw, ch: newChannel(conn)}
	sw.SetController(a)
	go a.readLoop(br)
	return a, nil
}

// HandlePacketIn implements Controller by relaying the event.
func (a *Agent) HandlePacketIn(_ *Switch, ev PacketIn) {
	a.ch.send(func(b []byte, xid uint32) ([]byte, error) { return AppendPacketIn(b, ev, xid) })
}

// HandleFlowRemoved implements Controller by relaying the event.
func (a *Agent) HandleFlowRemoved(_ *Switch, ev FlowRemoved) {
	a.ch.send(func(b []byte, xid uint32) ([]byte, error) { return AppendFlowRemoved(b, ev, xid) })
}

func (a *Agent) readLoop(br *bufio.Reader) {
	defer a.Close()
	for {
		m, err := ReadMsg(br)
		if err != nil {
			return
		}
		switch m.Type {
		case MsgFlowMod:
			mod, err := DecodeFlowMod(m)
			if err == nil {
				a.sw.Apply(mod)
			}
		case MsgPacketOut:
			po, err := DecodePacketOut(m)
			if err == nil {
				if po.BufferID != BufferNone && len(po.Frame) == 0 {
					a.sw.ReleaseBuffer(po.BufferID)
				} else {
					a.sw.PacketOut(po.Port, po.Frame)
				}
			}
		case MsgEchoRequest:
			a.ch.echoReply(m)
		}
	}
}

// Close tears the channel down.
func (a *Agent) Close() { a.ch.close() }

// RemoteSwitch is the controller-side handle for a TCP-attached switch.
// Apply and PacketOut return once the message is queued behind the ones
// before it; a message that then cannot be written closes the channel, and
// every later call fails.
type RemoteSwitch struct {
	id uint64
	ch *channel
}

// DatapathID implements Datapath.
func (r *RemoteSwitch) DatapathID() uint64 { return r.id }

// Apply implements Datapath by sending a FlowMod message.
func (r *RemoteSwitch) Apply(mod FlowMod) error {
	return r.ch.send(func(b []byte, xid uint32) ([]byte, error) { return AppendFlowMod(b, mod, xid) })
}

// PacketOut implements Datapath.
func (r *RemoteSwitch) PacketOut(port uint16, frame []byte) {
	r.packetOut(PacketOutMsg{BufferID: BufferNone, Port: port, Frame: frame})
}

// ReleaseBuffer implements Datapath: a PacketOut naming the buffer with no
// frame and no output releases (drops) it.
func (r *RemoteSwitch) ReleaseBuffer(bufID uint32) {
	r.packetOut(PacketOutMsg{BufferID: bufID})
}

func (r *RemoteSwitch) packetOut(po PacketOutMsg) {
	r.ch.send(func(b []byte, xid uint32) ([]byte, error) { return AppendPacketOut(b, po, xid) })
}

// Close tears the channel down.
func (r *RemoteSwitch) Close() { r.ch.close() }

// ChannelHandler receives events from TCP-attached switches. Calls for one
// switch come from its channel's reader, one at a time; a PacketIn's frame
// is the reader's buffer, overwritten by the next message, so a handler
// that keeps it past its return keeps a copy.
type ChannelHandler interface {
	SwitchConnected(sw *RemoteSwitch)
	PacketIn(sw *RemoteSwitch, ev PacketIn)
	FlowRemoved(sw *RemoteSwitch, ev FlowRemoved)
	SwitchDisconnected(sw *RemoteSwitch)
}

// ChannelServer accepts switch secure-channel connections for a controller.
type ChannelServer struct {
	Handler ChannelHandler

	lis link.Listener
}

// NewChannelServer creates a server delivering events to handler.
func NewChannelServer(h ChannelHandler) *ChannelServer {
	return &ChannelServer{Handler: h}
}

// Listen binds addr and serves in the background, returning the bound
// address.
func (s *ChannelServer) Listen(addr string) (net.Addr, error) {
	return s.lis.Listen(addr, s.serveConn)
}

// Serve accepts switch connections from l in the background until Close,
// which also closes l (as Serve does itself after Close).
func (s *ChannelServer) Serve(l net.Listener) { s.lis.Serve(l, s.serveConn) }

func (s *ChannelServer) serveConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(channelTimeout))
	br := bufio.NewReaderSize(conn, channelReadBuf)
	// Every message is read into one buffer, reused for the next: a handler
	// copies what it keeps of a packet-in's frame (ChannelHandler).
	m, buf, err := ReadMsgInto(br, nil)
	if err != nil || m.Type != MsgHello || len(m.Body) < 8 {
		return
	}
	conn.SetReadDeadline(time.Time{})
	// The hello reply goes out before the coalescing writer exists, so it
	// is on the wire ahead of anything a handler sends.
	if err := WriteMsg(conn, Msg{Type: MsgHello}); err != nil {
		return
	}
	rs := &RemoteSwitch{id: binary.BigEndian.Uint64(m.Body[:8]), ch: newChannel(conn)}
	defer rs.Close()
	s.Handler.SwitchConnected(rs)
	defer s.Handler.SwitchDisconnected(rs)
	for {
		m, buf, err = ReadMsgInto(br, buf)
		if err != nil {
			return
		}
		switch m.Type {
		case MsgPacketIn:
			if ev, err := DecodePacketIn(m); err == nil {
				s.Handler.PacketIn(rs, ev)
			}
		case MsgFlowRemoved:
			if ev, err := DecodeFlowRemoved(m); err == nil {
				s.Handler.FlowRemoved(rs, ev)
			}
		case MsgEchoRequest:
			rs.ch.echoReply(m)
		}
	}
}

// Close stops the server: the listener and every switch's channel are
// closed, and each handler's SwitchDisconnected has run when it returns.
func (s *ChannelServer) Close() { s.lis.Close() }
