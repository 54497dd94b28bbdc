package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"identxx/internal/flow"
	"identxx/internal/link"
	"identxx/internal/netaddr"
)

// Wire protocol version, in the spirit of OpenFlow 1.0's 0x01.
const ProtoVersion = 0x01

// Message types.
const (
	MsgHello uint8 = iota
	MsgError
	MsgEchoRequest
	MsgEchoReply
	MsgFeaturesRequest
	MsgFeaturesReply
	MsgPacketIn
	MsgPacketOut
	MsgFlowMod
	MsgFlowRemoved
	MsgBarrierRequest
	MsgBarrierReply
)

// MaxMsgSize bounds any single protocol message read.
const MaxMsgSize = 9216 + 64 // jumbo frame + headers

const msgHeaderLen = 8

// Msg is one framed secure-channel message.
type Msg struct {
	Type uint8
	Xid  uint32
	Body []byte
}

// AppendMsg appends m, framed, to b. On error b is returned unchanged.
func AppendMsg(b []byte, m Msg) ([]byte, error) {
	if msgHeaderLen+len(m.Body) > MaxMsgSize {
		return b, fmt.Errorf("openflow: message too large (%d bytes)", len(m.Body))
	}
	b = grow(b, msgHeaderLen+len(m.Body))
	return finishMsg(append(appendHeader(b, m.Type, m.Xid), m.Body...), len(b))
}

// appendHeader appends a message header whose length finishMsg fills in
// once the body has been appended behind it.
func appendHeader(b []byte, typ uint8, xid uint32) []byte {
	b = append(grow(b, msgHeaderLen), ProtoVersion, typ, 0, 0)
	return binary.BigEndian.AppendUint32(b, xid)
}

// finishMsg completes the message that starts at b[start], or removes it
// when it is larger than a peer would read.
func finishMsg(b []byte, start int) ([]byte, error) {
	n := len(b) - start
	if n > MaxMsgSize {
		return b[:start], fmt.Errorf("openflow: message too large (%d bytes)", n-msgHeaderLen)
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(n))
	return b, nil
}

// extend appends n zero bytes to b and returns them as body.
func extend(b []byte, n int) (all, body []byte) {
	all = grow(b, n)[:len(b)+n]
	body = all[len(b):]
	clear(body)
	return all, body
}

// grow returns b with room for n more bytes. A b that must move at least
// doubles its capacity, where append grows a large slice by a quarter: a
// writer's buffer taking a burst message by message is reallocated O(log n)
// times, and leaves that much less garbage behind. The doubling stops at
// link.Retain while the bytes still fit there, so a burst the writer would
// keep its buffer for does not grow one it drops.
func grow(b []byte, n int) []byte {
	need := len(b) + n
	if need <= cap(b) {
		return b
	}
	c := max(2*cap(b), need)
	if need <= link.Retain {
		c = min(c, link.Retain)
	}
	nb := make([]byte, len(b), c)
	copy(nb, b)
	return nb
}

// WriteMsg writes a framed message with one Write.
func WriteMsg(w io.Writer, m Msg) error {
	b, err := AppendMsg(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadMsg reads one framed message, bounding the allocation. The body is
// the message's own.
func ReadMsg(r io.Reader) (Msg, error) {
	m, _, err := ReadMsgInto(r, nil)
	return m, err
}

// ReadMsgInto is ReadMsg with the body read into buf, grown when it is too
// small, instead of into an allocation of its own: the body aliases the
// returned buffer and is valid until the buffer's next use. A loop that
// handles each message before it reads the next (copying what it keeps)
// passes the buffer back in and allocates nothing per message (the header
// too is read into it: an array of its own would escape through r).
func ReadMsgInto(r io.Reader, buf []byte) (Msg, []byte, error) {
	if cap(buf) < msgHeaderLen {
		buf = make([]byte, msgHeaderLen)
	}
	hdr := buf[:msgHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Msg{}, buf, err
	}
	if hdr[0] != ProtoVersion {
		return Msg{}, buf, fmt.Errorf("openflow: unsupported version %#02x", hdr[0])
	}
	length := int(binary.BigEndian.Uint16(hdr[2:4]))
	if length < msgHeaderLen || length > MaxMsgSize {
		return Msg{}, buf, fmt.Errorf("openflow: bad message length %d", length)
	}
	m := Msg{Type: hdr[1], Xid: binary.BigEndian.Uint32(hdr[4:8])}
	n := length - msgHeaderLen
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	m.Body = buf[:n]
	if _, err := io.ReadFull(r, m.Body); err != nil {
		return Msg{}, buf, err
	}
	return m, buf, nil
}

// Match wire encoding: 4 wildcards + 2 inport + 6+6 MACs + 2 ethtype +
// 2 vlan + 4+4 IPs + 1 proto + 1 srcbits + 1 dstbits + 1 pad + 2+2 ports.
const matchLen = 38

func putMatch(b []byte, m flow.Match) {
	binary.BigEndian.PutUint32(b[0:4], uint32(m.Wild))
	binary.BigEndian.PutUint16(b[4:6], m.Tuple.InPort)
	src := m.Tuple.MACSrc.Bytes()
	dst := m.Tuple.MACDst.Bytes()
	copy(b[6:12], src[:])
	copy(b[12:18], dst[:])
	binary.BigEndian.PutUint16(b[18:20], m.Tuple.EthType)
	binary.BigEndian.PutUint16(b[20:22], m.Tuple.VLAN)
	binary.BigEndian.PutUint32(b[22:26], uint32(m.Tuple.SrcIP))
	binary.BigEndian.PutUint32(b[26:30], uint32(m.Tuple.DstIP))
	b[30] = byte(m.Tuple.Proto)
	b[31] = byte(m.SrcBits)
	b[32] = byte(m.DstBits)
	b[33] = 0
	binary.BigEndian.PutUint16(b[34:36], uint16(m.Tuple.SrcPort))
	binary.BigEndian.PutUint16(b[36:38], uint16(m.Tuple.DstPort))
}

func getMatch(b []byte) (flow.Match, error) {
	if len(b) < matchLen {
		return flow.Match{}, errors.New("openflow: truncated match")
	}
	var m flow.Match
	m.Wild = flow.Wildcard(binary.BigEndian.Uint32(b[0:4]))
	m.Tuple.InPort = binary.BigEndian.Uint16(b[4:6])
	m.Tuple.MACSrc = netaddr.MACFromBytes(b[6:12])
	m.Tuple.MACDst = netaddr.MACFromBytes(b[12:18])
	m.Tuple.EthType = binary.BigEndian.Uint16(b[18:20])
	m.Tuple.VLAN = binary.BigEndian.Uint16(b[20:22])
	m.Tuple.SrcIP = netaddr.IP(binary.BigEndian.Uint32(b[22:26]))
	m.Tuple.DstIP = netaddr.IP(binary.BigEndian.Uint32(b[26:30]))
	m.Tuple.Proto = netaddr.Proto(b[30])
	m.SrcBits = int(b[31])
	m.DstBits = int(b[32])
	m.Tuple.SrcPort = netaddr.Port(binary.BigEndian.Uint16(b[34:36]))
	m.Tuple.DstPort = netaddr.Port(binary.BigEndian.Uint16(b[36:38]))
	return m, nil
}

// Action wire encoding: type(2) + port(2).
const actionLen = 4

func putActions(b []byte, actions []Action) {
	for i, a := range actions {
		off := i * actionLen
		binary.BigEndian.PutUint16(b[off:off+2], uint16(a.Type))
		binary.BigEndian.PutUint16(b[off+2:off+4], a.Port)
	}
}

func getActions(b []byte) ([]Action, error) {
	if len(b)%actionLen != 0 {
		return nil, errors.New("openflow: ragged action list")
	}
	n := len(b) / actionLen
	if n == 0 {
		return nil, nil
	}
	out := make([]Action, n)
	for i := range out {
		off := i * actionLen
		t := ActionType(binary.BigEndian.Uint16(b[off : off+2]))
		if t < ActionOutput || t > ActionDrop {
			return nil, fmt.Errorf("openflow: unknown action type %d", t)
		}
		out[i] = Action{Type: t, Port: binary.BigEndian.Uint16(b[off+2 : off+4])}
	}
	return out, nil
}

// EncodePacketIn serializes a PacketIn event.
func EncodePacketIn(ev PacketIn, xid uint32) Msg {
	return Msg{Type: MsgPacketIn, Xid: xid, Body: appendPacketInBody(nil, ev)}
}

// AppendPacketIn appends ev as one framed message to b.
func AppendPacketIn(b []byte, ev PacketIn, xid uint32) ([]byte, error) {
	return finishMsg(appendPacketInBody(appendHeader(b, MsgPacketIn, xid), ev), len(b))
}

func appendPacketInBody(b []byte, ev PacketIn) []byte {
	b, body := extend(b, 8+4+2+1+1+len(ev.Frame))
	binary.BigEndian.PutUint64(body[0:8], ev.SwitchID)
	binary.BigEndian.PutUint32(body[8:12], ev.BufferID)
	binary.BigEndian.PutUint16(body[12:14], ev.InPort)
	body[14] = byte(ev.Reason)
	copy(body[16:], ev.Frame)
	return b
}

// DecodePacketIn parses a PacketIn body. Only transport fields and the
// frame travel, so Tuple is left zero: the ChannelServer decodes it from
// the frame before the controller sees the event. Frame aliases
// m.Body, so it lives as long as the body does: the message's own after
// ReadMsg, until the buffer's next use after ReadMsgInto — a controller that
// keeps the frame past its return copies it.
func DecodePacketIn(m Msg) (PacketIn, error) {
	if m.Type != MsgPacketIn || len(m.Body) < 16 {
		return PacketIn{}, errors.New("openflow: bad packet-in")
	}
	return PacketIn{
		SwitchID: binary.BigEndian.Uint64(m.Body[0:8]),
		BufferID: binary.BigEndian.Uint32(m.Body[8:12]),
		InPort:   binary.BigEndian.Uint16(m.Body[12:14]),
		Reason:   PacketInReason(m.Body[14]),
		Frame:    m.Body[16:],
	}, nil
}

// EncodeFlowMod serializes a FlowMod.
func EncodeFlowMod(mod FlowMod, xid uint32) Msg {
	return Msg{Type: MsgFlowMod, Xid: xid, Body: appendFlowModBody(nil, mod)}
}

// AppendFlowMod appends mod as one framed message to b.
func AppendFlowMod(b []byte, mod FlowMod, xid uint32) ([]byte, error) {
	return finishMsg(appendFlowModBody(appendHeader(b, MsgFlowMod, xid), mod), len(b))
}

func appendFlowModBody(b []byte, mod FlowMod) []byte {
	b, body := extend(b, matchLen+8+8+2+2+4+4+4+1+1+2+len(mod.Actions)*actionLen)
	putMatch(body[0:], mod.Match)
	off := matchLen
	binary.BigEndian.PutUint64(body[off:], mod.Cookie)
	off += 8
	binary.BigEndian.PutUint64(body[off:], mod.CookieMask)
	off += 8
	binary.BigEndian.PutUint16(body[off:], uint16(mod.Priority))
	off += 2
	var fl uint16
	if mod.Delete {
		fl |= 1
	}
	if mod.NotifyRemoved {
		fl |= 2
	}
	binary.BigEndian.PutUint16(body[off:], fl)
	off += 2
	binary.BigEndian.PutUint32(body[off:], uint32(mod.IdleTimeout/time.Millisecond))
	off += 4
	binary.BigEndian.PutUint32(body[off:], uint32(mod.HardTimeout/time.Millisecond))
	off += 4
	binary.BigEndian.PutUint32(body[off:], mod.BufferID)
	off += 4
	off += 2 // pad
	binary.BigEndian.PutUint16(body[off:], uint16(len(mod.Actions)))
	off += 2
	putActions(body[off:], mod.Actions)
	return b
}

// DecodeFlowMod parses a FlowMod body.
func DecodeFlowMod(m Msg) (FlowMod, error) {
	if m.Type != MsgFlowMod || len(m.Body) < matchLen+8+8+2+2+4+4+4+4 {
		return FlowMod{}, errors.New("openflow: bad flow-mod")
	}
	match, err := getMatch(m.Body)
	if err != nil {
		return FlowMod{}, err
	}
	off := matchLen
	mod := FlowMod{Match: match}
	mod.Cookie = binary.BigEndian.Uint64(m.Body[off:])
	off += 8
	mod.CookieMask = binary.BigEndian.Uint64(m.Body[off:])
	off += 8
	mod.Priority = int(binary.BigEndian.Uint16(m.Body[off:]))
	off += 2
	fl := binary.BigEndian.Uint16(m.Body[off:])
	off += 2
	mod.Delete = fl&1 != 0
	mod.NotifyRemoved = fl&2 != 0
	mod.IdleTimeout = time.Duration(binary.BigEndian.Uint32(m.Body[off:])) * time.Millisecond
	off += 4
	mod.HardTimeout = time.Duration(binary.BigEndian.Uint32(m.Body[off:])) * time.Millisecond
	off += 4
	mod.BufferID = binary.BigEndian.Uint32(m.Body[off:])
	off += 4
	off += 2
	n := int(binary.BigEndian.Uint16(m.Body[off:]))
	off += 2
	actions, err := getActions(m.Body[off:])
	if err != nil {
		return FlowMod{}, err
	}
	if len(actions) != n {
		return FlowMod{}, errors.New("openflow: action count mismatch")
	}
	mod.Actions = actions
	return mod, nil
}

// PacketOutMsg carries a controller-sourced frame.
type PacketOutMsg struct {
	BufferID uint32
	Port     uint16
	Frame    []byte
}

// EncodePacketOut serializes a PacketOut.
func EncodePacketOut(po PacketOutMsg, xid uint32) Msg {
	return Msg{Type: MsgPacketOut, Xid: xid, Body: appendPacketOutBody(nil, po)}
}

// AppendPacketOut appends po as one framed message to b.
func AppendPacketOut(b []byte, po PacketOutMsg, xid uint32) ([]byte, error) {
	return finishMsg(appendPacketOutBody(appendHeader(b, MsgPacketOut, xid), po), len(b))
}

func appendPacketOutBody(b []byte, po PacketOutMsg) []byte {
	b, body := extend(b, 4+2+2+len(po.Frame))
	binary.BigEndian.PutUint32(body[0:4], po.BufferID)
	binary.BigEndian.PutUint16(body[4:6], po.Port)
	copy(body[8:], po.Frame)
	return b
}

// DecodePacketOut parses a PacketOut body. Frame aliases m.Body, as in
// DecodePacketIn.
func DecodePacketOut(m Msg) (PacketOutMsg, error) {
	if m.Type != MsgPacketOut || len(m.Body) < 8 {
		return PacketOutMsg{}, errors.New("openflow: bad packet-out")
	}
	return PacketOutMsg{
		BufferID: binary.BigEndian.Uint32(m.Body[0:4]),
		Port:     binary.BigEndian.Uint16(m.Body[4:6]),
		Frame:    m.Body[8:],
	}, nil
}

// EncodeFlowRemoved serializes a FlowRemoved event.
func EncodeFlowRemoved(ev FlowRemoved, xid uint32) Msg {
	return Msg{Type: MsgFlowRemoved, Xid: xid, Body: appendFlowRemovedBody(nil, ev)}
}

// AppendFlowRemoved appends ev as one framed message to b.
func AppendFlowRemoved(b []byte, ev FlowRemoved, xid uint32) ([]byte, error) {
	return finishMsg(appendFlowRemovedBody(appendHeader(b, MsgFlowRemoved, xid), ev), len(b))
}

func appendFlowRemovedBody(b []byte, ev FlowRemoved) []byte {
	b, body := extend(b, 8+matchLen+8+1+7+8+8)
	binary.BigEndian.PutUint64(body[0:8], ev.SwitchID)
	putMatch(body[8:], ev.Match)
	off := 8 + matchLen
	binary.BigEndian.PutUint64(body[off:], ev.Cookie)
	off += 8
	body[off] = byte(ev.Reason)
	off += 8 // 1 reason + 7 pad
	binary.BigEndian.PutUint64(body[off:], ev.Packets)
	off += 8
	binary.BigEndian.PutUint64(body[off:], ev.Bytes)
	return b
}

// DecodeFlowRemoved parses a FlowRemoved body.
func DecodeFlowRemoved(m Msg) (FlowRemoved, error) {
	want := 8 + matchLen + 8 + 8 + 8 + 8
	if m.Type != MsgFlowRemoved || len(m.Body) < want {
		return FlowRemoved{}, errors.New("openflow: bad flow-removed")
	}
	match, err := getMatch(m.Body[8:])
	if err != nil {
		return FlowRemoved{}, err
	}
	off := 8 + matchLen
	ev := FlowRemoved{
		SwitchID: binary.BigEndian.Uint64(m.Body[0:8]),
		Match:    match,
	}
	ev.Cookie = binary.BigEndian.Uint64(m.Body[off:])
	off += 8
	ev.Reason = RemovedReason(m.Body[off])
	off += 8
	ev.Packets = binary.BigEndian.Uint64(m.Body[off:])
	off += 8
	ev.Bytes = binary.BigEndian.Uint64(m.Body[off:])
	return ev, nil
}
