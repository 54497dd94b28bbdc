package cluster

import (
	"encoding/binary"
	"fmt"

	"identxx/internal/netaddr"
	"identxx/internal/openflow"
)

// Ack status codes carried in a FrameAck payload's first byte.
const (
	ackOK    byte = 0
	ackError byte = 1 // decode failure or unknown request
)

// eventHeaderLen is the fixed prefix of a FrameEvent payload: the
// flight-recorder trace ID (0: untraced), the packet-in envelope (switch id,
// buffer id, in-port, reason) and the full OpenFlow 10-tuple. The raw frame
// bytes follow to the end of the payload.
const eventHeaderLen = 8 + 8 + 4 + 2 + 1 + 2 + 8 + 8 + 2 + 2 + 4 + 4 + 1 + 2 + 2

// encodeEvent serializes a forwarded packet-in. The tuple rides alongside
// the frame bytes even though it is derivable from them: the receiving
// replica must not re-parse (the sender already did, and header-only
// fast paths key on the tuple as given). The trace ID stitches the owner's
// decision to the forwarder's trace.
func encodeEvent(ev openflow.PacketIn) []byte {
	h := make([]byte, eventHeaderLen, eventHeaderLen+len(ev.Frame))
	binary.BigEndian.PutUint64(h[0:8], ev.TraceID)
	binary.BigEndian.PutUint64(h[8:16], ev.SwitchID)
	binary.BigEndian.PutUint32(h[16:20], ev.BufferID)
	binary.BigEndian.PutUint16(h[20:22], ev.InPort)
	h[22] = byte(ev.Reason)
	t := ev.Tuple
	binary.BigEndian.PutUint16(h[23:25], t.InPort)
	binary.BigEndian.PutUint64(h[25:33], uint64(t.MACSrc))
	binary.BigEndian.PutUint64(h[33:41], uint64(t.MACDst))
	binary.BigEndian.PutUint16(h[41:43], t.EthType)
	binary.BigEndian.PutUint16(h[43:45], t.VLAN)
	binary.BigEndian.PutUint32(h[45:49], uint32(t.SrcIP))
	binary.BigEndian.PutUint32(h[49:53], uint32(t.DstIP))
	h[53] = byte(t.Proto)
	binary.BigEndian.PutUint16(h[54:56], uint16(t.SrcPort))
	binary.BigEndian.PutUint16(h[56:58], uint16(t.DstPort))
	return append(h, ev.Frame...)
}

// decodeEvent is encodeEvent's inverse. The frame aliases p, a served
// connection's reused read buffer, as a switch channel's packet-in aliases
// its own: the controller keeps nothing of it, so a decision suspended on
// the query plane never reads the buffer the next frame overwrites.
func decodeEvent(p []byte) (openflow.PacketIn, error) {
	if len(p) < eventHeaderLen {
		return openflow.PacketIn{}, fmt.Errorf("cluster: event payload %d bytes, want >= %d", len(p), eventHeaderLen)
	}
	ev := openflow.PacketIn{
		TraceID:  binary.BigEndian.Uint64(p[0:8]),
		SwitchID: binary.BigEndian.Uint64(p[8:16]),
		BufferID: binary.BigEndian.Uint32(p[16:20]),
		InPort:   binary.BigEndian.Uint16(p[20:22]),
		Reason:   openflow.PacketInReason(p[22]),
	}
	ev.Tuple.InPort = binary.BigEndian.Uint16(p[23:25])
	ev.Tuple.MACSrc = netaddr.MAC(binary.BigEndian.Uint64(p[25:33]))
	ev.Tuple.MACDst = netaddr.MAC(binary.BigEndian.Uint64(p[33:41]))
	ev.Tuple.EthType = binary.BigEndian.Uint16(p[41:43])
	ev.Tuple.VLAN = binary.BigEndian.Uint16(p[43:45])
	ev.Tuple.SrcIP = netaddr.IP(binary.BigEndian.Uint32(p[45:49]))
	ev.Tuple.DstIP = netaddr.IP(binary.BigEndian.Uint32(p[49:53]))
	ev.Tuple.Proto = netaddr.Proto(p[53])
	ev.Tuple.SrcPort = netaddr.Port(binary.BigEndian.Uint16(p[54:56]))
	ev.Tuple.DstPort = netaddr.Port(binary.BigEndian.Uint16(p[56:58]))
	if len(p) > eventHeaderLen {
		ev.Frame = p[eventHeaderLen:]
	}
	return ev, nil
}
