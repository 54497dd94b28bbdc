package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/wire"
)

// Ack status codes carried in a FrameAck payload's first byte.
const (
	ackOK    byte = 0
	ackStale byte = 1 // snapshot rejected: epoch not newer than applied
	ackError byte = 2 // decode failure or handler error
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
// its own: the controller copies the frame when it claims the flow, and a
// parked duplicate's when it parks, so a decision suspended on the query
// plane never reads the buffer the next frame overwrites.
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

// Snapshot is the replicated read-mostly configuration: everything a
// replica needs to decide flows identically to its peers. Policy travels
// as source text and is recompiled at the receiver — compiled programs
// hold function values and caches that cannot cross a wire — and
// datapaths travel as IDs resolved through the receiver's local resolver
// hook (switch connections are per-replica; an openflow.Datapath is not
// serializable).
//
// (Epoch, Origin) totally orders snapshots: Epoch is a Lamport-style
// counter (every local config write sets it to last-seen+1) and Origin
// breaks same-epoch ties between concurrent writers on different
// replicas, so all replicas converge on the same winner without any
// coordination round.
type Snapshot struct {
	Epoch        uint64
	Origin       string
	PolicyName   string
	PolicySrc    string
	DefaultBlock bool
	Datapaths    []uint64
	Answers      map[netaddr.IP][]wire.KV
}

// newerThan reports whether s supersedes the applied (epoch, origin).
func (s *Snapshot) newerThan(epoch uint64, origin string) bool {
	if s.Epoch != epoch {
		return s.Epoch > epoch
	}
	return s.Origin > origin
}

// encodeSnapshot renders the line-oriented form: headers, then a bare
// "policy:" marker, then the raw policy source to the end of the payload.
// Answer keys and values are tab-separated (values may contain spaces;
// the wire's own text format forbids tabs in pair values).
func encodeSnapshot(s *Snapshot) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch:%d\n", s.Epoch)
	fmt.Fprintf(&b, "origin:%s\n", s.Origin)
	fmt.Fprintf(&b, "policyname:%s\n", s.PolicyName)
	if s.DefaultBlock {
		b.WriteString("default:block\n")
	} else {
		b.WriteString("default:pass\n")
	}
	for _, id := range s.Datapaths {
		fmt.Fprintf(&b, "datapath:%d\n", id)
	}
	// Deterministic order so identical configs encode identically (useful
	// for tests and for comparing pushes in packet captures).
	ips := make([]netaddr.IP, 0, len(s.Answers))
	for ip := range s.Answers {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i] < ips[j] })
	for _, ip := range ips {
		for _, kv := range s.Answers[ip] {
			fmt.Fprintf(&b, "answer:%s\t%s\t%s\n", ip, kv.Key, kv.Value)
		}
	}
	b.WriteString("policy:\n")
	b.WriteString(s.PolicySrc)
	return []byte(b.String())
}

// decodeSnapshot is encodeSnapshot's inverse.
func decodeSnapshot(p []byte) (*Snapshot, error) {
	s := &Snapshot{Answers: make(map[netaddr.IP][]wire.KV)}
	rest := string(p)
	for {
		line, tail, ok := strings.Cut(rest, "\n")
		if !ok {
			return nil, fmt.Errorf("cluster: snapshot truncated before policy marker")
		}
		rest = tail
		if line == "policy:" {
			s.PolicySrc = rest
			return s, nil
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: malformed snapshot line %q", line)
		}
		switch key {
		case "epoch":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad epoch %q", val)
			}
			s.Epoch = n
		case "origin":
			s.Origin = val
		case "policyname":
			s.PolicyName = val
		case "default":
			s.DefaultBlock = val == "block"
		case "datapath":
			id, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cluster: bad datapath id %q", val)
			}
			s.Datapaths = append(s.Datapaths, id)
		case "answer":
			fields := strings.SplitN(val, "\t", 3)
			if len(fields) != 3 {
				return nil, fmt.Errorf("cluster: malformed answer line %q", line)
			}
			ip, err := netaddr.ParseIP(fields[0])
			if err != nil {
				return nil, fmt.Errorf("cluster: bad answer host %q", fields[0])
			}
			s.Answers[ip] = append(s.Answers[ip], wire.KV{Key: fields[1], Value: fields[2]})
		default:
			// Unknown headers are skipped, not rejected: a newer replica
			// pushing to an older one during a rolling upgrade must not
			// wedge the cluster.
		}
	}
}
