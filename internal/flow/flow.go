// Package flow defines the two flow abstractions the paper uses: the
// ident++ 5-tuple (§2) that names a flow in queries and policy, and the
// OpenFlow 10-tuple (§3.1) that switches match on. The 10-tuple is a strict
// superset of the 5-tuple; Ten.Five projects one onto the other.
package flow

import (
	"fmt"
	"hash/maphash"
	"strings"

	"identxx/internal/netaddr"
)

// Five is the ident++ definition of a flow: {IP destination and source
// addresses, IP protocol, TCP or UDP destination and source ports} (§2).
type Five struct {
	SrcIP   netaddr.IP
	DstIP   netaddr.IP
	Proto   netaddr.Proto
	SrcPort netaddr.Port
	DstPort netaddr.Port
}

// Reverse returns the flow with endpoints swapped — the reply direction.
// `keep state` rules install both f and f.Reverse().
func (f Five) Reverse() Five {
	return Five{
		SrcIP: f.DstIP, DstIP: f.SrcIP,
		Proto:   f.Proto,
		SrcPort: f.DstPort, DstPort: f.SrcPort,
	}
}

func (f Five) String() string {
	return fmt.Sprintf("%s %s:%d > %s:%d",
		f.Proto, f.SrcIP, f.SrcPort, f.DstIP, f.DstPort)
}

// ParseFive parses the String form: "tcp 10.0.0.1:234 > 10.0.0.2:80".
func ParseFive(s string) (Five, error) {
	var f Five
	fields := strings.Fields(s)
	if len(fields) != 4 || fields[2] != ">" {
		return f, fmt.Errorf("flow: invalid five-tuple %q", s)
	}
	proto, err := netaddr.ParseProto(fields[0])
	if err != nil {
		return f, err
	}
	src, sp, err := splitHostPort(fields[1])
	if err != nil {
		return f, err
	}
	dst, dp, err := splitHostPort(fields[3])
	if err != nil {
		return f, err
	}
	return Five{SrcIP: src, DstIP: dst, Proto: proto, SrcPort: sp, DstPort: dp}, nil
}

func splitHostPort(s string) (netaddr.IP, netaddr.Port, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return 0, 0, fmt.Errorf("flow: missing port in %q", s)
	}
	ip, err := netaddr.ParseIP(s[:i])
	if err != nil {
		return 0, 0, err
	}
	p, err := netaddr.ParsePort(s[i+1:])
	if err != nil {
		return 0, 0, err
	}
	return ip, p, nil
}

var hashSeed = maphash.MakeSeed()

// Hash returns a 64-bit hash of the tuple, suitable for flow tables and
// verdict caches. The seed is fixed per process. maphash.Comparable hashes
// the tuple's fixed-size memory directly — no intermediate buffer, no
// allocation, nothing escaping — which matters because shard selection and
// flow-mod cookies hash on every packet-in.
func (f Five) Hash() uint64 {
	return maphash.Comparable(hashSeed, f)
}

// ShardIndex maps the flow onto one of shards buckets using the same
// per-process maphash as Hash. shards must be a power of two; both
// directions of a flow generally land in different shards (sharding is a
// concurrency device, not a semantic grouping). Concurrent flow-state
// tables (the controller's verdict cache, pending sets) key their shards
// with this so a flow's state always lives in exactly one shard.
func (f Five) ShardIndex(shards int) int {
	return int(f.Hash() & uint64(shards-1))
}

// Ten is the OpenFlow 10-tuple (§3.1): {ingress port, MAC src/dst, Ethernet
// type, VLAN id, IP src/dst, IP protocol, transport src/dst ports}.
type Ten struct {
	InPort  uint16
	MACSrc  netaddr.MAC
	MACDst  netaddr.MAC
	EthType uint16
	VLAN    uint16
	SrcIP   netaddr.IP
	DstIP   netaddr.IP
	Proto   netaddr.Proto
	SrcPort netaddr.Port
	DstPort netaddr.Port
}

// EtherType values used by the substrate.
const (
	EthTypeIPv4 = 0x0800
	EthTypeARP  = 0x0806
	EthTypeVLAN = 0x8100
)

// VLANNone is the "no VLAN tag" marker, as in OpenFlow 1.0 (OFP_VLAN_NONE).
const VLANNone = 0xffff

// Five projects the 10-tuple onto the ident++ 5-tuple (§3.1 notes the
// 10-tuple is a superset of the 5-tuple).
func (t Ten) Five() Five {
	return Five{
		SrcIP: t.SrcIP, DstIP: t.DstIP, Proto: t.Proto,
		SrcPort: t.SrcPort, DstPort: t.DstPort,
	}
}

// Reverse swaps the endpoint-identifying fields for the reply direction.
// The ingress port is cleared: the reply enters elsewhere.
func (t Ten) Reverse() Ten {
	return Ten{
		InPort: 0,
		MACSrc: t.MACDst, MACDst: t.MACSrc,
		EthType: t.EthType, VLAN: t.VLAN,
		SrcIP: t.DstIP, DstIP: t.SrcIP,
		Proto:   t.Proto,
		SrcPort: t.DstPort, DstPort: t.SrcPort,
	}
}

func (t Ten) String() string {
	return fmt.Sprintf("in:%d %s>%s eth:%#04x vlan:%d %s %s:%d > %s:%d",
		t.InPort, t.MACSrc, t.MACDst, t.EthType, t.VLAN,
		t.Proto, t.SrcIP, t.SrcPort, t.DstIP, t.DstPort)
}

// Wildcard selects which fields of a Ten participate in a Match. A set bit
// means the field is wildcarded (ignored), mirroring OFPFW_* in OpenFlow 1.0.
type Wildcard uint32

// Wildcard bits, one per 10-tuple field.
const (
	WInPort Wildcard = 1 << iota
	WMACSrc
	WMACDst
	WEthType
	WVLAN
	WSrcIP
	WDstIP
	WProto
	WSrcPort
	WDstPort

	// WAll wildcards every field: the match admits any packet.
	WAll Wildcard = 1<<10 - 1
	// WNone wildcards nothing: the match is exact.
	WNone Wildcard = 0
)

// Match is a possibly-wildcarded predicate over 10-tuples, with CIDR masks
// on the IP fields (OpenFlow 1.0 models IP wildcarding as a prefix length).
// SrcBits/DstBits give the number of significant prefix bits when the
// corresponding W*IP bit is clear; 32 means exact-match.
type Match struct {
	Wild    Wildcard
	SrcBits int
	DstBits int
	Tuple   Ten
}

// ExactMatch returns a Match that admits exactly t.
func ExactMatch(t Ten) Match {
	return Match{Wild: WNone, SrcBits: 32, DstBits: 32, Tuple: t}
}

// FiveMatch returns a Match on the 5-tuple fields only, wildcarding the
// L2/ingress fields. This is the granularity the ident++ controller caches
// decisions at.
func FiveMatch(f Five) Match {
	return Match{
		Wild:    WInPort | WMACSrc | WMACDst | WEthType | WVLAN,
		SrcBits: 32,
		DstBits: 32,
		Tuple: Ten{
			SrcIP: f.SrcIP, DstIP: f.DstIP, Proto: f.Proto,
			SrcPort: f.SrcPort, DstPort: f.DstPort,
		},
	}
}

// MatchAll admits every packet.
func MatchAll() Match { return Match{Wild: WAll} }

// Covers reports whether the match admits t.
func (m Match) Covers(t Ten) bool {
	w := m.Wild
	if w&WInPort == 0 && m.Tuple.InPort != t.InPort {
		return false
	}
	if w&WMACSrc == 0 && m.Tuple.MACSrc != t.MACSrc {
		return false
	}
	if w&WMACDst == 0 && m.Tuple.MACDst != t.MACDst {
		return false
	}
	if w&WEthType == 0 && m.Tuple.EthType != t.EthType {
		return false
	}
	if w&WVLAN == 0 && m.Tuple.VLAN != t.VLAN {
		return false
	}
	if w&WSrcIP == 0 && t.SrcIP.Mask(m.SrcBits) != m.Tuple.SrcIP.Mask(m.SrcBits) {
		return false
	}
	if w&WDstIP == 0 && t.DstIP.Mask(m.DstBits) != m.Tuple.DstIP.Mask(m.DstBits) {
		return false
	}
	if w&WProto == 0 && m.Tuple.Proto != t.Proto {
		return false
	}
	if w&WSrcPort == 0 && m.Tuple.SrcPort != t.SrcPort {
		return false
	}
	if w&WDstPort == 0 && m.Tuple.DstPort != t.DstPort {
		return false
	}
	return true
}

// IsExact reports whether the match admits exactly one 10-tuple.
func (m Match) IsExact() bool {
	return m.Wild == WNone && m.SrcBits >= 32 && m.DstBits >= 32
}

// Specificity counts non-wildcarded fields; higher is more specific. The
// switch uses it as the default priority for overlapping entries, matching
// the OpenFlow convention that exact entries beat wildcard entries.
func (m Match) Specificity() int {
	n := 0
	for b := Wildcard(1); b < 1<<10; b <<= 1 {
		if m.Wild&b == 0 {
			n++
		}
	}
	return n
}

func (m Match) String() string {
	if m.Wild == WAll {
		return "match(*)"
	}
	var parts []string
	add := func(bit Wildcard, s string) {
		if m.Wild&bit == 0 {
			parts = append(parts, s)
		}
	}
	add(WInPort, fmt.Sprintf("in=%d", m.Tuple.InPort))
	add(WMACSrc, "macsrc="+m.Tuple.MACSrc.String())
	add(WMACDst, "macdst="+m.Tuple.MACDst.String())
	add(WEthType, fmt.Sprintf("eth=%#04x", m.Tuple.EthType))
	add(WVLAN, fmt.Sprintf("vlan=%d", m.Tuple.VLAN))
	add(WSrcIP, fmt.Sprintf("src=%s/%d", m.Tuple.SrcIP, m.SrcBits))
	add(WDstIP, fmt.Sprintf("dst=%s/%d", m.Tuple.DstIP, m.DstBits))
	add(WProto, "proto="+m.Tuple.Proto.String())
	add(WSrcPort, fmt.Sprintf("sport=%d", m.Tuple.SrcPort))
	add(WDstPort, fmt.Sprintf("dport=%d", m.Tuple.DstPort))
	return "match(" + strings.Join(parts, " ") + ")"
}
