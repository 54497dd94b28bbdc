// Package netaddr provides compact value types for IPv4 addresses, CIDR
// prefixes, MAC addresses, transport ports, and port ranges.
//
// The ident++ datapath (internal/openflow, internal/netsim) performs millions
// of header matches per simulated second, so the types here are fixed-size
// integers rather than heap-allocated net.IP slices. Text is the one
// conversion: every edge of the system (rule files, topology and daemon
// specs, CLI flags, the ident++ wire) spells addresses and ports out.
package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// IP is an IPv4 address in host byte order. The zero value is 0.0.0.0,
// which the package treats as "unspecified".
type IP uint32

// ParseIP parses a dotted-quad IPv4 address.
func ParseIP(s string) (IP, error) {
	var parts [4]uint64
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
		}
		parts[i] = v
	}
	return IP(parts[0]<<24 | parts[1]<<16 | parts[2]<<8 | parts[3]), nil
}

// MustParseIP is ParseIP that panics on error; intended for tests and
// package-level configuration literals.
func MustParseIP(s string) IP {
	ip, err := ParseIP(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// IPv4 assembles an IP from four octets.
func IPv4(a, b, c, d byte) IP {
	return IP(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// Octets returns the four octets of the address.
func (ip IP) Octets() (a, b, c, d byte) {
	return byte(ip >> 24), byte(ip >> 16), byte(ip >> 8), byte(ip)
}

func (ip IP) String() string {
	a, b, c, d := ip.Octets()
	return fmt.Sprintf("%d.%d.%d.%d", a, b, c, d)
}

// MarshalText renders the dotted quad, so encoders (encoding/json) show an
// address, not its integer.
func (ip IP) MarshalText() ([]byte, error) { return []byte(ip.String()), nil }

// UnmarshalText parses what MarshalText renders.
func (ip *IP) UnmarshalText(b []byte) (err error) {
	*ip, err = ParseIP(string(b))
	return err
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr IP
	Bits int // prefix length, 0..32
}

// ParsePrefix parses "a.b.c.d/len". A bare address parses as a /32.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		ip, err := ParseIP(s)
		if err != nil {
			return Prefix{}, err
		}
		return Prefix{Addr: ip, Bits: 32}, nil
	}
	ip, err := ParseIP(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: invalid prefix length in %q", s)
	}
	return Prefix{Addr: ip.Mask(bits), Bits: bits}, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask zeroes the host bits of ip for a prefix of the given length.
func (ip IP) Mask(bits int) IP {
	if bits <= 0 {
		return 0
	}
	if bits >= 32 {
		return ip
	}
	return ip & (^IP(0) << (32 - bits))
}

// Contains reports whether the prefix contains ip.
func (p Prefix) Contains(ip IP) bool {
	return ip.Mask(p.Bits) == p.Addr.Mask(p.Bits)
}

// IsSingleIP reports whether the prefix is a /32.
func (p Prefix) IsSingleIP() bool { return p.Bits == 32 }

func (p Prefix) String() string {
	if p.Bits == 32 {
		return p.Addr.String()
	}
	return fmt.Sprintf("%s/%d", p.Addr, p.Bits)
}

// MAC is a 48-bit Ethernet address stored in the low bits.
type MAC uint64

// ParseMAC parses the colon-separated form aa:bb:cc:dd:ee:ff.
func ParseMAC(s string) (MAC, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 6 {
		return 0, fmt.Errorf("netaddr: invalid MAC %q", s)
	}
	var m MAC
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 16, 8)
		if err != nil {
			return 0, fmt.Errorf("netaddr: invalid MAC %q", s)
		}
		m = m<<8 | MAC(v)
	}
	return m, nil
}

// MustParseMAC is ParseMAC that panics on error.
func MustParseMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// MACFromBytes assembles a MAC from a 6-byte slice.
func MACFromBytes(b []byte) MAC {
	var m MAC
	for i := 0; i < 6 && i < len(b); i++ {
		m = m<<8 | MAC(b[i])
	}
	return m
}

// Bytes writes the MAC into a 6-byte array.
func (m MAC) Bytes() [6]byte {
	var b [6]byte
	for i := 5; i >= 0; i-- {
		b[i] = byte(m)
		m >>= 8
	}
	return b
}

func (m MAC) String() string {
	b := m.Bytes()
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", b[0], b[1], b[2], b[3], b[4], b[5])
}

// Port is a TCP or UDP port number.
type Port uint16

// ParsePort parses a numeric port or a well-known service name
// (see Services).
func ParsePort(s string) (Port, error) {
	if p, ok := Services[strings.ToLower(s)]; ok {
		return p, nil
	}
	v, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, fmt.Errorf("netaddr: invalid port %q", s)
	}
	return Port(v), nil
}

func (p Port) String() string { return strconv.Itoa(int(p)) }

// Services maps the service names PF rule files may use to port numbers.
// The set matches the names used in the paper's examples plus the common
// /etc/services entries an enterprise policy would reference.
var Services = map[string]Port{
	"ftp":      21,
	"ssh":      22,
	"telnet":   23,
	"smtp":     25,
	"domain":   53,
	"dns":      53,
	"http":     80,
	"www":      80,
	"pop3":     110,
	"auth":     113,
	"ident":    113,
	"ntp":      123,
	"imap":     143,
	"snmp":     161,
	"ldap":     389,
	"https":    443,
	"smb":      445,
	"syslog":   514,
	"identxx":  783, // the ident++ daemon port (§2)
	"imaps":    993,
	"pop3s":    995,
	"openflow": 6633,
	"rdp":      3389,
}

// PortRange is an inclusive range of ports. Lo == Hi denotes a single port;
// the zero value (0,0) is treated by callers as "any" when used in matches.
type PortRange struct {
	Lo, Hi Port
}

// SinglePort returns a range covering exactly p.
func SinglePort(p Port) PortRange { return PortRange{p, p} }

// AnyPort matches all ports.
var AnyPort = PortRange{0, 65535}

// ParsePortRange parses "80", "http", "1024-65535", or "1024:65535".
func ParsePortRange(s string) (PortRange, error) {
	sep := strings.IndexAny(s, "-:")
	if sep < 0 {
		p, err := ParsePort(s)
		if err != nil {
			return PortRange{}, err
		}
		return SinglePort(p), nil
	}
	lo, err := ParsePort(s[:sep])
	if err != nil {
		return PortRange{}, err
	}
	hi, err := ParsePort(s[sep+1:])
	if err != nil {
		return PortRange{}, err
	}
	if hi < lo {
		return PortRange{}, fmt.Errorf("netaddr: inverted port range %q", s)
	}
	return PortRange{lo, hi}, nil
}

// Contains reports whether the range includes p.
func (r PortRange) Contains(p Port) bool { return p >= r.Lo && p <= r.Hi }

// IsSingle reports whether the range covers exactly one port.
func (r PortRange) IsSingle() bool { return r.Lo == r.Hi }

// IsAny reports whether the range covers the whole port space.
func (r PortRange) IsAny() bool { return r.Lo == 0 && r.Hi == 65535 }

func (r PortRange) String() string {
	if r.IsSingle() {
		return r.Lo.String()
	}
	return fmt.Sprintf("%d-%d", r.Lo, r.Hi)
}

// Proto is an IP protocol number. Only TCP, UDP and ICMP are given names;
// any other value is printed numerically.
type Proto uint8

// IP protocol numbers used throughout the system.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// ParseProto parses "tcp", "udp", "icmp" or a protocol number.
func ParseProto(s string) (Proto, error) {
	switch strings.ToLower(s) {
	case "tcp":
		return ProtoTCP, nil
	case "udp":
		return ProtoUDP, nil
	case "icmp":
		return ProtoICMP, nil
	}
	v, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, fmt.Errorf("netaddr: invalid protocol %q", s)
	}
	return Proto(v), nil
}

func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	}
	return strconv.Itoa(int(p))
}

// IPSet is an ordered collection of prefixes with membership testing. It
// backs PF tables (`table <lan> { ... }`): a handful of prefixes scanned
// linearly, which profiles faster than a trie below ~64 entries — the regime
// enterprise PF tables live in.
type IPSet struct {
	prefixes []Prefix
}

// NewIPSet builds a set from prefixes.
func NewIPSet(prefixes ...Prefix) *IPSet {
	s := &IPSet{}
	for _, p := range prefixes {
		s.Add(p)
	}
	return s
}

// Add inserts a prefix. Duplicate and covered prefixes are kept; Contains is
// unaffected and PF table semantics do not require canonicalization.
func (s *IPSet) Add(p Prefix) { s.prefixes = append(s.prefixes, p) }

// AddSet inserts every prefix of t (PF allows tables to reference tables).
func (s *IPSet) AddSet(t *IPSet) { s.prefixes = append(s.prefixes, t.prefixes...) }

// Contains reports whether any prefix in the set covers ip.
func (s *IPSet) Contains(ip IP) bool {
	for _, p := range s.prefixes {
		if p.Contains(ip) {
			return true
		}
	}
	return false
}

// Len returns the number of prefixes in the set.
func (s *IPSet) Len() int { return len(s.prefixes) }

func (s *IPSet) String() string {
	parts := make([]string, len(s.prefixes))
	for i, p := range s.prefixes {
		parts[i] = p.String()
	}
	return "{ " + strings.Join(parts, " ") + " }"
}
