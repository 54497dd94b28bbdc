package netaddr

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestParseIP(t *testing.T) {
	cases := []struct {
		in   string
		want IP
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.168.42.32", IPv4(192, 168, 42, 32), true},
		{"10.0.0.1", IPv4(10, 0, 0, 1), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.1.1.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
	}
	for _, c := range cases {
		got, err := ParseIP(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseIP(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseIP(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIPStringRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP(v)
		back, err := ParseIP(ip.String())
		return err == nil && back == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// An address encodes as its dotted quad, as a value and as a map key, and
// decodes back.
func TestIPJSON(t *testing.T) {
	in := map[IP]IP{IPv4(10, 0, 0, 1): IPv4(192, 168, 0, 2)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"10.0.0.1":"192.168.0.2"}` {
		t.Errorf("json = %s", b)
	}
	var out map[IP]IP
	if err := json.Unmarshal(b, &out); err != nil || len(out) != 1 || out[IPv4(10, 0, 0, 1)] != IPv4(192, 168, 0, 2) {
		t.Errorf("round trip = %v, %v", out, err)
	}
	if err := json.Unmarshal([]byte(`"10.0.0"`), new(IP)); err == nil {
		t.Error("a malformed address decoded")
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("192.168.0.0/24")
	if !p.Contains(MustParseIP("192.168.0.255")) {
		t.Error("prefix should contain .255")
	}
	if p.Contains(MustParseIP("192.168.1.0")) {
		t.Error("prefix should not contain 192.168.1.0")
	}
	// Host bits are masked off at parse time.
	q := MustParsePrefix("192.168.0.77/24")
	if q.Addr != MustParseIP("192.168.0.0") {
		t.Errorf("host bits not masked: %v", q)
	}
	// Bare address is a /32.
	r := MustParsePrefix("10.0.0.1")
	if !r.IsSingleIP() || !r.Contains(MustParseIP("10.0.0.1")) || r.Contains(MustParseIP("10.0.0.2")) {
		t.Errorf("bare address parse wrong: %v", r)
	}
	for _, bad := range []string{"10.0.0.0/33", "10.0.0.0/-1", "10.0.0.0/x", "300.0.0.0/8"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) should fail", bad)
		}
	}
}

func TestPrefixZeroBitsContainsAll(t *testing.T) {
	p := MustParsePrefix("0.0.0.0/0")
	f := func(v uint32) bool { return p.Contains(IP(v)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMACRoundTrip(t *testing.T) {
	m := MustParseMAC("00:1b:21:aa:bb:cc")
	if got := m.String(); got != "00:1b:21:aa:bb:cc" {
		t.Errorf("MAC string = %q", got)
	}
	back, err := ParseMAC(m.String())
	if err != nil || back != m {
		t.Errorf("MAC round trip failed: %v %v", back, err)
	}
	b := m.Bytes()
	if MACFromBytes(b[:]) != m {
		t.Error("MACFromBytes round trip failed")
	}
	for _, bad := range []string{"00:11:22:33:44", "00:11:22:33:44:55:66", "zz:11:22:33:44:55", ""} {
		if _, err := ParseMAC(bad); err == nil {
			t.Errorf("ParseMAC(%q) should fail", bad)
		}
	}
}

func TestMACStringRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		m := MAC(v & 0xffffffffffff)
		back, err := ParseMAC(m.String())
		return err == nil && back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePort(t *testing.T) {
	cases := []struct {
		in   string
		want Port
		ok   bool
	}{
		{"80", 80, true},
		{"http", 80, true},
		{"HTTP", 80, true},
		{"https", 443, true},
		{"smtp", 25, true},
		{"identxx", 783, true},
		{"0", 0, true},
		{"65535", 65535, true},
		{"65536", 0, false},
		{"-1", 0, false},
		{"bogus", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePort(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParsePort(%q) err=%v want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParsePort(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParsePortRange(t *testing.T) {
	r, err := ParsePortRange("1024-2048")
	if err != nil || r.Lo != 1024 || r.Hi != 2048 {
		t.Fatalf("ParsePortRange: %v %v", r, err)
	}
	if !r.Contains(1024) || !r.Contains(2048) || r.Contains(1023) || r.Contains(2049) {
		t.Error("range containment wrong")
	}
	single, err := ParsePortRange("ssh")
	if err != nil || !single.IsSingle() || single.Lo != 22 {
		t.Fatalf("single service range: %v %v", single, err)
	}
	if _, err := ParsePortRange("2048-1024"); err == nil {
		t.Error("inverted range should fail")
	}
	colon, err := ParsePortRange("10:20")
	if err != nil || colon.Lo != 10 || colon.Hi != 20 {
		t.Fatalf("colon range: %v %v", colon, err)
	}
	if !AnyPort.IsAny() || !AnyPort.Contains(0) || !AnyPort.Contains(65535) {
		t.Error("AnyPort wrong")
	}
}

func TestParseProto(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Proto
	}{{"tcp", ProtoTCP}, {"TCP", ProtoTCP}, {"udp", ProtoUDP}, {"icmp", ProtoICMP}, {"47", Proto(47)}} {
		got, err := ParseProto(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseProto(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseProto("bogus"); err == nil {
		t.Error("ParseProto(bogus) should fail")
	}
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" || ProtoICMP.String() != "icmp" || Proto(89).String() != "89" {
		t.Error("Proto.String wrong")
	}
}

func TestIPSet(t *testing.T) {
	s := NewIPSet(MustParsePrefix("192.168.0.0/24"), MustParsePrefix("10.0.0.5"))
	if !s.Contains(MustParseIP("192.168.0.200")) {
		t.Error("set should contain 192.168.0.200")
	}
	if !s.Contains(MustParseIP("10.0.0.5")) {
		t.Error("set should contain 10.0.0.5")
	}
	if s.Contains(MustParseIP("10.0.0.6")) {
		t.Error("set should not contain 10.0.0.6")
	}
	s.Add(MustParsePrefix("10.0.0.6"))
	if !s.Contains(MustParseIP("10.0.0.6")) {
		t.Error("Add had no effect")
	}
	// Sets can include other sets, as PF tables can reference tables.
	t2 := NewIPSet(MustParsePrefix("172.16.0.0/12"))
	s.AddSet(t2)
	if !s.Contains(MustParseIP("172.20.1.1")) {
		t.Error("AddSet had no effect")
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if got := s.String(); got != "{ 192.168.0.0/24 10.0.0.5 10.0.0.6 172.16.0.0/12 }" {
		t.Errorf("String = %q", got)
	}
}

func TestIPMaskProperty(t *testing.T) {
	// Masking is idempotent and monotone in prefix length.
	f := func(v uint32, bits uint8) bool {
		b := int(bits % 33)
		ip := IP(v)
		m := ip.Mask(b)
		return m.Mask(b) == m && Prefix{Addr: m, Bits: b}.Contains(ip)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkIPSetContains(b *testing.B) {
	s := NewIPSet()
	for i := 0; i < 16; i++ {
		s.Add(Prefix{Addr: IPv4(10, byte(i), 0, 0), Bits: 16})
	}
	ip := MustParseIP("10.15.3.4")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !s.Contains(ip) {
			b.Fatal("miss")
		}
	}
}
