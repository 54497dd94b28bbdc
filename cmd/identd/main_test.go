package main

import (
	"strings"
	"testing"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
)

const demoSpec = `
# comment
name pc1
ip 192.168.0.5
patch MS08-001 MS08-067
user alice groups users,research
proc alice /usr/bin/skype name=skype version=210 vendor=skype.com type=voip
conn alice /usr/bin/skype tcp :40000 > 192.168.1.1:80
user www groups daemon
proc www /usr/sbin/httpd name=httpd version=2.2
listen www /usr/sbin/httpd 8080
`

func TestParseHostSpec(t *testing.T) {
	h, err := parseHostSpec(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "pc1" || h.IP != netaddr.MustParseIP("192.168.0.5") {
		t.Errorf("host identity = %s %s", h.Name, h.IP)
	}
	if got := h.Patches(); got != "MS08-001 MS08-067" {
		t.Errorf("patches = %q", got)
	}
	// The declared connection resolves to alice's skype.
	f := flow.Five{
		SrcIP: h.IP, DstIP: netaddr.MustParseIP("192.168.1.1"),
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80,
	}
	proc, ok := h.OwnerOf(f, hostinfo.RoleSource)
	if !ok {
		t.Fatal("declared conn did not register")
	}
	if proc.User.Name != "alice" || proc.Exe.Name != "skype" || proc.Exe.Version != "210" {
		t.Errorf("owner = %+v", proc)
	}
	// The listener resolves for inbound flows.
	in := flow.Five{
		SrcIP: netaddr.MustParseIP("10.9.9.9"), DstIP: h.IP,
		Proto: netaddr.ProtoTCP, SrcPort: 555, DstPort: 8080,
	}
	lproc, ok := h.OwnerOf(in, hostinfo.RoleDestination)
	if !ok || lproc.Exe.Name != "httpd" {
		t.Errorf("listener lookup = %+v ok=%v", lproc, ok)
	}
}

func TestParseHostSpecErrors(t *testing.T) {
	cases := []string{
		"bogus directive",
		"user",                       // missing name
		"proc alice /bin/x",          // unknown user
		"user u\nproc u /bin/x k=v",  // unknown attribute key=v? (k is unknown)
		"user u\nproc u /bin/x name", // attribute without '='
		"listen u /bin/x 80",         // no such proc
		"user u\nproc u /bin/x\nconn u /bin/x tcp 40000 > 1.1.1.1:80", // sport missing ':'
		"user u\nproc u /bin/x\nconn u /bin/x tcp :40000 1.1.1.1:80",  // missing '>'
		"user u\nproc u /bin/x\nconn u /bin/x tcp :40000 > 1.1.1.1",   // missing dport
		"ip 300.1.1.1",
		"user u\nname late",             // name after host materialized
		"user alice grups users",        // misspelt keyword
		"user alice groups",             // groups without a list
		"user alice groups users extra", // trailing token
		"user alice users",              // a list without its keyword
	}
	for _, src := range cases {
		if _, err := parseHostSpec(src); err == nil {
			t.Errorf("parseHostSpec(%q) should fail", src)
		}
	}
}

func TestParseHostSpecPrivilegedListener(t *testing.T) {
	// Regular users cannot declare privileged listeners, mirroring §5.4.
	_, err := parseHostSpec("user u groups users\nproc u /bin/x\nlisten u /bin/x 80")
	if err == nil || !strings.Contains(err.Error(), "privileged") {
		t.Errorf("err = %v, want privileged-port refusal", err)
	}
}
