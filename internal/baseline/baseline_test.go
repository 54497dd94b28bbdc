package baseline

import (
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

var (
	hostA = netaddr.MustParseIP("10.0.0.1")
	hostB = netaddr.MustParseIP("10.0.0.2")
)

func tcp(sp, dp netaddr.Port) flow.Five {
	return flow.Five{SrcIP: hostA, DstIP: hostB, Proto: netaddr.ProtoTCP, SrcPort: sp, DstPort: dp}
}

// lineTopo is a trivial topology for controller-driven tests.
type lineTopo struct{}

func (lineTopo) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	return []core.Hop{{Datapath: 1, OutPort: 2}}, nil
}

type countingDP struct{ id uint64 }

func (d *countingDP) DatapathID() uint64           { return d.id }
func (d *countingDP) Apply(openflow.FlowMod) error { return nil }
func (d *countingDP) ReleaseBuffer(uint32)         {}

func event(f flow.Five) openflow.PacketIn {
	return openflow.PacketIn{
		SwitchID: 1, BufferID: openflow.BufferNone,
		Tuple: flow.Ten{EthType: flow.EthTypeIPv4, SrcIP: f.SrcIP, DstIP: f.DstIP,
			Proto: f.Proto, SrcPort: f.SrcPort, DstPort: f.DstPort},
	}
}

func TestNullTransportMakesVanillaFirewall(t *testing.T) {
	// The paper's port-80 dilemma (§1): a vanilla firewall cannot tell
	// Skype from Web on destination port 80, so an app-aware policy fails
	// closed for both.
	ctl := core.New(core.Config{
		Name: "vanilla",
		Policy: pf.MustCompile("p", `
block all
pass from any to any port 80 with eq(@src[name], firefox)
`),
		Transport: NullTransport{}, Topology: lineTopo{},
	})
	ctl.AddDatapath(&countingDP{id: 1})
	ctl.HandleEvent(event(tcp(1000, 80)))
	if ctl.Counters.Get("flows_denied") != 1 {
		t.Error("vanilla firewall should fail closed on app predicates")
	}
	// A port-only policy works identically with and without ident++.
	ctl2 := core.New(core.Config{
		Name: "vanilla",
		Policy: pf.MustCompile("p", `
block all
pass from any to any port 80
`),
		Transport: NullTransport{}, Topology: lineTopo{},
	})
	ctl2.AddDatapath(&countingDP{id: 1})
	ctl2.HandleEvent(event(tcp(1000, 80)))
	ctl2.HandleEvent(event(tcp(1000, 443)))
	if ctl2.Counters.Get("flows_allowed") != 1 || ctl2.Counters.Get("flows_denied") != 1 {
		t.Errorf("port policy wrong: %s", ctl2.Counters)
	}
}

// ask queries host through et, which completes inline.
func ask(et *EthaneTransport, host netaddr.IP) (resp *wire.Response, err error) {
	et.QueryAsync(host, wire.Query{Flow: tcp(1, 2)}, func(r *wire.Response, _ time.Duration, e error) { resp, err = r, e })
	return resp, err
}

func TestEthaneTransportSuppliesOnlyBindings(t *testing.T) {
	et := NewEthaneTransport()
	et.Bind(hostA, "alice", "users", "research")

	resp, err := ask(et, hostA)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
		t.Errorf("userID = %q", v)
	}
	if v, _ := resp.Latest(wire.KeyGroupID); v != "users research" {
		t.Errorf("groupID = %q", v)
	}
	// No application-level keys, ever.
	for _, k := range []string{wire.KeyName, wire.KeyExeHash, wire.KeyVersion, wire.KeyRequirements} {
		if _, ok := resp.Latest(k); ok {
			t.Errorf("Ethane response leaked %s", k)
		}
	}
	if _, err := ask(et, hostB); err == nil {
		t.Error("unbound host should not answer")
	}
}

func TestEthaneCannotEnforceAppPolicy(t *testing.T) {
	// A user-level rule works under Ethane; an app-level rule fails closed
	// — the paper's motivating gap.
	et := NewEthaneTransport()
	et.Bind(hostA, "alice", "users")
	et.Bind(hostB, "smtp")

	userPolicy := pf.MustCompile("p", `
block all
pass from any to any with member(@src[groupID], users)
`)
	appPolicy := pf.MustCompile("p", `
block all
pass from any to any with eq(@src[name], skype)
`)
	mk := func(p *pf.Policy) *core.Controller {
		c := core.New(core.Config{Name: "ethane", Policy: p, Transport: et,
			Topology: lineTopo{}})
		c.AddDatapath(&countingDP{id: 1})
		return c
	}
	cu := mk(userPolicy)
	cu.HandleEvent(event(tcp(1, 25)))
	if cu.Counters.Get("flows_allowed") != 1 {
		t.Error("Ethane should enforce user-level policy")
	}
	ca := mk(appPolicy)
	ca.HandleEvent(event(tcp(1, 25)))
	if ca.Counters.Get("flows_denied") != 1 {
		t.Error("Ethane must fail closed on app-level policy (it lacks the information)")
	}
}

func TestHostFirewallEnforcesLocally(t *testing.T) {
	p := pf.MustCompile("p", `
block all
pass from any to any port 22
`)
	fw := NewHostFirewall(p)
	if !fw.Admit(tcp(1000, 22), nil) {
		t.Error("ssh should be admitted")
	}
	if fw.Admit(tcp(1000, 23), nil) {
		t.Error("telnet should be denied")
	}
	if fw.Allowed != 1 || fw.Denied != 1 {
		t.Errorf("counters = %d/%d", fw.Allowed, fw.Denied)
	}
}

func TestCompromisedHostFirewallAdmitsEverything(t *testing.T) {
	// §6: with distributed firewalls, compromising the end-host bypasses
	// the central policy entirely.
	fw := NewHostFirewall(pf.MustCompile("p", `block all`))
	if fw.Admit(tcp(1, 9999), nil) {
		t.Fatal("sanity: block all should deny")
	}
	fw.SetCompromised(true)
	if !fw.Admit(tcp(1, 9999), nil) {
		t.Error("compromised host firewall should admit everything")
	}
	fw.SetCompromised(false)
	if fw.Admit(tcp(1, 9999), nil) {
		t.Error("recovery should restore filtering")
	}
}

func TestHostFirewallPolicySwap(t *testing.T) {
	fw := NewHostFirewall(pf.MustCompile("p", `block all`))
	fw.SetPolicy(pf.MustCompile("p2", `pass from any to any`))
	if !fw.Admit(tcp(1, 1), nil) {
		t.Error("policy swap had no effect")
	}
}
