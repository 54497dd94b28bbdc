package netsim

import (
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// buildLine builds hostA - sw1 - sw2 - hostB with an attached controller.
func buildLine(t testing.TB, policy string) (*Network, *core.Controller, *Host, *Host) {
	t.Helper()
	n := New()
	sw1 := n.AddSwitch("sw1", 0)
	sw2 := n.AddSwitch("sw2", 0)
	n.ConnectSwitches(sw1, sw2, 0)
	ha := n.AddHost("hostA", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("hostB", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, sw1, 0)
	n.ConnectHost(hb, sw2, 0)

	ctl := core.New(core.Config{
		Name:           "main",
		Policy:         pf.MustCompile("policy", policy),
		Transport:      n.Transport(sw1, nil),
		Topology:       n,
		InstallEntries: true,
		Clock:          n.Clock.Now,
	})
	n.AttachController(ctl, sw1, sw2)
	return n, ctl, ha, hb
}

func runSkypeFlow(t testing.TB, n *Network, ha, hb *Host) flow.Five {
	t.Helper()
	alice := ha.Info.AddUser("alice", "users")
	pa := ha.Info.Exec(alice, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	bob := hb.Info.AddUser("bob", "users")
	pb := hb.Info.Exec(bob, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	if err := hb.Info.Listen(pb.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	five, err := ha.StartFlow(pa.PID, hb.IP(), 5060)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	return five
}

func TestFigure1EndToEnd(t *testing.T) {
	n, ctl, ha, hb := buildLine(t, `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`)
	five := runSkypeFlow(t, n, ha, hb)

	// Step 5: the packet proceeded to the destination.
	if hb.ReceivedCount() != 1 {
		t.Fatalf("hostB received %d frames, want 1", hb.ReceivedCount())
	}
	if got := hb.ReceivedFlows()[five]; got != 1 {
		t.Errorf("flow deliveries = %d", got)
	}
	if ctl.Counters.Get("flows_allowed") != 1 {
		t.Errorf("counters: %s", ctl.Counters)
	}

	// Subsequent packets bypass the controller (cached entry on the path).
	before := ctl.Counters.Get("packet_ins")
	ha.SendTCP(five, packet.TCPAck, []byte("data"))
	n.Run(0)
	if ctl.Counters.Get("packet_ins") != before {
		t.Error("second packet of flow reached the controller")
	}
	if hb.ReceivedCount() != 2 {
		t.Errorf("hostB received %d, want 2", hb.ReceivedCount())
	}

	// keep state: the reply direction is pre-installed.
	hb.SendTCP(five.Reverse(), packet.TCPSyn|packet.TCPAck, nil)
	n.Run(0)
	if ctl.Counters.Get("packet_ins") != before {
		t.Error("reverse flow punted despite keep state")
	}
	if ha.ReceivedCount() != 1 {
		t.Errorf("hostA received %d, want 1 (the SYN-ACK)", ha.ReceivedCount())
	}
}

func TestDeniedFlowNeverArrives(t *testing.T) {
	n, ctl, ha, hb := buildLine(t, `
block all
pass from any to any with eq(@src[name], skype)
`)
	mallory := ha.Info.AddUser("mallory", "users")
	pa := ha.Info.Exec(mallory, hostinfo.Executable{Path: "/usr/bin/exfil", Name: "exfil", Version: "1"})
	five, err := ha.StartFlow(pa.PID, hb.IP(), 9999)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if hb.ReceivedCount() != 0 {
		t.Fatal("denied flow delivered")
	}
	if ctl.Counters.Get("flows_denied") != 1 {
		t.Errorf("counters: %s", ctl.Counters)
	}
	// Retransmission dies in the switch, not at the controller.
	before := ctl.Counters.Get("packet_ins")
	ha.SendTCP(five, packet.TCPSyn, nil)
	n.Run(0)
	if ctl.Counters.Get("packet_ins") != before {
		t.Error("retransmission of denied flow reached controller")
	}
	if hb.ReceivedCount() != 0 {
		t.Error("denied flow leaked on retransmission")
	}
}

func TestSetupBreakdownRecorded(t *testing.T) {
	n, ctl, ha, hb := buildLine(t, `pass from any to any with eq(@src[name], skype)`)
	runSkypeFlow(t, n, ha, hb)
	if ctl.Setup.Total.Count() != 1 {
		t.Fatal("no setup breakdown recorded")
	}
	// Query RTT to hostB crosses two switch links + host link, doubled,
	// plus daemon processing: strictly greater than to hostA.
	if ctl.Setup.QueryDst.Max() <= ctl.Setup.QuerySrc.Max() {
		t.Errorf("query RTTs: src=%v dst=%v (dst is farther and must cost more)",
			ctl.Setup.QuerySrc.Max(), ctl.Setup.QueryDst.Max())
	}
	// One inter-switch link plus the host attachment link, both ways, plus
	// daemon processing.
	wantDst := 2*(n.DefaultLinkLatency+n.DefaultLinkLatency) + n.DaemonProcessing
	if ctl.Setup.QueryDst.Max() != wantDst {
		t.Errorf("dst RTT = %v, want %v", ctl.Setup.QueryDst.Max(), wantDst)
	}
}

func TestIdleTimeoutEvictsAndReinstalls(t *testing.T) {
	n := New()
	sw1 := n.AddSwitch("sw1", 0)
	ha := n.AddHost("hostA", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("hostB", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, sw1, 0)
	n.ConnectHost(hb, sw1, 0)
	ctl := core.New(core.Config{
		Name: "main", Policy: pf.MustCompile("p", `pass from any to any`),
		Transport: n.Transport(sw1, nil), Topology: n,
		InstallEntries: true, IdleTimeout: 100 * time.Millisecond,
		Clock: n.Clock.Now,
	})
	n.AttachController(ctl, sw1)
	u := ha.Info.AddUser("u")
	p := ha.Info.Exec(u, hostinfo.Executable{Path: "/bin/app", Name: "app"})
	five, err := ha.StartFlow(p.PID, hb.IP(), 80)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if sw1.SW.Table.Len() == 0 {
		t.Fatal("no entry installed")
	}
	// Idle long enough: entry evicted, controller notified.
	n.RunFor(time.Second)
	if sw1.SW.Table.Len() != 0 {
		t.Fatal("entry not evicted after idle timeout")
	}
	if ctl.Counters.Get("flow_removed") == 0 {
		t.Error("controller not notified of eviction")
	}
	// Next packet punts again.
	before := ctl.Counters.Get("packet_ins")
	ha.SendTCP(five, packet.TCPAck, nil)
	n.Run(0)
	if ctl.Counters.Get("packet_ins") != before+1 {
		t.Error("post-eviction packet did not punt")
	}
}

func TestPathAcrossThreeSwitches(t *testing.T) {
	n := New()
	s1 := n.AddSwitch("s1", 0)
	s2 := n.AddSwitch("s2", 0)
	s3 := n.AddSwitch("s3", 0)
	n.ConnectSwitches(s1, s2, 0)
	n.ConnectSwitches(s2, s3, 0)
	ha := n.AddHost("a", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("b", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, s1, 0)
	n.ConnectHost(hb, s3, 0)
	hops, err := n.Path(ha.IP(), hb.IP())
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 3 {
		t.Fatalf("hops = %v", hops)
	}
	if hops[0].Datapath != s1.SW.ID || hops[1].Datapath != s2.SW.ID || hops[2].Datapath != s3.SW.ID {
		t.Errorf("path order wrong: %v", hops)
	}
	// Same-switch path.
	hc := n.AddHost("c", netaddr.MustParseIP("10.0.0.3"))
	n.ConnectHost(hc, s1, 0)
	hops2, err := n.Path(ha.IP(), hc.IP())
	if err != nil {
		t.Fatal(err)
	}
	if len(hops2) != 1 || hops2[0].Datapath != s1.SW.ID {
		t.Errorf("same-switch path = %v", hops2)
	}
	// Unknown host.
	if _, err := n.Path(ha.IP(), netaddr.MustParseIP("9.9.9.9")); err == nil {
		t.Error("unknown host should fail")
	}
}

func TestPreemptiveInstallCoversWholePath(t *testing.T) {
	n := New()
	s1 := n.AddSwitch("s1", 0)
	s2 := n.AddSwitch("s2", 0)
	s3 := n.AddSwitch("s3", 0)
	n.ConnectSwitches(s1, s2, 0)
	n.ConnectSwitches(s2, s3, 0)
	ha := n.AddHost("a", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("b", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, s1, 0)
	n.ConnectHost(hb, s3, 0)
	ctl := core.New(core.Config{
		Name: "main", Policy: pf.MustCompile("p", `pass from any to any`),
		Transport: n.Transport(s1, nil), Topology: n,
		InstallEntries: true, Clock: n.Clock.Now,
	})
	n.AttachController(ctl, s1, s2, s3)
	u := ha.Info.AddUser("u")
	p := ha.Info.Exec(u, hostinfo.Executable{Path: "/bin/app", Name: "app"})
	if _, err := ha.StartFlow(p.PID, hb.IP(), 80); err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	// Only the first switch should have punted; s2/s3 got entries
	// preemptively (§3.1).
	if ctl.Counters.Get("packet_ins") != 1 {
		t.Errorf("packet_ins = %d, want 1", ctl.Counters.Get("packet_ins"))
	}
	for _, s := range []*SwitchNode{s1, s2, s3} {
		if s.SW.Table.Len() != 1 {
			t.Errorf("%s table len = %d, want 1", s.SW.Name, s.SW.Table.Len())
		}
	}
	if hb.ReceivedCount() != 1 {
		t.Errorf("delivered = %d", hb.ReceivedCount())
	}
}

func TestDaemonDisabledHostFailsClosed(t *testing.T) {
	n, ctl, ha, hb := buildLine(t, `
block all
pass from any to any with eq(@src[name], skype)
`)
	ha.DaemonEnabled = false
	runSkypeFlow(t, n, ha, hb)
	if ctl.Counters.Get("flows_denied") != 1 {
		t.Error("flow from daemon-less host should fail closed under block all")
	}
	if ctl.Counters.Get("query_errors") == 0 {
		t.Error("query error not counted")
	}
}

func TestInterceptionAugmentsAcrossZones(t *testing.T) {
	// Two zones: controller A owns s1, controller B owns s2. A query from
	// A's controller to hostB (attached to s2) crosses B's zone and gets
	// augmented.
	n := New()
	s1 := n.AddSwitch("s1", 0)
	s2 := n.AddSwitch("s2", 0)
	n.ConnectSwitches(s1, s2, 0)
	ha := n.AddHost("a", netaddr.MustParseIP("10.1.0.1"))
	hb := n.AddHost("b", netaddr.MustParseIP("10.2.0.1"))
	n.ConnectHost(ha, s1, 0)
	n.ConnectHost(hb, s2, 0)

	ctlB := core.New(core.Config{
		Name:      "B",
		Policy:    pf.MustCompile("pB", `pass from any to any`),
		Transport: n.Transport(s2, nil),
		Topology:  n, InstallEntries: true, Clock: n.Clock.Now,
	})
	ctlB.SetAugmenter(func(q wire.Query, resp *wire.Response) {
		resp.Augment("controller:B").Add("branch-ok", "yes")
	})
	n.AttachController(ctlB, s2)

	ctlA := core.New(core.Config{
		Name: "A",
		Policy: pf.MustCompile("pA", `
block all
pass from any to any with eq(@dst[branch-ok], yes)
`),
		Transport: n.Transport(s1, nil), Topology: n, InstallEntries: true, Clock: n.Clock.Now,
	})
	n.AttachController(ctlA, s1)

	u := ha.Info.AddUser("u")
	p := ha.Info.Exec(u, hostinfo.Executable{Path: "/bin/app", Name: "app"})
	bu := hb.Info.AddUser("svc")
	bp := hb.Info.Exec(bu, hostinfo.Executable{Path: "/bin/srv", Name: "srv"})
	if err := hb.Info.Listen(bp.PID, netaddr.ProtoTCP, 8080); err != nil {
		t.Fatal(err)
	}
	if _, err := ha.StartFlow(p.PID, hb.IP(), 8080); err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if ctlA.Counters.Get("flows_allowed") != 1 {
		t.Errorf("flow should pass thanks to B's augmentation; A counters: %s", ctlA.Counters)
	}
	if ctlB.Counters.Get("responses_augmented") == 0 {
		t.Error("B never augmented")
	}
	if hb.ReceivedCount() == 0 {
		t.Error("packet not delivered")
	}
}

func TestLinkStatsCount(t *testing.T) {
	n, _, ha, hb := buildLine(t, `pass from any to any`)
	five := runSkypeFlow(t, n, ha, hb)
	ha.SendTCP(five, packet.TCPAck, make([]byte, 500))
	n.Run(0)
	// Port 1 on sw1 is the inter-switch link (connected first).
	s1, _ := n.switches[1], n.switches[2]
	st := s1.Stats(1)
	if st.Frames != 2 {
		t.Errorf("inter-switch frames = %d, want 2", st.Frames)
	}
	if st.Bytes == 0 {
		t.Error("no bytes counted")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (int64, int) {
		n, ctl, ha, hb := buildLine(t, `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`)
		five := runSkypeFlow(t, n, ha, hb)
		for i := 0; i < 10; i++ {
			ha.SendTCP(five, packet.TCPAck, []byte("x"))
		}
		n.Run(0)
		return ctl.Counters.Get("packet_ins"), hb.ReceivedCount()
	}
	p1, r1 := run()
	p2, r2 := run()
	if p1 != p2 || r1 != r2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", p1, r1, p2, r2)
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	n, _, ha, hb := buildLine(t, `pass from any to any`)
	start := n.Clock.Now()
	runSkypeFlow(t, n, ha, hb)
	if !n.Clock.Now().After(start) {
		t.Error("virtual clock did not advance")
	}
}

func BenchmarkFlowSetupEndToEnd(b *testing.B) {
	n, _, ha, hb := buildLine(b, `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`)
	alice := ha.Info.AddUser("alice", "users")
	pa := ha.Info.Exec(alice, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	bob := hb.Info.AddUser("bob", "users")
	pb := hb.Info.Exec(bob, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	if err := hb.Info.Listen(pb.PID, netaddr.ProtoTCP, 5060); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		five, err := ha.StartFlow(pa.PID, hb.IP(), 5060)
		if err != nil {
			b.Fatal(err)
		}
		n.Run(0)
		ha.Info.Close(five)
	}
}
