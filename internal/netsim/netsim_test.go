package netsim

import (
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/wire"
)

// line builds hostA - sw1 - sw2 - hostB, closed when the test ends.
func line(t testing.TB) (n *Network, sw1, sw2 *SwitchNode, ha, hb *Host) {
	t.Helper()
	n = New()
	t.Cleanup(n.Close)
	sw1 = n.AddSwitch("sw1", 0)
	sw2 = n.AddSwitch("sw2", 0)
	n.ConnectSwitches(sw1, sw2)
	ha = n.AddHost("hostA", netaddr.MustParseIP("10.0.0.1"))
	hb = n.AddHost("hostB", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, sw1)
	n.ConnectHost(hb, sw2)
	return n, sw1, sw2, ha, hb
}

// buildLine is line with a controller attached to both switches.
func buildLine(t testing.TB, policy string) (*Network, *core.Controller, *Host, *Host) {
	t.Helper()
	n, sw1, sw2, ha, hb := line(t)
	ctl := n.Controller(core.Config{Name: "main", Policy: pf.MustCompile("policy", policy)}, sw1, sw2)
	return n, ctl, ha, hb
}

// lastEngine returns the query plane of the controller n built last.
func lastEngine(n *Network) *query.Engine {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lowers[len(n.lowers)-1].eng
}

// skypePair runs skype for alice on ha and for bob on hb, listening on
// 5060, and returns alice's process id.
func skypePair(t testing.TB, ha, hb *Host) int {
	t.Helper()
	alice := ha.Info.AddUser("alice", "users")
	pa := ha.Info.Exec(alice, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	bob := hb.Info.AddUser("bob", "users")
	pb := hb.Info.Exec(bob, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	if err := hb.Info.Listen(pb.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	return pa.PID
}

func runSkypeFlow(t testing.TB, n *Network, ha, hb *Host) flow.Five {
	t.Helper()
	five, err := ha.StartFlow(skypePair(t, ha, hb), hb.IP(), 5060)
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

// TestControllerHearsItsDaemons: a controller Network.Controller builds is
// subscribed to every daemon it asks, with no wiring of its own, so the exit
// of an allowed flow's process tears the flow down.
func TestControllerHearsItsDaemons(t *testing.T) {
	n, ctl, ha, hb := buildLine(t, `
block all
pass from any to any with eq(@src[name], skype)
`)
	pa := skypePair(t, ha, hb)
	if _, err := ha.StartFlow(pa, hb.IP(), 5060); err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if got := ctl.Counters.Get("flows_allowed"); got != 1 {
		t.Fatalf("flows_allowed = %d, want 1", got)
	}
	sw1, sw2 := n.switches[1], n.switches[2]
	if sw1.SW.Table.Len() == 0 || sw2.SW.Table.Len() == 0 {
		t.Fatalf("entries = %d, %d: the flow was not installed on its path", sw1.SW.Table.Len(), sw2.SW.Table.Len())
	}
	ha.Info.Kill(pa)
	n.Run(0)
	if got := ctl.Counters.Get("revocations_flows"); got != 1 {
		t.Errorf("revocations_flows = %d, want 1", got)
	}
	if sw1.SW.Table.Len() != 0 || sw2.SW.Table.Len() != 0 {
		t.Errorf("entries after the kill = %d, %d, want none", sw1.SW.Table.Len(), sw2.SW.Table.Len())
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
	// Both round trips crossed a TCP connection to the host's daemon: they
	// are measured, not computed, so neither is zero.
	src, dst := ctl.Setup.QuerySrc.Max(), ctl.Setup.QueryDst.Max()
	if src <= 0 || dst <= 0 {
		t.Errorf("query RTTs: src=%v dst=%v, want both measured", src, dst)
	}
	if total := ctl.Setup.Total.Max(); total < max(src, dst) {
		t.Errorf("setup total %v < slower query %v", total, max(src, dst))
	}
}

func TestIdleTimeoutEvictsAndReinstalls(t *testing.T) {
	n := New()
	t.Cleanup(n.Close)
	sw1 := n.AddSwitch("sw1", 0)
	ha := n.AddHost("hostA", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("hostB", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, sw1)
	n.ConnectHost(hb, sw1)
	ctl := n.Controller(core.Config{Name: "main", Policy: pf.MustCompile("p", `pass from any to any`)}, sw1)
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
	// Idle past the controller's 60 s entry timeout: entry evicted,
	// controller notified.
	n.RunFor(2 * time.Minute)
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
	t.Cleanup(n.Close)
	s1 := n.AddSwitch("s1", 0)
	s2 := n.AddSwitch("s2", 0)
	s3 := n.AddSwitch("s3", 0)
	n.ConnectSwitches(s1, s2)
	n.ConnectSwitches(s2, s3)
	ha := n.AddHost("a", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("b", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, s1)
	n.ConnectHost(hb, s3)
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
	n.ConnectHost(hc, s1)
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
	t.Cleanup(n.Close)
	s1 := n.AddSwitch("s1", 0)
	s2 := n.AddSwitch("s2", 0)
	s3 := n.AddSwitch("s3", 0)
	n.ConnectSwitches(s1, s2)
	n.ConnectSwitches(s2, s3)
	ha := n.AddHost("a", netaddr.MustParseIP("10.0.0.1"))
	hb := n.AddHost("b", netaddr.MustParseIP("10.0.0.2"))
	n.ConnectHost(ha, s1)
	n.ConnectHost(hb, s3)
	ctl := n.Controller(core.Config{Name: "main", Policy: pf.MustCompile("p", `pass from any to any`)}, s1, s2, s3)
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
	t.Cleanup(n.Close)
	s1 := n.AddSwitch("s1", 0)
	s2 := n.AddSwitch("s2", 0)
	n.ConnectSwitches(s1, s2)
	ha := n.AddHost("a", netaddr.MustParseIP("10.1.0.1"))
	hb := n.AddHost("b", netaddr.MustParseIP("10.2.0.1"))
	n.ConnectHost(ha, s1)
	n.ConnectHost(hb, s2)

	ctlB := n.Controller(core.Config{Name: "B", Policy: pf.MustCompile("pB", `pass from any to any`)}, s2)
	ctlB.SetAugmenter(func(q wire.Query, resp *wire.Response) {
		resp.Augment("controller:B").Add("branch-ok", "yes")
	})

	ctlA := n.Controller(core.Config{
		Name: "A",
		Policy: pf.MustCompile("pA", `
block all
pass from any to any with eq(@dst[branch-ok], yes)
`),
	}, s1)

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
	type outcome struct {
		counters map[string]int64
		audits   int64
		received int
		entries  int
	}
	run := func() outcome {
		n, sw1, sw2, ha, hb := line(t)
		ctl := n.Controller(core.Config{
			Name: "main",
			Policy: pf.MustCompile("policy", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`),
			ResponseCacheTTL: time.Hour,
		}, sw1, sw2)

		pa := skypePair(t, ha, hb)
		var flows []flow.Five
		for i := 0; i < 4; i++ {
			five, err := ha.StartFlow(pa, hb.IP(), 5060)
			if err != nil {
				t.Fatal(err)
			}
			n.Run(0)
			flows = append(flows, five)
		}
		for _, five := range flows {
			ha.SendTCP(five, packet.TCPAck, []byte("x"))
		}
		n.Run(0)

		// A revocation round shaped like E9, with the process killed
		// mid-run: packets are queued on both sides of the kill, and the
		// daemon's updates cross its TCP connection while they travel.
		for _, five := range flows {
			ha.SendTCP(five, packet.TCPAck, []byte("before"))
		}
		n.Schedule(func() { ha.Info.Kill(pa) })
		for _, five := range flows {
			ha.SendTCP(five, packet.TCPAck, []byte("after"))
		}
		n.Run(0)
		if torn := ctl.Counters.Get("revocations_flows"); torn != int64(len(flows)) {
			t.Errorf("revocations_flows = %d, want %d", torn, len(flows))
		}
		if live, _, _ := ctl.RevocationIndexStats(); live != 0 {
			t.Errorf("%d records outlived the kill", live)
		}
		return outcome{
			counters: ctl.Counters.Snapshot(),
			audits:   ctl.Audit.Total(),
			received: hb.ReceivedCount(),
			entries:  sw1.SW.Table.Len() + sw2.SW.Table.Len(),
		}
	}
	first, second := run(), run()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("non-deterministic:\n%+v\n%+v", first, second)
	}
}

// TestQueriesCrossTheWire: a decision's queries leave on the transport's
// pool and are answered by the hosts' daemon.Servers, and a query a zone
// controller intercepts never reaches the wire.
func TestQueriesCrossTheWire(t *testing.T) {
	const policy = `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`
	t.Run("daemons", func(t *testing.T) {
		// Three flows to hostB's listener. hostB answers at the listener's
		// scope, and the controller keeps that answer only once it has
		// handled hostB's hello, which the pool's reader hands it before
		// the answer behind it, as identctl's does: the first decision asks
		// both ends and keeps hostB's answer, and the other two ask only
		// hostA.
		n, sw1, sw2, ha, hb := line(t)
		ctl := n.Controller(core.Config{Name: "main", Policy: pf.MustCompile("policy", policy)}, sw1, sw2)
		eng := lastEngine(n)
		pa := skypePair(t, ha, hb)
		for i := 0; i < 3; i++ {
			if _, err := ha.StartFlow(pa, hb.IP(), 5060); err != nil {
				t.Fatal(err)
			}
			n.Run(0)
		}
		for name, want := range map[string]int64{
			"flows_allowed": 3, "revocations_hellos": 2, "scope_learned": 1, "scope_hits": 2,
		} {
			if got := ctl.Counters.Get(name); got != want {
				t.Errorf("%s = %d, want %d", name, got, want)
			}
		}
		if sent := eng.Counters.Get("pool_queries_sent"); sent != 4 {
			t.Errorf("pool_queries_sent = %d, want 4", sent)
		}
		if dials := eng.Counters.Get("pool_dials"); dials != 2 {
			t.Errorf("pool_dials = %d, want one connection per host", dials)
		}
		for h, want := range map[*Host]int64{ha: 3, hb: 1} {
			if h.server == nil {
				t.Errorf("%s: no daemon.Server started", h.Name)
			}
			if got := h.Daemon.Counters.Get("daemon_queries_answered"); got != want {
				t.Errorf("%s answered %d queries, want %d", h.Name, got, want)
			}
		}
	})
	t.Run("intercepted", func(t *testing.T) {
		// E8(b)'s shape: the controller answers for hostB itself, so the
		// query for it stops in the controller's own zone.
		n, sw1, sw2, ha, hb := line(t)
		ctl := n.Controller(core.Config{Name: "main", Policy: pf.MustCompile("policy", policy)}, sw1, sw2)
		ctl.AnswerForHost(hb.IP(), wire.KV{Key: wire.KeyName, Value: "skype"})
		eng := lastEngine(n)
		runSkypeFlow(t, n, ha, hb)
		if got := ctl.Counters.Get("queries_intercepted"); got != 1 {
			t.Errorf("queries_intercepted = %d, want 1", got)
		}
		if sent := eng.Counters.Get("pool_queries_sent"); sent != 1 {
			t.Errorf("pool_queries_sent = %d, want only the source's", sent)
		}
		if hb.server != nil || hb.Daemon.Counters.Get("daemon_queries_answered") != 0 {
			t.Error("the intercepted query reached hostB's daemon")
		}
	})
}

func TestNetworkCloseReleasesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	n, ctl, ha, hb := buildLine(t, `pass from any to any with eq(@src[name], skype)`)
	runSkypeFlow(t, n, ha, hb)
	if ctl.Counters.Get("flows_allowed") != 1 {
		t.Fatalf("counters: %s", ctl.Counters)
	}
	addrs := []string{ha.addr, hb.addr}
	n.Close()
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after Close", addr)
		}
	}
	// The pool's connection goroutines see their sockets closed and exit.
	waitGoroutines(t, before)
	n.Close()
	waitGoroutines(t, before)
}

// waitGoroutines waits up to five seconds for the goroutine count to fall
// to want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
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

// TestRunWaitsForDecisionsInFlight: a decision finishes on the pool's
// connection reader, after the event that punted it has returned. With the
// destination daemon's answer held until a timer releases it, Run returns
// only after the release; the flow's packet is then delivered; and the
// source's answer alone, delivered long before, did not finish the decision.
func TestRunWaitsForDecisionsInFlight(t *testing.T) {
	n, sw1, sw2, ha, hb := line(t)
	ctl := n.Controller(core.Config{
		Name: "main",
		Policy: pf.MustCompile("policy", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`),
	}, sw1, sw2)
	eng := lastEngine(n)
	pid := skypePair(t, ha, hb)

	release := make(chan struct{})
	hb.Daemon.SetForge(func(_ wire.Query, honest *wire.Response) *wire.Response {
		<-release
		return honest
	})
	// The network closes only once the answer is released, whenever Run
	// returned.
	t.Cleanup(func() { <-release })
	var released atomic.Bool
	var decidedBeforeRelease atomic.Int64
	time.AfterFunc(50*time.Millisecond, func() {
		defer close(release)
		deadline := time.Now().Add(5 * time.Second)
		for !srcAnswered(eng, ha.IP()) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if srcAnswered(eng, ha.IP()) {
			decidedBeforeRelease.Store(ctl.Counters.Get("flows_allowed") + ctl.Counters.Get("flows_denied"))
		} else {
			decidedBeforeRelease.Store(-1)
		}
		released.Store(true)
	})

	five, err := ha.StartFlow(pid, hb.IP(), 5060)
	if err != nil {
		t.Fatal(err)
	}
	n.Run(0)
	if !released.Load() {
		t.Fatal("Run returned while the destination's answer was still held")
	}
	switch got := decidedBeforeRelease.Load(); got {
	case -1:
		t.Fatal("the source's answer was never delivered")
	case 0:
	default:
		t.Errorf("%d decisions finished on the source's answer alone, want 0", got)
	}
	if got := ctl.Counters.Get("flows_allowed"); got != 1 {
		t.Errorf("flows_allowed = %d, want 1", got)
	}
	if got := hb.ReceivedFlows()[five]; got != 1 {
		t.Errorf("packets of the flow delivered = %d when Run returned, want 1", got)
	}
}

// srcAnswered reports whether eng has delivered an answer from host.
func srcAnswered(eng *query.Engine, host netaddr.IP) bool {
	for _, hs := range eng.HostStats() {
		if hs.Host == host && hs.Queries > 0 {
			return true
		}
	}
	return false
}
