package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

func TestParseTopology(t *testing.T) {
	topo, err := parseTopology(`
# comment
host 10.0.0.1 switch 1 port 2 daemon 10.0.0.1:783
host 10.0.0.2 switch 1 port 3
`)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := topo.Path(netaddr.MustParseIP("10.0.0.2"), netaddr.MustParseIP("10.0.0.1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].Datapath != 1 || hops[0].OutPort != 2 {
		t.Errorf("path = %+v", hops)
	}
	if p := topo.hosts[netaddr.MustParseIP("10.0.0.1")]; p.daemon != "10.0.0.1:783" {
		t.Errorf("daemon addr = %q", p.daemon)
	}
	if p := topo.hosts[netaddr.MustParseIP("10.0.0.2")]; p.daemon != "" {
		t.Errorf("daemonless host has addr %q", p.daemon)
	}
	if _, err := topo.Path(0, netaddr.MustParseIP("9.9.9.9")); err == nil {
		t.Error("unknown destination should fail")
	}
}

func TestParseTopologyErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"host 10.0.0.1 switch 1",
		"host bogus switch 1 port 2",
		"host 10.0.0.1 switch x port 2",
		"host 10.0.0.1 switch 1 port x",
		"peer 10.0.0.1 switch 1 port 2",
	} {
		if _, err := parseTopology(src); err == nil {
			t.Errorf("parseTopology(%q) should fail", src)
		}
	}
}

func TestAdminCommands(t *testing.T) {
	tr := nullTransport{}
	ctl := core.New(core.Config{
		Name:             "admin-test",
		Policy:           pf.MustCompile("p", "block all\npass from any to any with eq(@src[name], skype)"),
		Transport:        tr,
		Topology:         &sinkTopo{},
		InstallEntries:   true,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
	})
	ctl.AddDatapath(&sinkDatapath{id: 1})
	five := flow.Five{
		SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80,
	}
	ctl.HandleEvent(openflow.PacketIn{
		SwitchID: 1, BufferID: openflow.BufferNone, InPort: 1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   five.SrcIP, DstIP: five.DstIP, Proto: five.Proto,
			SrcPort: five.SrcPort, DstPort: five.DstPort,
		},
	})

	// The verdict is cached, so its one dependency record is its class's.
	if got := adminCommand(adminState{ctl: ctl}, "stats"); got != "ok live=0 registered=0 dropped=0" {
		t.Errorf("stats = %q", got)
	}
	if got := adminCommand(adminState{ctl: ctl}, "stats wide"); got != "ok live=1 registered=1 dropped=0" {
		t.Errorf("stats wide = %q", got)
	}
	if got := adminCommand(adminState{ctl: ctl}, "revoke 10.0.0.1 name"); got != "ok 1" {
		t.Errorf("revoke = %q", got)
	}
	if got := adminCommand(adminState{ctl: ctl}, "revoke 10.0.0.1"); got != "ok 0" {
		t.Errorf("second revoke = %q", got)
	}
	if got := adminCommand(adminState{ctl: ctl}, "sweep"); got != "ok 0" {
		t.Errorf("sweep = %q", got)
	}
	for _, bad := range []string{"", "revoke", "revoke bogus", "revoke 1.2.3.4 k extra", "frobnicate"} {
		if got := adminCommand(adminState{ctl: ctl}, bad); len(got) < 3 || got[:3] != "err" {
			t.Errorf("adminCommand(%q) = %q, want err", bad, got)
		}
	}
}

// TestAdminOverTCP drives the listener + client round trip.
func TestAdminOverTCP(t *testing.T) {
	ctl := core.New(core.Config{
		Name:       "admin-tcp",
		Policy:     pf.MustCompile("p", "block all"),
		Transport:  nullTransport{},
		Topology:   &sinkTopo{},
		Revocation: true,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serveAdmin(l, adminState{ctl: ctl}).Close()
	reply, err := adminRoundTrip(l.Addr().String(), "revoke 10.0.0.9")
	if err != nil {
		t.Fatal(err)
	}
	if reply != "ok 0" {
		t.Errorf("reply = %q", reply)
	}
}

type nullTransport struct{}

func (nullTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	r := wire.NewResponse(q.Flow)
	r.Add(wire.KeyName, "skype")
	return r, 0, nil
}

type sinkTopo struct{}

func (sinkTopo) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	return []core.Hop{{Datapath: 1, OutPort: 2}}, nil
}

type sinkDatapath struct{ id uint64 }

func (d *sinkDatapath) DatapathID() uint64                  { return d.id }
func (d *sinkDatapath) Apply(openflow.FlowMod) error        { return nil }
func (d *sinkDatapath) PacketOut(port uint16, frame []byte) {}
func (d *sinkDatapath) ReleaseBuffer(id uint32)             {}

// TestAdminRing drives the cluster drill-down: listing, the self line's
// counters, the drop form, and the error without a router.
func TestAdminRing(t *testing.T) {
	ctl := core.New(core.Config{
		Name:             "a",
		Policy:           pf.MustCompile("p", "pass all"),
		Transport:        nullTransport{},
		Topology:         &sinkTopo{},
		ResponseCacheTTL: time.Hour,
	})
	ctl.AddDatapath(&sinkDatapath{id: 1})
	rt := cluster.NewRouter(ctl, cluster.Member{ID: "a", Addr: "127.0.0.1:1"}, cluster.Options{})
	if err := rt.SetMembers([]cluster.Member{
		{ID: "a", Addr: "127.0.0.1:1"}, {ID: "b", Addr: "127.0.0.1:2"},
	}); err != nil {
		t.Fatal(err)
	}

	if got := adminCommand(adminState{ctl: ctl}, "ring"); !strings.HasPrefix(got, "err") {
		t.Errorf("ring without a router = %q, want err", got)
	}

	got := adminCommand(adminState{ctl: ctl, rt: rt}, "ring")
	lines := strings.Split(got, "\n")
	if lines[0] != "ok 2" {
		t.Fatalf("ring head = %q, want ok 2", lines[0])
	}
	var selfLine string
	for _, l := range lines[1:] {
		if strings.Contains(l, "self=true") {
			selfLine = l
		}
	}
	for _, field := range []string{"replica=a", "share=", "owned=", "forwarded=", "fallbacks=", "epoch="} {
		if !strings.Contains(selfLine, field) {
			t.Errorf("self line %q missing %s", selfLine, field)
		}
	}

	got = adminCommand(adminState{ctl: ctl, rt: rt}, "ring drop b")
	if !strings.HasPrefix(got, "ok 1\n") {
		t.Errorf("ring drop = %q, want 1-member listing", got)
	}
	if got := adminCommand(adminState{ctl: ctl, rt: rt}, "ring bogus"); !strings.HasPrefix(got, "err") {
		t.Errorf("ring bogus = %q, want err", got)
	}
}

// A switch whose connection closes is deregistered — directly, or through the
// ownership router — so the controller stops counting installs to it as
// errors; and it is back once it reconnects.
func TestSwitchDisconnectDeregistersDatapath(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		ctl := core.New(core.Config{
			Name:      "a",
			Policy:    pf.MustCompile("p", "block all"),
			Transport: nullTransport{},
			Topology:  &sinkTopo{},
		})
		h := channelHandler{ctl}
		if clustered {
			h.front = cluster.NewRouter(ctl, cluster.Member{ID: "a"}, cluster.Options{})
		}
		server := openflow.NewChannelServer(h)
		addr, err := server.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		waitCount := func(want int) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); ctl.DatapathCount() != want; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("clustered=%v: %d datapaths, want %d", clustered, ctl.DatapathCount(), want)
				}
			}
		}
		for round := 0; round < 2; round++ {
			agent, err := openflow.Connect(openflow.NewSwitch(5, "s5", 0), addr.String(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			waitCount(1)
			agent.Close()
			waitCount(0)
		}
		server.Close()
	}
}

// heldTransport answers every query as nullTransport does but holds the
// completion until release, which runs the held completions on the caller:
// decisions stay in flight while their switch channel reads on.
type heldTransport struct {
	nullTransport
	mu      sync.Mutex
	held    []func()
	arrived chan struct{} // one per query held
}

func (t *heldTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	resp, rtt, err := t.Query(host, q)
	t.mu.Lock()
	t.held = append(t.held, func() { done(resp, rtt, err) })
	t.mu.Unlock()
	t.arrived <- struct{}{}
}

// waitHeld returns once n more queries are held.
func (t *heldTransport) waitHeld(tb testing.TB, n int) {
	tb.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-t.arrived:
		case <-time.After(5 * time.Second):
			tb.Fatalf("%d of %d queries held", i, n)
		}
	}
}

func (t *heldTransport) release() {
	t.mu.Lock()
	held := t.held
	t.held = nil
	t.mu.Unlock()
	for _, done := range held {
		done()
	}
}

// txLog hands every frame the switch transmits to the test.
type txLog chan []byte

func (l txLog) Transmit(_ *openflow.Switch, _ uint16, frame []byte) { l <- bytes.Clone(frame) }

// TestSwitchChannelFrameOutlivesTheNextRead: the switch channel reads every
// message into one reused buffer, so a packet-in's frame is overwritten by
// the next message while a decision suspended on its queries still has to
// send that frame. With entries off a pass verdict is a packet-out of the
// frame itself — the owner's from its decision, a parked duplicate's from
// the waiter list — so each must come back byte for byte as the switch sent
// it, though other packet-ins crossed the channel while it was held.
func TestSwitchChannelFrameOutlivesTheNextRead(t *testing.T) {
	topo, err := parseTopology("host 10.0.0.1 switch 1 port 1\nhost 10.0.0.2 switch 1 port 2\n")
	if err != nil {
		t.Fatal(err)
	}
	tr := &heldTransport{arrived: make(chan struct{}, 16)}
	ctl := core.New(core.Config{
		Name:         "identctl",
		Policy:       pf.MustCompile("p", "block all\npass from any to any with eq(@src[name], skype)"),
		Transport:    tr,
		Topology:     topo,
		AsyncQueries: true,
	})
	server := openflow.NewChannelServer(channelHandler{ctl})
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	sw := openflow.NewSwitch(1, "s1", 64)
	sent := make(txLog, 16)
	sw.SetTransmitter(sent)
	agent, err := openflow.Connect(sw, addr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	for deadline := time.Now().Add(5 * time.Second); ctl.DatapathCount() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("switch never registered")
		}
	}

	// Every frame is the same size with a payload of its own, so a frame read
	// over by a later one would come back as that one.
	frameOf := func(sp netaddr.Port, label string) []byte {
		five := flow.Five{
			SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
			Proto: netaddr.ProtoTCP, SrcPort: sp, DstPort: 80,
		}
		return packet.TCPFrame(netaddr.MAC(1), netaddr.MAC(2), five, 0x02, []byte(label))
	}
	owner, dup := frameOf(40000, "owner-00"), frameOf(40000, "parked-0")
	want := [][]byte{owner, dup}

	sw.Receive(1, owner)
	tr.waitHeld(t, 2)
	sw.Receive(1, dup) // the same flow: parks on the held decision
	const others = 4
	for i := 0; i < others; i++ {
		f := frameOf(netaddr.Port(40001+i), fmt.Sprintf("other-%02d", i))
		want = append(want, f)
		sw.Receive(1, f)
	}
	// The channel is read in order: once the last flow's queries are held,
	// every packet-in before it went through the one buffer.
	tr.waitHeld(t, 2*others)
	if n := ctl.Counters.Get("duplicate_packet_ins"); n != 1 {
		t.Fatalf("duplicate_packet_ins = %d, want the one parked", n)
	}

	tr.release()
	var got [][]byte
	for len(got) < len(want) {
		select {
		case f := <-sent:
			got = append(got, f)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d frames transmitted", len(got), len(want))
		}
	}
	for _, w := range want {
		n := 0
		for _, g := range got {
			if bytes.Equal(g, w) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("frame with payload %q transmitted %d times, want once", w[len(w)-8:], n)
		}
	}
}
