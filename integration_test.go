package identxx_bench

import (
	"sync"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/openflow"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/workload"
)

// tcpTopo is a single-switch topology for the all-TCP integration test.
type tcpTopo struct {
	ports map[netaddr.IP]uint16
}

func (t *tcpTopo) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	return []core.Hop{{Datapath: 1, OutPort: t.ports[dst]}}, nil
}

// recordingSink collects frames a switch transmits, keyed by port.
type recordingSink struct {
	mu sync.Mutex
	tx map[uint16]int
}

func (r *recordingSink) Transmit(_ *openflow.Switch, port uint16, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tx == nil {
		r.tx = make(map[uint16]int)
	}
	r.tx[port]++
}

func (r *recordingSink) count(port uint16) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tx[port]
}

// TestAllTCPIntegration exercises the complete real-socket stack: an
// OpenFlow switch attached to the controller over the binary TCP secure
// channel, and end-host daemons answering ident++ queries over TCP port
// assignments on loopback. No simulator components are involved.
func TestAllTCPIntegration(t *testing.T) {
	clientIP := netaddr.MustParseIP("10.0.0.1")
	serverIP := netaddr.MustParseIP("10.0.0.2")

	// End hosts: real hostinfo + real TCP daemons.
	clientHost := hostinfo.New("client", clientIP, 0x0a)
	serverHost := hostinfo.New("server", serverIP, 0x0b)
	alice := clientHost.AddUser("alice", "users")
	skypeProc := clientHost.Exec(alice, workload.Skype.Exe())
	exfilProc := clientHost.Exec(alice, hostinfo.Executable{Path: "/tmp/exfil", Name: "exfil", Version: "1"})
	web := serverHost.AddSystemUser("www")
	webProc := serverHost.Exec(web, workload.HTTPD.Exe())
	if err := serverHost.Listen(webProc.PID, netaddr.ProtoTCP, 80); err != nil {
		t.Fatal(err)
	}
	dClient := daemon.NewServer(daemon.New(clientHost))
	aClient, err := dClient.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dClient.Close()
	dServer := daemon.NewServer(daemon.New(serverHost))
	aServer, err := dServer.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dServer.Close()

	// The query plane over both daemons, then the controller behind a TCP
	// channel server.
	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{
		clientIP: aClient.String(),
		serverIP: aServer.String(),
	}})
	defer pool.Close()
	eng := query.NewEngine(query.Config{Lower: pool})
	defer eng.Close()
	ctl := eng.Controller(core.Config{
		Name: "integration",
		Policy: pf.MustCompile("p", `
block all
pass from any to any with eq(@src[name], skype) keep state
`),
		Topology: &tcpTopo{ports: map[netaddr.IP]uint16{clientIP: 1, serverIP: 2}},
	})
	chSrv := openflow.NewChannelServer(ctl)
	chAddr, err := chSrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer chSrv.Close()

	// The switch, connected over the secure channel.
	sink := &recordingSink{}
	sw := openflow.NewSwitch(1, "s1", 0)
	sw.AddPort(1)
	sw.AddPort(2)
	sw.SetTransmitter(sink)
	agent, err := openflow.Connect(sw, chAddr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// An allowed flow: skype's connection, registered in the client OS.
	five, err := clientHost.Connect(skypeProc.PID, flow.Five{
		DstIP: serverIP, Proto: netaddr.ProtoTCP, DstPort: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame := packet.TCPFrame(clientHost.MAC, serverHost.MAC, five, packet.TCPSyn, nil)
	sw.Receive(1, frame)

	waitFor(t, "allowed flow forwarded", func() bool { return sink.count(2) == 1 })
	if got := ctl.Counters.Get("flows_allowed"); got != 1 {
		t.Fatalf("flows_allowed = %d; counters: %s", got, ctl.Counters)
	}

	// Cached: a second packet is forwarded without another packet-in.
	punts := sw.Stats.PacketIns.Load()
	sw.Receive(1, packet.TCPFrame(clientHost.MAC, serverHost.MAC, five, packet.TCPAck, []byte("hi")))
	waitFor(t, "cached flow forwarded", func() bool { return sink.count(2) == 2 })
	if sw.Stats.PacketIns.Load() != punts {
		t.Error("cached flow still punted")
	}

	// A denied flow: the exfil tool from the same user and host.
	five2, err := clientHost.Connect(exfilProc.PID, flow.Five{
		DstIP: serverIP, Proto: netaddr.ProtoTCP, DstPort: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.Receive(1, packet.TCPFrame(clientHost.MAC, serverHost.MAC, five2, packet.TCPSyn, nil))
	waitFor(t, "denied flow decided", func() bool { return ctl.Counters.Get("flows_denied") == 1 })
	if sink.count(2) != 2 {
		t.Errorf("denied flow leaked: port-2 tx = %d", sink.count(2))
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestEnterpriseScale drives a 3x5-station enterprise tree with the Figure 2
// policy family through 300 generated flows and checks global invariants:
// deterministic outcomes across runs, no policy diagnostics, audit/counter
// consistency, and denied flows never reaching servers.
func TestEnterpriseScale(t *testing.T) {
	run := func() (allowed, denied int64, audits int64) {
		n := netsim.New()
		defer n.Close()
		tree := workload.BuildTree(n, 3, 5)
		policy := pf.MustCompile("enterprise", `
table <net> { 10.0.0.0/8 }
block all
pass from <net> to <net> with eq(@src[name], skype) with eq(@dst[name], skype) keep state
pass from <net> to <net> port 80 with eq(@src[name], firefox) keep state
pass from <net> to <net> port 22 with eq(@src[name], ssh) keep state
pass from <net> to <net> port 25 with eq(@src[name], thunderbird) keep state
`)
		ctl := n.Controller(core.Config{Name: "enterprise", Policy: policy, ResponseCacheTTL: time.Second}, tree.Root, tree.Edges...)

		gen := workload.NewGenerator(tree, 2009)
		for i := 0; i < 300; i++ {
			if err := gen.Open(gen.Next()); err != nil {
				t.Fatal(err)
			}
			n.Run(0)
		}
		return ctl.Counters.Get("flows_allowed"), ctl.Counters.Get("flows_denied"), ctl.Audit.Total()
	}
	a1, d1, t1 := run()
	a2, d2, t2 := run()
	if a1 != a2 || d1 != d2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, d1, t1, a2, d2, t2)
	}
	if a1 == 0 {
		t.Error("no flows allowed — policy or workload broken")
	}
	if d1 == 0 {
		t.Error("no flows denied — dropbox traffic should be blocked")
	}
	if t1 != a1+d1 {
		t.Errorf("audit total %d != allowed %d + denied %d", t1, a1, d1)
	}
}
