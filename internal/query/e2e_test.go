package query_test

// End-to-end: a core.Controller in asynchronous mode drives the full
// production query plane — query.Engine over query.Pool — against real
// daemon.Server instances on loopback TCP sockets, exercising the §2
// pipeline (packet-in → two endpoint queries on port "783" → PF+=2 verdict
// → flow entries) with none of the simulator in the loop.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

// e2eDatapath is a minimal thread-safe datapath sink.
type e2eDatapath struct {
	id       uint64
	mu       sync.Mutex
	mods     []openflow.FlowMod
	released []uint32
}

func (d *e2eDatapath) DatapathID() uint64 { return d.id }
func (d *e2eDatapath) Apply(m openflow.FlowMod) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mods = append(d.mods, m)
	return nil
}
func (d *e2eDatapath) ReleaseBuffer(id uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.released = append(d.released, id)
}
func (d *e2eDatapath) modCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.mods)
}

type e2eTopo struct{ hops []core.Hop }

func (t *e2eTopo) Path(src, dst netaddr.IP) ([]core.Hop, error) { return t.hops, nil }

// e2eHost is one end-host: hostinfo + daemon + TCP server.
type e2eHost struct {
	ip   netaddr.IP
	info *hostinfo.Host
	proc *hostinfo.Process
	d    *daemon.Daemon
	srv  *daemon.Server
	addr string
}

func startHost(t *testing.T, name, ip string, app workload.App, user string) *e2eHost {
	t.Helper()
	h := &e2eHost{ip: netaddr.MustParseIP(ip)}
	h.info = hostinfo.New(name, h.ip, netaddr.MAC(1))
	u := h.info.AddUser(user, "users")
	h.proc = h.info.Exec(u, app.Exe())
	h.d = daemon.New(h.info)
	h.d.InstallConfig(&daemon.ConfigFile{Apps: []*daemon.AppConfig{{
		Path:  app.Path,
		Pairs: []wire.KV{{Key: wire.KeyName, Value: app.Name}},
	}}}, true)
	h.srv = daemon.NewServer(h.d)
	addr, err := h.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.addr = addr.String()
	t.Cleanup(func() { h.srv.Close() })
	return h
}

func packetIn(five flow.Five, swID uint64, buf uint32) openflow.PacketIn {
	return openflow.PacketIn{
		SwitchID: swID,
		BufferID: buf,
		InPort:   1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   five.SrcIP, DstIP: five.DstIP, Proto: five.Proto,
			SrcPort: five.SrcPort, DstPort: five.DstPort,
		},
	}
}

func waitCounter(t *testing.T, c interface{ Get(string) int64 }, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Get(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s >= %d (have %d)", name, want, c.Get(name))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE2EAsyncControllerOverTCP runs the whole stack: an allowed flow
// between two daemon'd hosts, a denied flow (wrong application), and an
// answer-on-behalf flow to a daemon-less device — all decided through the
// asynchronous query plane over real sockets.
func TestE2EAsyncControllerOverTCP(t *testing.T) {
	src := startHost(t, "client", "10.2.0.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.2.0.2", workload.Skype, "bob")
	printer := netaddr.MustParseIP("10.2.0.9") // no server anywhere

	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{
		src.ip: src.addr,
		dst.ip: dst.addr,
		// The printer is absent on purpose: the resolver itself reports it
		// daemon-less, the §4 registered-legacy-device shape.
	}})
	t.Cleanup(func() { pool.Close() })
	eng := query.NewEngine(query.Config{Lower: pool})
	t.Cleanup(eng.Close)

	dp := &e2eDatapath{id: 1}
	ctl := eng.Controller(core.Config{
		Name: "e2e",
		Policy: pf.MustCompile("e2e", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
pass from any to any port 631 with eq(@dst[type], printer)
`),
		Topology:         &e2eTopo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
	})
	ctl.AddDatapath(dp)
	ctl.AnswerForHost(printer, wire.KV{Key: wire.KeyType, Value: "printer"})

	// Register a live flow on each daemon so name lookups resolve.
	skypeFlow := flow.Five{
		SrcIP: src.ip, DstIP: dst.ip,
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 5060,
	}
	connected, err := src.info.Connect(src.proc.PID, skypeFlow)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}

	// Allowed flow: both daemons report skype.
	// The decision finishes on a daemon connection's reader, which counts
	// the verdict before it installs: wait for the install's own counter.
	ctl.HandleEvent(packetIn(connected, 1, 1))
	waitCounter(t, ctl.Counters, "entries_installed", 1)
	if n := ctl.Counters.Get("flows_allowed"); n != 1 || dp.modCount() == 0 {
		t.Fatalf("flows_allowed = %d, %d mods: want the allowed flow's entries installed", n, dp.modCount())
	}

	// Denied flow: same hosts, a port no registered process owns — the
	// daemons answer, the policy finds no skype, block all wins.
	other := flow.Five{
		SrcIP: src.ip, DstIP: dst.ip,
		Proto: netaddr.ProtoTCP, SrcPort: 40001, DstPort: 9999,
	}
	ctl.HandleEvent(packetIn(other, 1, 2))
	waitCounter(t, ctl.Counters, "flows_denied", 1)

	// Daemon-less device: no daemon address → ErrNoDaemon → the
	// controller answers on the printer's behalf and the flow passes.
	toPrinter := flow.Five{
		SrcIP: src.ip, DstIP: printer,
		Proto: netaddr.ProtoTCP, SrcPort: 40002, DstPort: 631,
	}
	ctl.HandleEvent(packetIn(toPrinter, 1, 3))
	waitCounter(t, ctl.Counters, "flows_allowed", 2)
	if ctl.Counters.Get("answered_on_behalf") != 1 {
		t.Errorf("answered_on_behalf = %d, want 1", ctl.Counters.Get("answered_on_behalf"))
	}

	// A second flow to the printer costs a resolver lookup: no dial, still
	// answered on behalf.
	dialsBefore := pool.Counters.Get("pool_dials") + pool.Counters.Get("pool_dial_errors") + pool.Counters.Get("pool_dial_backoff_fastfails")
	toPrinter2 := toPrinter
	toPrinter2.SrcPort = 40003
	ctl.HandleEvent(packetIn(toPrinter2, 1, 4))
	waitCounter(t, ctl.Counters, "flows_allowed", 3)
	dialsAfter := pool.Counters.Get("pool_dials") + pool.Counters.Get("pool_dial_errors") + pool.Counters.Get("pool_dial_backoff_fastfails")
	if dialsAfter != dialsBefore {
		t.Errorf("daemon-less host touched the dialer (%d -> %d)", dialsBefore, dialsAfter)
	}

	// The wire transport multiplexed everything over one connection per
	// live host.
	if dials := pool.Counters.Get("pool_dials"); dials != 2 {
		t.Errorf("pool_dials = %d, want 2 (one per daemon'd host)", dials)
	}
}

// TestE2EConcurrentFlowsThroughQueryPlane floods the controller with many
// distinct flows between the same two hosts: every decision must land, and
// the transport must keep to its two pipelined connections.
func TestE2EConcurrentFlowsThroughQueryPlane(t *testing.T) {
	src := startHost(t, "client", "10.3.0.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.3.0.2", workload.HTTPD, "bob")

	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{
		src.ip: src.addr,
		dst.ip: dst.addr,
	}})
	t.Cleanup(func() { pool.Close() })
	eng := query.NewEngine(query.Config{Lower: pool})
	t.Cleanup(eng.Close)

	dp := &e2eDatapath{id: 1}
	ctl := eng.Controller(core.Config{
		Name:     "e2e-flood",
		Policy:   pf.MustCompile("e2e", "block from any to any with eq(@src[name], no-such-app)"),
		Topology: &e2eTopo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
	})
	ctl.AddDatapath(dp)

	const flows = 64
	var buf atomic.Uint32
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := flow.Five{
				SrcIP: src.ip, DstIP: dst.ip,
				Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(10000 + i), DstPort: 80,
			}
			ctl.HandleEvent(packetIn(f, 1, buf.Add(1)))
		}(i)
	}
	wg.Wait()
	waitCounter(t, ctl.Counters, "flows_allowed", flows)
	if dials := pool.Counters.Get("pool_dials"); dials != 2 {
		t.Errorf("pool_dials = %d, want 2 (pipelining under concurrency)", dials)
	}
}
