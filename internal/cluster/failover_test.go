package cluster

// Satellite acceptance for the scale-out PR: replica failover loses zero
// revocations. Two replicas, each running the full production query plane
// (query.Engine over query.Pool against real daemon.Server instances on
// loopback TCP), split ownership of four live flows installed on a shared
// real switch. The owning replica of half the flows dies; endpoint facts
// then change (the source process exits) while those flows are
// unsupervised; the survivor takes over. Conservation means every flow
// stops forwarding: the survivor's own flows are torn down by the daemon
// push it is subscribed for, and the dead replica's flows are deleted by
// its installer tag at takeover so their next packet re-decides — and is
// denied — under current endpoint state. Failover is resubscribe, not
// restart.

import (
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

type failoverHost struct {
	ip   netaddr.IP
	info *hostinfo.Host
	proc *hostinfo.Process
	addr string
	d    *daemon.Daemon
}

func startFailoverHost(t *testing.T, name, ip, user string) *failoverHost {
	t.Helper()
	h := &failoverHost{ip: netaddr.MustParseIP(ip)}
	h.info = hostinfo.New(name, h.ip, netaddr.MAC(1))
	u := h.info.AddUser(user, "users")
	h.proc = h.info.Exec(u, workload.Skype.Exe())
	d := daemon.New(h.info)
	h.d = d
	d.InstallConfig(&daemon.ConfigFile{Apps: []*daemon.AppConfig{{
		Path:  workload.Skype.Path,
		Pairs: []wire.KV{{Key: wire.KeyName, Value: workload.Skype.Name}},
	}}}, true)
	srv := daemon.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.addr = addr.String()
	t.Cleanup(func() { srv.Close() })
	return h
}

// failoverReplica is one full controller replica: pool, engine, controller.
type failoverReplica struct {
	pool *query.Pool
	eng  *query.Engine
	ctl  *core.Controller
}

func startFailoverReplica(t *testing.T, name string, resolver query.StaticResolver) *failoverReplica {
	t.Helper()
	r := &failoverReplica{}
	r.pool = query.NewPool(query.PoolConfig{Resolver: resolver})
	t.Cleanup(func() { r.pool.Close() })
	r.eng = query.NewEngine(query.Config{Lower: r.pool})
	t.Cleanup(r.eng.Close)
	r.ctl = core.New(core.Config{
		Name: name,
		Policy: pf.MustCompile(name, `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`),
		Transport:        r.eng,
		Topology:         hopTopo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL: time.Hour,
	})
	if !r.eng.SetUpdateHandler(r.ctl.HandleUpdate) {
		t.Fatal("engine lower does not push updates")
	}
	return r
}

// TestFailoverLosesNoRevocations runs over both kinds of datapath: the
// in-process switch, and the same switch behind a real secure channel to
// each replica (a RemoteSwitch per replica, as production has), whose table
// the controller cannot read — the takeover has to work without it.
func TestFailoverLosesNoRevocations(t *testing.T) {
	t.Run("in-process", func(t *testing.T) {
		testFailoverLosesNoRevocations(t, func(t *testing.T, sw *openflow.Switch, r *Router) {
			r.Local().AddDatapath(sw)
		})
	})
	t.Run("tcp", func(t *testing.T) { testFailoverLosesNoRevocations(t, attachOverTCP) })
}

// attachOverTCP connects sw to r over a secure channel of its own, and
// returns once r's controller has registered the RemoteSwitch.
func attachOverTCP(t *testing.T, sw *openflow.Switch, r *Router) {
	t.Helper()
	srv := openflow.NewChannelServer(r)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	agent, err := openflow.Connect(sw, addr.String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	waitUntil(t, "switch registered", func() bool { return r.Local().DatapathCount() == 1 })
}

func testFailoverLosesNoRevocations(t *testing.T, attach func(*testing.T, *openflow.Switch, *Router)) {
	src := startFailoverHost(t, "client", "10.14.0.1", "alice")
	dst := startFailoverHost(t, "server", "10.14.0.2", "bob")
	resolver := query.StaticResolver{src.ip: src.addr, dst.ip: dst.addr}

	repA := startFailoverReplica(t, "A", resolver)
	repB := startFailoverReplica(t, "B", resolver)

	var ra, rb *Router
	ra = NewRouter(repA.ctl, Member{ID: "A"}, Options{
		Dial: func(m Member) (Link, error) { return Loopback{Peer: rb}, nil },
	})
	rb = NewRouter(repB.ctl, Member{ID: "B"}, Options{
		Dial: func(m Member) (Link, error) { return Loopback{Peer: ra}, nil },
	})
	// One switch programmed by both replicas (each holds its own datapath
	// registration, as two processes would each hold a channel).
	sw := openflow.NewSwitch(1, "s1", 0)
	attach(t, sw, ra)
	attach(t, sw, rb)
	ms := []Member{{ID: "A"}, {ID: "B"}}
	if err := ra.SetMembers(ms); err != nil {
		t.Fatal(err)
	}
	if err := rb.SetMembers(ms); err != nil {
		t.Fatal(err)
	}

	// Four live flows — two owned by each replica — established for real on
	// the hosts so the daemons know and push about them.
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	var flows []flow.Five
	byA, byB := 0, 0
	for p := netaddr.Port(40000); (byA < 2 || byB < 2) && p < 41000; p++ {
		f := flow.Five{SrcIP: src.ip, DstIP: dst.ip, Proto: netaddr.ProtoTCP, SrcPort: p, DstPort: 5060}
		if ra.Owns(f) {
			if byA == 2 {
				continue
			}
			byA++
		} else {
			if byB == 2 {
				continue
			}
			byB++
		}
		connected, err := src.info.Connect(src.proc.PID, f)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, connected)
	}
	if byA != 2 || byB != 2 {
		t.Fatalf("ownership split %d/%d, want 2/2", byA, byB)
	}

	// All packet-ins arrive at A; A forwards B's half over the link.
	for _, f := range flows {
		ra.HandleEvent(testPacketIn(f))
	}
	waitUntil(t, "all flows admitted", func() bool {
		return repA.ctl.Counters.Get("flows_allowed")+repB.ctl.Counters.Get("flows_allowed") == 4
	})
	waitUntil(t, "entries installed", func() bool { return sw.Table.Len() == 8 })
	if got := ra.Counters.Get("cluster_events_forwarded"); got != 2 {
		t.Fatalf("A forwarded %d events, want 2", got)
	}
	// Both replicas are subscribed to both daemons for their owned flows.
	waitUntil(t, "replica A hellos", func() bool {
		return repA.ctl.Counters.Get("revocations_hellos") >= 2
	})
	waitUntil(t, "replica B hellos", func() bool {
		return repB.ctl.Counters.Get("revocations_hellos") >= 2
	})

	// ---- Replica A dies mid-subscription. ----
	repA.pool.Close()
	repA.eng.Close()

	// The revocation moment happens while A's flows are unsupervised:
	// alice's skype exits. B's subscriptions push the change for B's own
	// flows; nothing is listening for A's.
	src.info.Kill(src.proc.PID)
	waitUntil(t, "survivor's own flows torn down", func() bool {
		return sw.Table.Len() == 4
	})

	// Failover: B declares A dead and takes over. The takeover must delete
	// A's orphaned entries — B holds no state for them, so their next packet
	// re-decides under current endpoint state. It is one delete by A's
	// installer tag at the one switch.
	if err := rb.RemoveMember("A"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "orphaned entries swept", func() bool { return sw.Table.Len() == 0 })
	if got := rb.Counters.Get("cluster_takeover_swept"); got != 1 {
		t.Errorf("cluster_takeover_swept = %d, want 1", got)
	}

	// Conservation: re-driving the dead replica's flows punts to B, which
	// re-queries the daemons and denies — the process is gone. Zero flows
	// survive the revocation.
	for _, f := range flows {
		if ra.Owns(f) {
			rb.HandleEvent(testPacketIn(f))
		}
	}
	waitUntil(t, "re-driven flows denied", func() bool {
		return repB.ctl.Counters.Get("flows_denied") >= 2
	})
	waitUntil(t, "drop entries installed", func() bool { return sw.Table.Len() == 2 })
	// Denials negative-cache as drop entries; nothing may still forward.
	for _, e := range sw.Table.Entries() {
		if len(e.Actions) != 1 || e.Actions[0].Type != openflow.ActionDrop {
			t.Fatalf("entry %+v still forwarding after failover revocation", e.Match)
		}
	}
}
