package cluster

// Tentpole acceptance for the flight-recorder PR: one decision, traced end
// to end across a real two-replica cluster. Replica A receives the
// packet-in for a flow replica B owns and forwards it over a real TCP
// inter-controller link; B runs the full production query plane
// (query.Engine over query.Pool against real daemon.Server instances on
// loopback TCP), queries both endpoints, evaluates, and installs on a
// real switch. The forwarder's half of the trace and the owner's half
// must share one trace ID — the event frame carries it across the link, the
// `trace:` query line carries it to the daemons — so a daemon RTT paid on
// B attributes to the decision A first saw.

import (
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/trace"
)

// tracedReplica is one full controller replica with its own flight
// recorder: pool, engine, controller, recorder.
type tracedReplica struct {
	pool *query.Pool
	eng  *query.Engine
	ctl  *core.Controller
	rec  *trace.Recorder
}

func startTracedReplica(t *testing.T, name string, resolver query.StaticResolver, sw *openflow.Switch) *tracedReplica {
	t.Helper()
	r := &tracedReplica{rec: trace.New(trace.Config{SampleEvery: 1})}
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
		InstallEntries:   true,
		AsyncQueries:     true,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
		Trace:            r.rec,
	})
	r.ctl.AddDatapath(sw)
	return r
}

// hasStage reports whether the trace recorded an event at the stage.
func hasStage(tr trace.Trace, s trace.Stage) bool {
	for _, e := range tr.Events {
		if e.Stage == s {
			return true
		}
	}
	return false
}

func TestTraceStitchedAcrossReplicas(t *testing.T) {
	src := startFailoverHost(t, "client", "10.15.0.1", "alice")
	dst := startFailoverHost(t, "server", "10.15.0.2", "bob")
	resolver := query.StaticResolver{src.ip: src.addr, dst.ip: dst.addr}

	sw := openflow.NewSwitch(1, "s1", 0)
	repA := startTracedReplica(t, "A", resolver, sw)
	repB := startTracedReplica(t, "B", resolver, sw)

	// Real TCP between the replicas: each router serves its
	// inter-controller listener, and the default dial (DialTCP on the
	// member's address) connects them — the same path production takes.
	lnA, lnB := listen(t), listen(t)
	ms := []Member{
		{ID: "A", Addr: lnA.Addr().String()},
		{ID: "B", Addr: lnB.Addr().String()},
	}
	ra := NewRouter(repA.ctl, ms[0], Options{Trace: repA.rec})
	rb := NewRouter(repB.ctl, ms[1], Options{Trace: repB.rec})
	serveRouter(t, ra, lnA)
	serveRouter(t, rb, lnB)
	if err := ra.SetMembers(ms); err != nil {
		t.Fatal(err)
	}
	if err := rb.SetMembers(ms); err != nil {
		t.Fatal(err)
	}

	// A real established flow owned by B, arriving at A.
	if err := dst.info.Listen(dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	var f flow.Five
	for p := netaddr.Port(42000); ; p++ {
		if p == 43000 {
			t.Fatal("no B-owned flow in 1000 ports")
		}
		cand := flow.Five{SrcIP: src.ip, DstIP: dst.ip, Proto: netaddr.ProtoTCP, SrcPort: p, DstPort: 5060}
		if rb.Owns(cand) {
			f = cand
			break
		}
	}
	if _, err := src.info.Connect(src.proc.PID, f); err != nil {
		t.Fatal(err)
	}

	ra.HandleEvent(testPacketIn(f))
	waitUntil(t, "flow admitted on the owner", func() bool {
		return repB.ctl.Counters.Get("flows_allowed") == 1
	})
	waitUntil(t, "entries installed", func() bool { return sw.Table.Len() == 2 })

	// The forwarder's half: one trace, verdict "forwarded", not stitched
	// (A minted the ID), carrying the StageForward span.
	waitUntil(t, "forwarder trace retained", func() bool { return len(repA.rec.Traces()) == 1 })
	fwd := repA.rec.Traces()[0]
	if fwd.ID == 0 || fwd.Stitched || fwd.Verdict != "forwarded" || !hasStage(fwd, trace.StageForward) {
		t.Fatalf("forwarder trace = %+v, want unstitched verdict=forwarded with a forward span", fwd)
	}

	// The owner's half: same ID, stitched, spanning query -> eval ->
	// install with verdict "pass".
	var own trace.Trace
	waitUntil(t, "owner trace retained", func() bool {
		for _, tr := range repB.rec.Find(fwd.ID) {
			own = tr
			return true
		}
		return false
	})
	if !own.Stitched {
		t.Error("owner trace not marked stitched")
	}
	if own.Verdict != "pass" {
		t.Errorf("owner verdict = %q, want pass", own.Verdict)
	}
	for _, s := range []trace.Stage{trace.StageQueryEnqueue, trace.StageQueryDone, trace.StageEval, trace.StageInstall} {
		if !hasStage(own, s) {
			t.Errorf("owner trace missing stage %v; events: %+v", s, own.Events)
		}
	}
	if got := repB.rec.Counters.Get("trace_stitched"); got != 1 {
		t.Errorf("trace_stitched = %d, want 1", got)
	}

	// Both halves describe the same flow.
	if fwd.FlowString() != own.FlowString() {
		t.Errorf("flow mismatch: forwarder %q vs owner %q", fwd.FlowString(), own.FlowString())
	}

	// And the trace ID reached the daemons over the query wire: the
	// source host's daemon counted at least one traced query.
	if got := srcDaemonTraced(t, src); got < 1 {
		t.Errorf("src daemon_queries_traced = %d, want >= 1 (trace line lost on the query wire)", got)
	}
}

// srcDaemonTraced digs the daemon counter out of the failover-host
// harness; separated so the e2e assertions above read linearly.
func srcDaemonTraced(t *testing.T, h *failoverHost) int64 {
	t.Helper()
	return h.d.Counters.Get("daemon_queries_traced")
}

// TestTraceLinkRedialNoCrossStitch: forwarded traced events before and
// after a link redial (connection death + transparent reconnect, the
// FIFO-resync case) must each stitch to their own decision — the trace
// retained for an ID must describe that ID's flow, never the other one's.
func TestTraceLinkRedialNoCrossStitch(t *testing.T) {
	rec := trace.New(trace.Config{SampleEvery: 1})
	ctl := core.New(core.Config{
		Name:             "B",
		Policy:           pf.MustCompile("B", passPolicy),
		Transport:        passTransport{},
		Topology:         hopTopo{},
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
		Trace:            rec,
	})
	ctl.AddDatapath(&sinkDatapath{id: 1})
	rb := NewRouter(ctl, Member{ID: "B"}, Options{Trace: rec})
	addr := serveRouter(t, rb, listen(t)).String()

	l := DialTCP(addr)
	t.Cleanup(func() { l.Close() })

	ev1 := testPacketIn(testFive(33001))
	ev1.TraceID = 0x1111000011110001
	if err := l.ForwardEvent(ev1); err != nil {
		t.Fatalf("forward before redial: %v", err)
	}

	// Restart the replica, which kills the connection out from under the
	// link; the next forward heals by redialing.
	restart(t, rb, addr, Options{Trace: rec})
	// An untraced forward finds the dead connection and redials, so the
	// traced one behind it goes out once, on the new connection.
	waitUntil(t, "link recovery", func() bool { return l.ForwardEvent(testPacketIn(testFive(33003))) == nil })

	ev2 := testPacketIn(testFive(33002))
	ev2.TraceID = 0x2222000022220002
	if err := l.ForwardEvent(ev2); err != nil {
		t.Fatalf("forward after redial: %v", err)
	}

	waitUntil(t, "both traces retained", func() bool {
		return len(rec.Find(ev1.TraceID)) == 1 && len(rec.Find(ev2.TraceID)) == 1
	})
	for _, want := range []struct {
		id   uint64
		port uint16
	}{{ev1.TraceID, 33001}, {ev2.TraceID, 33002}} {
		tr := rec.Find(want.id)[0]
		if !tr.Stitched {
			t.Errorf("trace %016x not stitched", want.id)
		}
		if tr.SrcPort != want.port {
			t.Errorf("trace %016x describes src port %d, want %d (stitched to the wrong decision)",
				want.id, tr.SrcPort, want.port)
		}
	}
}
