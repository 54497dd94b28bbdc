package query_test

// End-to-end revocation: the full production stack — core.Controller in
// asynchronous mode over query.Engine over query.Pool against real
// daemon.Server instances on loopback TCP, programming real
// openflow.Switch flow tables. A mid-flow endpoint-state change on the
// source host (the owning process exits) is pushed by the daemon, demuxed
// by the pool, and enforced by the controller: cached verdict gone,
// flow-table entries deleted on every datapath along the installed path,
// audit record emitted — no controller restart, no policy reload, no
// idle-timeout. The ISSUE 5 acceptance scenario.

import (
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

// cachedVerdicts is the controller's live verdict-cache entry count.
func cachedVerdicts(ctl *core.Controller) int {
	live, _, _, _ := ctl.MegaflowStats()
	return live
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestE2ERevocationTearsDownLiveFlow(t *testing.T) {
	src := startHost(t, "client", "10.7.0.1", workload.Skype, "alice")
	dst := startHost(t, "server", "10.7.0.2", workload.Skype, "bob")

	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{
		src.ip: src.addr,
		dst.ip: dst.addr,
	}})
	t.Cleanup(func() { pool.Close() })
	eng := query.NewEngine(query.Config{Lower: pool})
	t.Cleanup(eng.Close)

	// Real switch datapaths: the acceptance check is entries leaving real
	// flow tables, not a mock recording mods.
	sw1 := openflow.NewSwitch(1, "edge", 0)
	sw2 := openflow.NewSwitch(2, "agg", 0)

	// The revocation plane is wired with the controller: daemon pushes flow
	// through the pool into it.
	ctl := eng.Controller(core.Config{
		Name: "rev-e2e",
		Policy: pf.MustCompile("rev-e2e", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype) keep state
`),
		Topology: &e2eTopo{hops: []core.Hop{
			{Datapath: 1, OutPort: 2},
			{Datapath: 2, OutPort: 3},
		}},
		ResponseCacheTTL: time.Hour,
	})
	ctl.AddDatapath(sw1)
	ctl.AddDatapath(sw2)

	// A live, daemon-known flow.
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

	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 1)
	// keep state: forward + reverse entries on both switches.
	waitUntil(t, "entries installed", func() bool {
		return sw1.Table.Len() == 2 && sw2.Table.Len() == 2
	})
	if n := cachedVerdicts(ctl); n != 1 {
		t.Fatalf("cached verdicts = %d", n)
	}
	// The daemons said hello through the subscribed connections.
	waitUntil(t, "hellos", func() bool {
		return ctl.Counters.Get("revocations_hellos") >= 2
	})

	// ---- The revocation moment: alice's skype exits mid-flow. ----
	src.info.Kill(src.proc.PID)

	waitUntil(t, "flow torn down from both switches", func() bool {
		return sw1.Table.Len() == 0 && sw2.Table.Len() == 0
	})
	waitUntil(t, "cache entry dropped", func() bool { return cachedVerdicts(ctl) == 0 })
	waitUntil(t, "audit record emitted", func() bool {
		revs := ctl.Audit.Revocations()
		return len(revs) >= 1 && revs[0].Flow == connected
	})
	if ctl.Counters.Get("policy_reloads") != 0 {
		t.Error("teardown used a policy reload")
	}

	// The next packet re-queries and is now denied: the daemon answers
	// NO-USER for the orphaned flow, the pass rule cannot match, block all
	// wins. Live policy, current facts.
	ctl.HandleEvent(packetIn(connected, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_denied", 1)
	waitUntil(t, "deny entry installed", func() bool { return sw1.Table.Len() == 1 })

	// And a fresh flow from a live process is still admitted: the plane
	// revokes facts, not hosts.
	proc2 := src.info.Exec(mustUser(t, src), workload.Skype.Exe())
	fresh, err := src.info.Connect(proc2.PID, flow.Five{
		DstIP: dst.ip, Proto: netaddr.ProtoTCP, DstPort: 5060,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.HandleEvent(packetIn(fresh, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 2)
}

func mustUser(t *testing.T, h *e2eHost) *hostinfo.User {
	t.Helper()
	u, ok := h.info.UserByName("alice")
	if !ok {
		t.Fatal("alice missing")
	}
	return u
}

// TestE2ELegacyDaemonLeaseFallback: a host whose "daemon" is only
// reachable as answer-on-behalf (no push channel at all) gets lease
// semantics: the flow's state is torn down when the lease expires, forcing
// a re-query, without any update ever arriving.
func TestE2ELegacyDaemonLeaseFallback(t *testing.T) {
	src := startHost(t, "client", "10.7.1.1", workload.Skype, "alice")
	printer := netaddr.MustParseIP("10.7.1.9") // resolver-absent: no daemon

	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{
		src.ip: src.addr,
	}})
	t.Cleanup(func() { pool.Close() })
	eng := query.NewEngine(query.Config{Lower: pool})
	t.Cleanup(eng.Close)

	sw := openflow.NewSwitch(1, "edge", 0)
	ctl := eng.Controller(core.Config{
		Name: "lease-e2e",
		Policy: pf.MustCompile("lease-e2e", `
block all
pass from any to any port 631 with eq(@dst[type], printer)
`),
		Topology:           &e2eTopo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		ResponseCacheTTL:   time.Hour,
		RevocationLeaseTTL: 50 * time.Millisecond,
	})
	ctl.AddDatapath(sw)
	ctl.AnswerForHost(printer, wire.KV{Key: wire.KeyType, Value: "printer"})

	toPrinter := flow.Five{
		SrcIP: src.ip, DstIP: printer,
		Proto: netaddr.ProtoTCP, SrcPort: 40002, DstPort: 631,
	}
	ctl.HandleEvent(packetIn(toPrinter, 1, openflow.BufferNone))
	waitCounter(t, ctl.Counters, "flows_allowed", 1)
	waitUntil(t, "entry installed", func() bool { return sw.Table.Len() == 1 })

	// No sweep: nothing happens before the lease runs out.
	if n := ctl.SweepLeases(); n != 0 {
		t.Fatalf("premature lease expiry: %d", n)
	}
	time.Sleep(80 * time.Millisecond)
	waitUntil(t, "lease expiry teardown", func() bool { return ctl.SweepLeases() >= 1 })
	if sw.Table.Len() != 0 {
		t.Errorf("entries = %d after lease teardown", sw.Table.Len())
	}
	if n := cachedVerdicts(ctl); n != 0 {
		t.Errorf("cache entries = %d after lease teardown", n)
	}
}
