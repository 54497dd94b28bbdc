package query_test

import (
	"testing"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

// scopeRig is a controller without a verdict cache over the real query plane
// and two daemons: a client host and a server whose skype listens on 5060.
type scopeRig struct {
	src, dst *e2eHost
	pool     *query.Pool
	ctl      *core.Controller
	sw       *openflow.Switch
	next     netaddr.Port
}

func newScopeRig(t *testing.T, base string, handler func(*core.Controller) func(netaddr.IP, wire.Update)) *scopeRig {
	t.Helper()
	r := &scopeRig{
		src:  startHost(t, "client", base+".1", workload.Skype, "alice"),
		dst:  startHost(t, "server", base+".2", workload.Skype, "bob"),
		sw:   openflow.NewSwitch(1, "edge", 0),
		next: 41000,
	}
	if err := r.dst.info.Listen(r.dst.proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{r.src.ip: r.src.addr, r.dst.ip: r.dst.addr}})
	t.Cleanup(func() { pool.Close() })
	r.pool = pool
	eng := query.NewEngine(query.Config{Lower: pool})
	t.Cleanup(eng.Close)
	r.ctl = core.New(core.Config{
		Name: "scope-e2e",
		Policy: pf.MustCompile("scope-e2e", `
block all
pass from any to any with eq(@src[name], skype) with eq(@dst[name], skype)
`),
		Transport: eng,
		Topology:  &e2eTopo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
	})
	r.ctl.AddDatapath(r.sw)
	if !eng.SetUpdateHandler(handler(r.ctl)) {
		t.Fatal("engine lower does not push updates")
	}
	return r
}

// decide sends the packet-in of a fresh connection of the client's skype to
// the server's port 5060 and waits for its verdict.
func (r *scopeRig) decide(t *testing.T) {
	t.Helper()
	five, err := r.src.info.Connect(r.src.proc.PID, flow.Five{
		DstIP: r.dst.ip, Proto: netaddr.ProtoTCP, SrcPort: r.next, DstPort: 5060,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.next++
	c := r.ctl.Counters
	before := c.Get("flows_allowed") + c.Get("flows_denied")
	r.ctl.HandleEvent(packetIn(five, 1, openflow.BufferNone))
	waitUntil(t, "verdict", func() bool { return c.Get("flows_allowed")+c.Get("flows_denied") > before })
}

func answered(h *e2eHost) int64 { return h.d.Counters.Get("daemon_queries_answered") }

// TestE2EListenerAnswerServesEveryFlow: N flows to one listener cost its
// daemon one query and the sources N; the listener's exit is one update
// that tears all N down, after which the next flow asks both ends again; a
// rebind by another executable decides the flows after it on its facts.
func TestE2EListenerAnswerServesEveryFlow(t *testing.T) {
	r := newScopeRig(t, "10.7.2", func(c *core.Controller) func(netaddr.IP, wire.Update) { return c.HandleUpdate })
	const n = 8
	for i := 0; i < n; i++ {
		r.decide(t)
	}
	c := r.ctl.Counters
	if got := c.Get("flows_allowed"); got != n {
		t.Fatalf("allowed %d of %d flows", got, n)
	}
	if a, b := answered(r.dst), answered(r.src); a != 1 || b != n {
		t.Fatalf("destination daemon answered %d queries, sources %d; want 1 and %d", a, b, n)
	}
	if hits, learned := c.Get("scope_hits"), c.Get("scope_learned"); hits != n-1 || learned != 1 {
		t.Fatalf("scope_hits %d, scope_learned %d; want %d and 1", hits, learned, n-1)
	}
	if got := r.sw.Table.Len(); got != n {
		t.Fatalf("%d entries installed, want %d", got, n)
	}

	// The listener exits: one update at its scope, every flow on it falls.
	r.dst.info.Kill(r.dst.proc.PID)
	waitUntil(t, "every flow torn down", func() bool { return r.sw.Table.Len() == 0 })
	if got := r.dst.d.Counters.Get("daemon_updates_pushed"); got != 1 {
		t.Errorf("the listener's daemon pushed %d updates, want 1", got)
	}
	if got := c.Get("revocations_scope_updates"); got != 1 {
		t.Errorf("revocations_scope_updates = %d, want 1", got)
	}
	if got := c.Get("revocations_flows"); got != n {
		t.Errorf("revocations_flows = %d, want %d", got, n)
	}

	// Nothing listens: the next flow asks both ends and is denied.
	r.decide(t)
	if a := answered(r.dst); a != 2 {
		t.Fatalf("destination daemon answered %d queries after the exit, want 2", a)
	}
	if got := c.Get("flows_denied"); got != 1 {
		t.Fatalf("flows_denied = %d after the exit, want 1", got)
	}

	// Another executable binds the port: its facts decide, learned once.
	bob, _ := r.dst.info.UserByName("bob")
	httpd := r.dst.info.Exec(bob, workload.HTTPD.Exe())
	if err := r.dst.info.Listen(httpd.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	r.decide(t)
	r.decide(t)
	if a := answered(r.dst); a != 3 {
		t.Errorf("destination daemon answered %d queries after the rebind, want 3", a)
	}
	if got := c.Get("flows_denied"); got != 3 {
		t.Errorf("flows_denied = %d, want 3: the rebound listener is not skype", got)
	}
	if got := c.Get("flows_allowed"); got != n {
		t.Errorf("flows_allowed = %d, want %d", got, n)
	}
}

// TestE2EScopeUpdateIsResyncToLegacyController: a controller that reads no
// scope sees the listener's update as a resync of the host; every flow on the
// host falls, and no answer held before it serves the next flow.
func TestE2EScopeUpdateIsResyncToLegacyController(t *testing.T) {
	r := newScopeRig(t, "10.7.3", func(c *core.Controller) func(netaddr.IP, wire.Update) {
		return func(host netaddr.IP, u wire.Update) {
			u.Scope = wire.Scope{} // the line a legacy decoder skips
			c.HandleUpdate(host, u)
		}
	})
	for i := 0; i < 3; i++ {
		r.decide(t)
	}
	if a := answered(r.dst); a != 1 {
		t.Fatalf("destination daemon answered %d queries, want 1", a)
	}
	r.dst.info.Kill(r.dst.proc.PID)
	c := r.ctl.Counters
	waitUntil(t, "every flow torn down", func() bool { return r.sw.Table.Len() == 0 })
	if got := c.Get("revocations_resyncs"); got != 1 {
		t.Errorf("revocations_resyncs = %d, want 1", got)
	}
	bob, _ := r.dst.info.UserByName("bob")
	proc := r.dst.info.Exec(bob, workload.Skype.Exe())
	if err := r.dst.info.Listen(proc.PID, netaddr.ProtoTCP, 5060); err != nil {
		t.Fatal(err)
	}
	r.decide(t)
	if a := answered(r.dst); a != 2 {
		t.Errorf("destination daemon answered %d queries after the resync, want 2: a held answer outlived it", a)
	}
}

// TestE2EHeldAnswerNeedsALiveStream: a held answer serves only while its
// daemon's update stream is up. Once the connection is gone a change there
// could not be heard of, so the next flow asks the destination again — here
// a daemon that is no longer serving, and the flow is denied.
func TestE2EHeldAnswerNeedsALiveStream(t *testing.T) {
	r := newScopeRig(t, "10.7.4", func(c *core.Controller) func(netaddr.IP, wire.Update) { return c.HandleUpdate })
	r.decide(t)
	r.decide(t)
	c := r.ctl.Counters
	if !r.pool.Subscribed(r.dst.ip) || c.Get("scope_hits") != 1 {
		t.Fatalf("subscribed %v, scope_hits %d: want a live stream and one hit", r.pool.Subscribed(r.dst.ip), c.Get("scope_hits"))
	}
	r.dst.srv.Close()
	waitUntil(t, "the stream to go down", func() bool { return !r.pool.Subscribed(r.dst.ip) })
	r.decide(t)
	if got := c.Get("scope_hits"); got != 1 {
		t.Errorf("scope_hits = %d, want 1: a held answer served with the stream down", got)
	}
	if got := c.Get("flows_denied"); got != 1 {
		t.Errorf("flows_denied = %d, want 1: the destination no longer answers", got)
	}
}

// TestE2EHeldAnswerOutlivesLaterResponses: the listener answer a controller
// holds is its own copy, not the response the connection's reader lent it.
// A thousand later responses arrive on the same connection, alternating the
// held listener's answer with another listener's, whose facts the policy
// refuses, and ending on the refused one; the next flow to the held listener
// is still decided on the held answer and allowed.
func TestE2EHeldAnswerOutlivesLaterResponses(t *testing.T) {
	r := newScopeRig(t, "10.7.5", func(c *core.Controller) func(netaddr.IP, wire.Update) { return c.HandleUpdate })
	bob, _ := r.dst.info.UserByName("bob")
	httpd := r.dst.info.Exec(bob, workload.HTTPD.Exe())
	if err := r.dst.info.Listen(httpd.PID, netaddr.ProtoTCP, 8080); err != nil {
		t.Fatal(err)
	}
	r.decide(t)
	r.decide(t)
	const later = 1000
	for i := 0; i < later; i++ {
		f := flow.Five{SrcIP: r.src.ip, DstIP: r.dst.ip, Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(50000 + i), DstPort: 5060}
		if i%2 == 1 {
			f.DstPort = 8080
		}
		resp, _, err := r.pool.Query(r.dst.ip, wire.Query{Flow: f, Keys: []string{wire.KeyName}})
		if err != nil {
			t.Fatal(err)
		}
		if name, _ := resp.Latest(wire.KeyName); (name == "skype") != (f.DstPort == 5060) {
			t.Fatalf("flow to %d answered with name %q", f.DstPort, name)
		}
	}
	r.decide(t)
	c := r.ctl.Counters
	if a := answered(r.dst); a != 1+later {
		t.Fatalf("destination daemon answered %d queries, want %d: the held answer stopped serving", a, 1+later)
	}
	if allowed, hits := c.Get("flows_allowed"), c.Get("scope_hits"); allowed != 3 || hits != 2 {
		t.Fatalf("flows_allowed %d, scope_hits %d; want 3 and 2", allowed, hits)
	}
}
