package main

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/telemetry"
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
		"host 10.0.0.5 switch 1 port 2 deamon 10.0.0.5:783",                     // misspelt keyword
		"host 10.0.0.5 switch 1 port 2 daemon",                                  // daemon without an address
		"host 10.0.0.5 switch 1 port 2 daemon 10.0.0.5:783 extra",               // trailing field
		"host 10.0.0.5 switch 1 port 2 extra",                                   // trailing field, no daemon
		"host 10.0.0.5 switch 1 port 2\nhost 10.0.0.5 switch 1 port 3 daemon a", // one host placed twice
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
		ResponseCacheTTL: time.Hour,
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

	addr := operatorServer(t, telemetry.Operator{Ctl: ctl})

	// The verdict is cached, so its one dependency record is its class's:
	// the flow-record series stay at 0, the class-record series count it.
	for name, want := range map[string]string{
		"identxx_revocation_index_live":             "0",
		"identxx_revocation_index_registered_total": "0",
		"identxx_revocation_index_dropped_total":    "0",
		"identxx_revocation_wide_live":              "1",
		"identxx_revocation_wide_registered_total":  "1",
		"identxx_revocation_wide_dropped_total":     "0",
	} {
		if got := metric(t, addr, name); got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	for _, c := range []struct {
		words []string
		want  int
	}{
		{[]string{"revoke", "10.0.0.1", "name"}, 1},
		{[]string{"revoke", "10.0.0.1"}, 0},
		{[]string{"sweep"}, 0},
	} {
		if got := torn(t, addr, c.words...); got != c.want {
			t.Errorf("%q tore down %d, want %d", c.words, got, c.want)
		}
	}
	for _, bad := range [][]string{nil, {"revoke"}, {"revoke", "bogus"}, {"revoke", "1.2.3.4", "k", "extra"}, {"frobnicate"}} {
		if body, err := operatorCall(addr, bad); err == nil {
			t.Errorf("operatorCall(%q) = %s, want an error", bad, body)
		}
	}
}

// operatorServer serves op's views and the controller's metrics on a
// loopback telemetry listener, as identctl does, and returns its address.
func operatorServer(t *testing.T, op telemetry.Operator) string {
	t.Helper()
	ts := telemetry.NewServer()
	telemetry.RegisterController(ts.Registry, op.Ctl)
	ts.MountOperator(op)
	addr, err := ts.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return addr.String()
}

// metric reads one unlabelled series from the listener's /metrics.
func metric(t *testing.T, addr, name string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return ""
}

// torn sends a revoking command through the client and returns its count.
func torn(t *testing.T, addr string, words ...string) int {
	t.Helper()
	body, err := operatorCall(addr, words)
	if err != nil {
		t.Fatalf("%q: %v", words, err)
	}
	var n telemetry.Torn
	if err := json.Unmarshal(body, &n); err != nil {
		t.Fatalf("%q: %v in %s", words, err, body)
	}
	return n.Flows
}

// TestAdminOverTCP drives the listener + client round trip.
func TestAdminOverTCP(t *testing.T) {
	ctl := core.New(core.Config{
		Name:      "admin-tcp",
		Policy:    pf.MustCompile("p", "block all"),
		Transport: nullTransport{},
		Topology:  &sinkTopo{},
	})
	if got := torn(t, operatorServer(t, telemetry.Operator{Ctl: ctl}), "revoke", "10.0.0.9"); got != 0 {
		t.Errorf("revoke tore down %d, want 0", got)
	}
}

type nullTransport struct{}

func (nullTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	r := wire.NewResponse(q.Flow)
	r.Add(wire.KeyName, "skype")
	done(r, 0, nil)
}

type sinkTopo struct{}

func (sinkTopo) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	return []core.Hop{{Datapath: 1, OutPort: 2}}, nil
}

type sinkDatapath struct{ id uint64 }

func (d *sinkDatapath) DatapathID() uint64           { return d.id }
func (d *sinkDatapath) Apply(openflow.FlowMod) error { return nil }
func (d *sinkDatapath) ReleaseBuffer(id uint32)      {}

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

	if _, err := operatorCall(operatorServer(t, telemetry.Operator{Ctl: ctl}), []string{"ring"}); err == nil {
		t.Error("ring without a router succeeded, want an error")
	}

	addr := operatorServer(t, telemetry.Operator{Ctl: ctl, Rt: rt})
	body, err := operatorCall(addr, []string{"ring"})
	if err != nil {
		t.Fatal(err)
	}
	var ring telemetry.Ring
	if err := json.Unmarshal(body, &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring.Replicas) != 2 {
		t.Fatalf("ring = %s, want 2 replicas", body)
	}
	for _, r := range ring.Replicas {
		if r.Self != (r.Member.ID == "a") || r.Share <= 0 {
			t.Errorf("replica %+v: want a as self and a share each", r)
		}
	}
	for _, field := range []string{`"Share"`, `"Owned"`, `"Forwarded"`, `"Fallbacks"`} {
		if !strings.Contains(string(body), field) {
			t.Errorf("ring %s missing %s", body, field)
		}
	}

	body, err = operatorCall(addr, []string{"ring", "drop", "b"})
	if err != nil || json.Unmarshal(body, &ring) != nil || len(ring.Replicas) != 1 {
		t.Errorf("ring drop = %s %v, want 1-member listing", body, err)
	}
	if body, err := operatorCall(addr, []string{"ring", "bogus"}); err == nil {
		t.Errorf("ring bogus = %s, want an error", body)
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
		h := announcer{ctl}
		if clustered {
			h = announcer{cluster.NewRouter(ctl, cluster.Member{ID: "a"}, cluster.Options{})}
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
