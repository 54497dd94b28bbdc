package identxx_bench

import (
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/wire"
)

// refusingLower fails every exchange; a header-only decision must never
// reach it, so any call is a test failure by way of the engine counters.
type refusingLower struct{}

func (refusingLower) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	return nil, 0, core.ErrNoDaemon
}

// TestHeaderOnlyFlowKeepsQueryPlaneIdle is the acceptance check for the
// header-only pre-pass at the full stack: a controller wired to the real
// asynchronous query plane decides a header-only flow with zero queries
// enqueued — decisions_headeronly increments and every engine_* counter
// stays flat.
func TestHeaderOnlyFlowKeepsQueryPlaneIdle(t *testing.T) {
	eng := query.NewEngine(query.Config{Lower: refusingLower{}})
	t.Cleanup(eng.Close)
	ctl := core.New(core.Config{
		Name: "ho-e2e",
		Policy: pf.MustCompile("ho", `
block all
pass from 10.0.0.0/8 to any port 80 keep state
pass from any to any port 443 with eq(@src[name], web)
`),
		Transport:      eng,
		Topology:       &m7Topo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		InstallEntries: true,
		AsyncQueries:   true,
	})
	ctl.AddDatapath(&m7Datapath{id: 1})

	ev := openflow.PacketIn{
		SwitchID: 1, BufferID: openflow.BufferNone, InPort: 1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   netaddr.MustParseIP("10.1.2.3"),
			DstIP:   netaddr.MustParseIP("8.8.8.8"),
			Proto:   netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80,
		},
	}
	const events = 50
	for i := 0; i < events; i++ {
		ev.Tuple.SrcPort = netaddr.Port(40000 + i)
		ctl.HandleEvent(ev)
	}

	if got := ctl.Counters.Get("decisions_headeronly"); got != events {
		t.Errorf("decisions_headeronly = %d, want %d", got, events)
	}
	if got := ctl.Counters.Get("flows_allowed"); got != events {
		t.Errorf("flows_allowed = %d, want %d", got, events)
	}
	for _, counter := range []string{
		"engine_queries_sent", "engine_negcache_hits",
		"engine_retries", "engine_breaker_opens", "engine_breaker_fastfails",
		"engine_timeouts",
	} {
		if got := eng.Counters.Get(counter); got != 0 {
			t.Errorf("%s = %d, want 0 (query plane must stay idle)", counter, got)
		}
	}
	if got := eng.InFlight.Get(); got != 0 {
		t.Errorf("engine in-flight gauge = %d, want 0", got)
	}

	// The same controller still uses the plane for key-dependent flows —
	// the pre-pass narrows, it does not disable.
	ev.Tuple.DstPort = 443
	ctl.HandleEvent(ev)
	deadline := time.Now().Add(5 * time.Second)
	for eng.Counters.Get("engine_queries_sent") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("key-dependent flow never reached the query plane")
		}
		time.Sleep(time.Millisecond)
	}
}
