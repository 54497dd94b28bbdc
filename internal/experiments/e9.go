package experiments

import (
	"fmt"
	"io"
	"time"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/workload"
)

// RunE9 measures the revocation plane (PR 5): with N live flows installed
// for one user's process, the process exits — the scenario the paper's
// setup-time-only verdicts cannot handle, since nothing ever re-checks the
// facts a flow was admitted on. The daemon pushes one endpoint-state
// update per asserted flow; the controller's fact-dependency index
// resolves each to the affected flow and tears it down live: cached
// verdict retired, flow-table entries deleted on every switch along the
// path. The table sweeps flow count and reports the virtual revocation
// latency (state change to last flow-table delete) and the residue, which
// must be zero — no idle-timeout, no policy reload, no restart.
func RunE9(w io.Writer) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Revocation plane: live teardown latency vs flow count (2-switch path)",
		Header: []string{"flows", "entries-before", "updates-pushed", "flows-torn", "entries-after", "virtual-latency", "verdict"},
	}
	var ck checker
	for _, flows := range []int{4, 32, 128} {
		n := netsim.New()
		s1 := n.AddSwitch("s1", 0)
		s2 := n.AddSwitch("s2", 0)
		n.ConnectSwitches(s1, s2, 0)
		client := n.AddHost("client", netaddr.MustParseIP("10.0.0.1"))
		server := n.AddHost("server", netaddr.MustParseIP("10.0.0.2"))
		n.ConnectHost(client, s1, 0)
		n.ConnectHost(server, s2, 0)
		st := workload.Populate(client, "alice", []string{"users"}, workload.Skype)
		srv := workload.Populate(server, "bob", []string{"users"}, workload.HTTPD)
		_ = srv

		eng := n.PlaneTransport(s1, nil)
		ctl := core.New(core.Config{
			Name: "e9",
			Policy: pf.MustCompile("e9", `
block all
pass from any to any with eq(@src[name], skype)
`),
			Transport: eng, Topology: n,
			InstallEntries:   true,
			ResponseCacheTTL: time.Hour,
			Revocation:       true,
			Clock:            n.Clock.Now,
		})
		// Close the loop: daemon-pushed updates (simulated transport) drive
		// the controller's teardown pipeline, as the TCP pool does in a
		// real deployment.
		eng.SetUpdateHandler(ctl.HandleUpdate)
		n.AttachController(ctl, s1, s2)

		for i := 0; i < flows; i++ {
			must(st.StartFlow("skype", server.IP(), 80))
			n.Run(0)
		}
		entriesBefore := s1.SW.Table.Len() + s2.SW.Table.Len()

		// The revocation moment, in virtual time.
		t0 := n.Clock.Now()
		client.Info.Kill(st.Proc["skype"].PID)
		n.Run(0)
		latency := n.Clock.Now().Sub(t0)

		entriesAfter := s1.SW.Table.Len() + s2.SW.Table.Len()
		torn := ctl.Counters.Get("revocations_flows")
		verdict := "torn-down"
		if cached, _, _, _ := ctl.MegaflowStats(); entriesAfter != 0 || int(torn) != flows || cached != 0 {
			verdict = fmt.Sprintf("residue: %d entries, %d torn, %d cached",
				entriesAfter, torn, cached)
		}
		t.AddRow(
			fmt.Sprintf("%d", flows),
			fmt.Sprintf("%d", entriesBefore),
			fmt.Sprintf("%d", ctl.Counters.Get("revocations_updates")),
			fmt.Sprintf("%d", torn),
			fmt.Sprintf("%d", entriesAfter),
			latency.Round(time.Microsecond).String(),
			ck.cell("torn-down", verdict),
		)
	}
	t.Note("teardown is event-driven: latency is one daemon→controller propagation plus per-flow O(affected) index work, independent of table size — no scan, no timeout, no reload. The verdict cache would otherwise re-grant for its whole TTL (1h here).")
	t.Fprint(w)
	return t
}
