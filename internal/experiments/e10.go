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

// RunE10 measures the megaflow wildcard cache (PR 6) on the workload it
// exists for: many clients of one service under a policy that reads
// endpoint state from the destination only. The field-use trace masks
// the source address and port out of the verdict's key, so every client
// falls into one traffic equivalence class — the first flow pays the
// full decision (query, traced evaluation, widen), and every later
// client resolves from the class table without a query or an evaluation.
// The table compares decision misses (full query-plane round trips) with
// the verdict cache under the full mask (Megaflow off: one exact entry per
// tuple, the paper's per-tuple caching, misses scale with the client
// count) and under the trace's mask (on: one miss per class).
func RunE10(w io.Writer) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Megaflow cache: clients of one service, decision misses off vs on",
		Header: []string{"clients", "misses-off", "misses-on", "mega-hits", "classes", "reduction", "verdict"},
	}
	const policy = `
block all
pass from any to any port 80 with eq(@dst[name], httpd)
`
	var ck checker
	for _, clients := range []int{16, 64} {
		misses := [2]int64{} // [0]=megaflow off, [1]=on
		var hits, live int64
		for mode := 0; mode < 2; mode++ {
			n := netsim.New()
			s1 := n.AddSwitch("s1", 0)
			s2 := n.AddSwitch("s2", 0)
			n.ConnectSwitches(s1, s2, 0)
			server := n.AddHost("server", netaddr.MustParseIP("10.1.0.1"))
			n.ConnectHost(server, s2, 0)
			workload.Populate(server, "admin", []string{"wheel"}, workload.HTTPD)

			stations := make([]*workload.Station, clients)
			for i := 0; i < clients; i++ {
				h := n.AddHost(fmt.Sprintf("c%d", i), netaddr.IPv4(10, 0, byte(i/250), byte(1+i%250)))
				n.ConnectHost(h, s1, 0)
				stations[i] = workload.Populate(h, fmt.Sprintf("u%d", i), []string{"users"}, workload.Firefox)
			}

			eng := n.PlaneTransport(s1, nil)
			ctl := core.New(core.Config{
				Name:      "e10",
				Policy:    pf.MustCompile("e10", policy),
				Transport: eng, Topology: n,
				InstallEntries:   true,
				ResponseCacheTTL: time.Hour,
				Revocation:       true,
				Megaflow:         mode == 1,
				Clock:            n.Clock.Now,
			})
			eng.SetUpdateHandler(ctl.HandleUpdate)
			n.AttachController(ctl, s1, s2)

			for _, st := range stations {
				must(st.StartFlow("firefox", server.IP(), 80))
				n.Run(0)
			}

			snap := ctl.Counters.Snapshot()
			decided := snap["flows_allowed"] + snap["flows_denied"]
			served := snap["megaflow_hits"] + snap["decisions_headeronly"]
			misses[mode] = decided - served
			if mode == 1 {
				var l int
				l, hits, _, _ = ctl.MegaflowStats()
				live = int64(l)
			}
		}
		reduction := float64(misses[0]) / float64(misses[1])
		verdict := "one-per-class"
		if misses[1] != 1 || reduction < 10 {
			verdict = fmt.Sprintf("misses-on=%d reduction=%.1fx", misses[1], reduction)
		}
		t.AddRow(
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", misses[0]),
			fmt.Sprintf("%d", misses[1]),
			fmt.Sprintf("%d", hits),
			fmt.Sprintf("%d", live),
			fmt.Sprintf("%.0fx", reduction),
			ck.cell("one-per-class", verdict),
		)
	}
	t.Note("the policy's matched path reads only the destination's facts plus the destination port, so the trace-derived mask collapses every client tuple into one class: decision misses stay at 1 per service while per-tuple caching pays one full decision per client. Revocation stays O(affected): the class has one dependency record for all its members, and one daemon update tears down every member's entries.")
	t.Fprint(w)
	return t
}
