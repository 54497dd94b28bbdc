// Quickstart: the smallest complete ident++ deployment — one switch, two
// hosts, one application-aware rule. It shows the Figure 1 pipeline in
// about sixty lines: the first packet of a flow punts to the controller,
// the controller queries both end-host daemons, evaluates PF+=2 over the
// responses, and the verdict is cached in the switch.
package main

import (
	_ "embed"
	"fmt"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/workload"
)

// The policy ships as a real .control file next to this program (CI runs
// pfcheck over every example's .control files, so it cannot rot).
//
//go:embed quickstart.control
var quickstartControl string

func main() {
	// A network: one switch, a laptop and a server.
	n := netsim.New()
	sw := n.AddSwitch("office", 0)
	laptop := n.AddHost("laptop", netaddr.MustParseIP("10.0.0.10"))
	server := n.AddHost("server", netaddr.MustParseIP("10.0.0.80"))
	n.ConnectHost(laptop, sw, 0)
	n.ConnectHost(server, sw, 0)

	// Populate the hosts: alice runs firefox and dropbox; the server runs
	// httpd. Each host's ident++ daemon answers for its OS state.
	alice := workload.Populate(laptop, "alice", []string{"users"},
		workload.Firefox, workload.Dropbox)
	workload.Populate(server, "admin", nil, workload.HTTPD)

	// The administrator's policy names applications, not ports: browsers
	// may reach the web server; nothing else may (§1's port-80 dilemma,
	// solved by asking the end-host what is actually talking).
	policy := pf.MustCompile("quickstart.control", quickstartControl)

	// The ident++ controller: queries daemons through the simulated
	// network, computes paths from its topology, installs verdicts.
	ctl := core.New(core.Config{
		Name:           "quickstart",
		Policy:         policy,
		Transport:      n.Transport(sw, nil),
		Topology:       n,
		InstallEntries: true,
		Clock:          n.Clock.Now,
	})
	n.AttachController(ctl, sw)

	// Firefox and dropbox both dial the server on port 80 —
	// indistinguishable to a port-based firewall.
	check := func(app string) {
		server.ClearReceived()
		if err := alice.StartFlow(app, server.IP(), 80); err != nil {
			panic(err)
		}
		n.Run(0)
		verdict := "BLOCKED"
		if server.ReceivedCount() > 0 {
			verdict = "delivered"
		}
		fmt.Printf("%-8s -> server:80  %s\n", app, verdict)
	}
	check("firefox")
	check("dropbox")

	fmt.Printf("\ncontroller counters: %s\n", ctl.Counters)
	fmt.Println("\naudit trail:")
	for _, e := range ctl.Audit.Entries() {
		fmt.Printf("  %s\n", e)
	}
	fmt.Printf("\nflow-setup latency: %s, plus %v each for the punt and the install (the simulator's control channel)\n",
		ctl.Setup.Total.Summary(), n.CtrlLatency)
}
