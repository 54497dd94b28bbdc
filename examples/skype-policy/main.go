// skype-policy runs the paper's Figure 2 configuration end to end: three
// .control files (local header, the skype vendor policy, local footer)
// concatenated in alphabetical order, enforced over a two-switch network.
// It demonstrates policy layering — the vendor ships 50-skype.control, the
// administrator brackets it with 00- and 99- files — and the paper's
// flagship scenarios: skype-to-skype allowed, old skype versions refused,
// skype barred from the server it shares port 80 with.
package main

import (
	"embed"
	"fmt"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/workload"
)

// The three Figure 2 layers ship as real .control files next to this
// program — exactly what an administrator would drop into
// /etc/identxx.control.d, and what CI's pfcheck pass keeps honest.
//
//go:embed 00-local-header.control 50-skype.control 99-local-footer.control
var controlFiles embed.FS

func main() {
	policy, err := pf.LoadControlFS(controlFiles, ".")
	if err != nil {
		panic(err)
	}

	n := netsim.New()
	defer n.Close()
	sw := n.AddSwitch("lan", 0)
	pcA := n.AddHost("pcA", netaddr.MustParseIP("192.168.0.10"))
	pcB := n.AddHost("pcB", netaddr.MustParseIP("192.168.0.20"))
	srv := n.AddHost("server", netaddr.MustParseIP("192.168.1.1"))
	n.ConnectHost(pcA, sw)
	n.ConnectHost(pcB, sw)
	n.ConnectHost(srv, sw)

	stA := workload.Populate(pcA, "alice", []string{"users"}, workload.Skype)
	stB := workload.Populate(pcB, "bob", []string{"users"}, workload.Skype)
	workload.Populate(srv, "admin", nil, workload.HTTPD)
	// bob's skype listens for calls.
	if err := pcB.Info.Listen(stB.Proc["skype"].PID, netaddr.ProtoTCP, 5060); err != nil {
		panic(err)
	}

	ctl := n.Controller(core.Config{Name: "fig2", Policy: policy}, sw)

	show := func(desc string, dst *netsim.Host, delivered bool) {
		verdict := "BLOCKED"
		if delivered {
			verdict = "delivered"
		}
		fmt.Printf("%-52s %s\n", desc, verdict)
	}

	// Scenario 1: current skype calls a peer — the vendor rule admits it.
	if err := stA.StartFlow("skype", pcB.IP(), 5060); err != nil {
		panic(err)
	}
	n.Run(0)
	show("skype 210 pcA -> pcB (vendor rule)", pcB, pcB.ReceivedCount() > 0)

	// Scenario 2: an outdated skype on the same machine — the footer's
	// version predicate refuses it even though the app is "skype".
	old := pcA.Info.Exec(stA.User, workload.OldSkype.Exe())
	pcB.ClearReceived()
	if _, err := pcA.StartFlow(old.PID, pcB.IP(), 5060); err != nil {
		panic(err)
	}
	n.Run(0)
	show("skype 150 pcA -> pcB (footer: lt version 200)", pcB, pcB.ReceivedCount() > 0)

	// Scenario 3: skype aims at the web server on port 80 — identical
	// 5-tuple shape to web traffic, blocked purely on application identity.
	if err := stA.StartFlow("skype", srv.IP(), 80); err != nil {
		panic(err)
	}
	n.Run(0)
	show("skype 210 pcA -> server:80 (footer: no skype to server)", srv, srv.ReceivedCount() > 0)

	fmt.Printf("\ndecisions: %s\n", ctl.Counters)
}
