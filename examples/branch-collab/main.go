// branch-collab reenacts §4 "Network Collaboration": branch B's controller
// augments ident++ responses crossing its network with the rules B is
// willing to accept, and branch A enforces them *before* traffic crosses
// the slow inter-branch link. Doomed traffic never leaves branch A.
package main

import (
	_ "embed"
	"fmt"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

// Each branch's policy ships as a real .control file next to this
// program; CI's pfcheck pass keeps them compiling.
//
//go:embed branch-a.control
var branchAControl string

//go:embed branch-b.control
var branchBControl string

func main() {
	n := netsim.New()
	defer n.Close()
	swA := n.AddSwitch("branchA", 0)
	swB := n.AddSwitch("branchB", 0)
	bottleneckPort, _ := n.ConnectSwitches(swA, swB)

	a1 := n.AddHost("a1", netaddr.MustParseIP("10.1.0.1"))
	b1 := n.AddHost("b1", netaddr.MustParseIP("10.2.0.1"))
	n.ConnectHost(a1, swA)
	n.ConnectHost(b1, swB)
	stA := workload.Populate(a1, "alice", []string{"users"},
		workload.Firefox,
		workload.App{Name: "bulk", Path: "/usr/bin/bulk", Version: "1", DstPort: 9999})
	workload.Populate(b1, "bsvc", nil, workload.HTTPD)

	// Branch B accepts only web traffic and advertises that by augmenting
	// every ident++ response that leaves its network (§3.4).
	ctlB := n.Controller(core.Config{
		Name:   "B",
		Policy: pf.MustCompile("branch-b.control", branchBControl),
	}, swB)
	ctlB.SetAugmenter(func(q wire.Query, resp *wire.Response) {
		resp.Augment("controller:B").Add("branch-rules",
			"block all pass from any to any port 80")
	})

	// Branch A defers to whatever the destination branch advertises.
	ctlA := n.Controller(core.Config{
		Name:   "A",
		Policy: pf.MustCompile("branch-a.control", branchAControl),
	}, swA)

	payload := make([]byte, 1000)
	send := func(app string, port netaddr.Port) {
		five, err := stA.Open(app, b1.IP(), port)
		if err != nil {
			panic(err)
		}
		n.Run(0)
		a1.SendTCP(five, packet.TCPAck, payload)
		n.Run(0)
	}
	for i := 0; i < 5; i++ {
		send("firefox", 80) // B accepts these
	}
	webBytes := swA.Stats(bottleneckPort).Bytes
	for i := 0; i < 5; i++ {
		send("bulk", 9999) // B would reject these
	}
	total := swA.Stats(bottleneckPort).Bytes

	fmt.Printf("flows delivered at branch B:        %d\n", len(b1.ReceivedFlows()))
	fmt.Printf("bottleneck bytes (web flows):       %d\n", webBytes)
	fmt.Printf("bottleneck bytes (doomed bulk):     %d\n", total-webBytes)
	fmt.Printf("branch A denials on B's behalf:     %d\n", ctlA.Counters.Get("flows_denied"))
	fmt.Printf("responses augmented by branch B:    %d\n", ctlB.Counters.Get("responses_augmented"))
	fmt.Println("\nBulk traffic died at branch A's edge switch: zero doomed bytes crossed the WAN.")
}
