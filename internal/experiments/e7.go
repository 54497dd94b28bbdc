package experiments

import (
	"fmt"
	"io"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/packet"
	"identxx/internal/pf"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

// RunE7 reproduces §4 "Network Collaboration": two branches of one
// enterprise joined by a bottleneck link. Branch B's controller augments
// ident++ responses crossing its network with the rules B is willing to
// accept; branch A's controller checks them with allowed() and filters
// doomed traffic *before* it crosses the bottleneck. We measure bytes over
// the bottleneck with and without collaboration — the paper's claim is
// that collaboration "can be used to minimize traffic between the branches
// if the link is a bottleneck".
func RunE7(w io.Writer) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "§4 network collaboration: bottleneck-link bytes, filter-at-source vs filter-at-destination",
		Header: []string{"configuration", "flows-attempted", "flows-delivered", "bottleneck-bytes", "doomed-bytes-crossing"},
	}
	type result struct {
		delivered int
		bytes     uint64
		doomed    uint64
	}
	run := func(collaborate bool) result {
		n := netsim.New()
		defer n.Close()
		swA := n.AddSwitch("branchA", 0)
		swB := n.AddSwitch("branchB", 0)
		// The bottleneck: a slow WAN link between branches.
		portA, _ := n.ConnectSwitches(swA, swB)

		a1 := n.AddHost("a1", netaddr.MustParseIP("10.1.0.1"))
		b1 := n.AddHost("b1", netaddr.MustParseIP("10.2.0.1"))
		n.ConnectHost(a1, swA)
		n.ConnectHost(b1, swB)
		stA := workload.Populate(a1, "alice", []string{"users"}, workload.Firefox,
			workload.App{Name: "bulk", Path: "/usr/bin/bulk", Version: "1", DstPort: 9999})
		workload.Populate(b1, "bsvc", nil, workload.HTTPD)

		// Branch B: accepts only web traffic, and advertises that.
		ctlB := n.Controller(core.Config{
			Name: "B",
			Policy: pf.MustCompile("pB", `
block all
pass from any to any port 80
`),
		}, swB)
		ctlB.SetAugmenter(func(q wire.Query, resp *wire.Response) {
			resp.Augment("controller:B").Add("branch-rules",
				"block all pass from any to any port 80")
		})

		// Branch A: with collaboration it defers to B's advertised rules;
		// without, it passes everything and lets B drop at its ingress.
		policyA := `pass from any to any`
		if collaborate {
			policyA = `
block all
pass from any to any with allowed(@dst[branch-rules])
`
		}
		n.Controller(core.Config{Name: "A", Policy: pf.MustCompile("pA", policyA)}, swA)

		// 10 web flows (B accepts) and 10 bulk flows (B rejects), each a
		// SYN plus a 1000-byte payload packet.
		payload := make([]byte, 1000)
		for i := 0; i < 10; i++ {
			five, err := stA.Open("firefox", b1.IP(), 80)
			must(err)
			n.Run(0)
			a1.SendTCP(five, packet.TCPAck, payload)
			n.Run(0)
		}
		doomedBefore := swA.Stats(portA).Bytes
		for i := 0; i < 10; i++ {
			five, err := stA.Open("bulk", b1.IP(), 9999)
			must(err)
			n.Run(0)
			a1.SendTCP(five, packet.TCPAck, payload)
			n.Run(0)
		}
		st := swA.Stats(portA)
		return result{
			delivered: len(b1.ReceivedFlows()),
			bytes:     st.Bytes,
			doomed:    st.Bytes - doomedBefore,
		}
	}

	with := run(true)
	without := run(false)
	t.AddRow("no collaboration (filter at B's ingress)", "20",
		fmt.Sprintf("%d", without.delivered),
		fmt.Sprintf("%d", without.bytes),
		fmt.Sprintf("%d", without.doomed))
	t.AddRow("collaboration (B's rules enforced at A)", "20",
		fmt.Sprintf("%d", with.delivered),
		fmt.Sprintf("%d", with.bytes),
		fmt.Sprintf("%d", with.doomed))
	if with.doomed == 0 && without.doomed > 0 && with.delivered == without.delivered {
		t.Note("collaboration removed all %d bytes of doomed traffic from the bottleneck without affecting delivered flows (%.0f%% link-byte reduction).",
			without.doomed, 100*float64(without.bytes-with.bytes)/float64(without.bytes))
	} else {
		t.Note("UNEXPECTED: doomed bytes with=%d without=%d delivered %d vs %d",
			with.doomed, without.doomed, with.delivered, without.delivered)
	}
	t.Fprint(w)
	return t
}
