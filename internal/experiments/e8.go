package experiments

import (
	"io"

	"identxx/internal/baseline"
	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

// RunE8 reproduces §4 "Incremental Benefit": ident++ is useful before the
// whole network supports it.
//
// (a) End-hosts only: a server distinguishes two users sharing one client
// machine (the NAT/multi-user case) by querying the client's ident++ daemon
// over a real TCP socket — no controllers anywhere; enforcement is a local
// host firewall consulting the response.
//
// (b) Controllers only: hosts run no daemons; the controller answers
// queries on their behalf from administrator-registered facts, so
// identity-based policy still works for legacy devices.
func RunE8(w io.Writer) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "§4 incremental benefit: partial deployments",
		Header: []string{"deployment", "scenario", "paper-expects", "measured"},
	}
	var ck checker
	row := func(mode, desc, expected string, admitted bool) {
		got := "block"
		if admitted {
			got = "pass"
		}
		t.AddRow(mode, desc, expected, ck.cell(expected, got))
	}

	// --- (a) End-hosts only, over real TCP ---------------------------------
	clientIP := netaddr.MustParseIP("192.168.7.7") // one IP, two users
	serverIP := netaddr.MustParseIP("203.0.113.10")
	client := hostinfo.New("shared-pc", clientIP, netaddr.MustParseMAC("02:00:00:00:07:07"))
	alice := client.AddUser("alice", "staff")
	bob := client.AddUser("bob", "guests")
	aProc := client.Exec(alice, workload.Firefox.Exe())
	bProc := client.Exec(bob, workload.Firefox.Exe())

	d := daemon.New(client)
	srv := daemon.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	must(err)
	defer srv.Close()

	// The server-side policy: staff may connect, guests may not. The server
	// is an ident++-aware application using a host firewall — no network
	// support needed.
	serverPolicy := pf.MustCompile("srv", `
block all
pass from any to any with member(@src[groupID], staff)
`)
	fw := baseline.NewHostFirewall(serverPolicy)
	pool := query.NewPool(query.PoolConfig{Resolver: query.StaticResolver{clientIP: addr.String()}})
	defer pool.Close()
	admitViaIdent := func(proc *hostinfo.Process) bool {
		five, err := client.Connect(proc.PID, flow.Five{
			DstIP: serverIP, Proto: netaddr.ProtoTCP, DstPort: 443,
		})
		must(err)
		defer client.Close(five)
		resp, _, err := pool.Query(clientIP, wire.Query{
			Flow: five, Keys: []string{wire.KeyUserID, wire.KeyGroupID},
		})
		if err != nil {
			resp = nil
		}
		return fw.Admit(five, resp)
	}
	row("(a) end-hosts only", "alice (staff) from shared IP", "pass", admitViaIdent(aProc))
	row("(a) end-hosts only", "bob (guests) from same IP", "block", admitViaIdent(bProc))
	t.Note("(a) both flows share source IP %s; only the ident++ response tells them apart — RFC 1413's original use case, enriched.", clientIP)

	// --- (b) Controllers only ----------------------------------------------
	n := netsim.New()
	defer n.Close()
	sw := n.AddSwitch("office", 0)
	legacy := n.AddHost("legacy-pc", netaddr.MustParseIP("10.0.0.5"))
	printer := n.AddHost("printer", netaddr.MustParseIP("10.0.0.9"))
	fileSrv := n.AddHost("files", netaddr.MustParseIP("10.0.0.12"))
	n.ConnectHost(legacy, sw)
	n.ConnectHost(printer, sw)
	n.ConnectHost(fileSrv, sw)
	// Nobody runs a daemon in this deployment.
	legacy.DaemonEnabled = false
	printer.DaemonEnabled = false
	fileSrv.DaemonEnabled = false
	st := workload.Populate(legacy, "lee", []string{"users"},
		workload.App{Name: "lpr", Path: "/usr/bin/lpr", Version: "1", DstPort: 631})

	ctl := n.Controller(core.Config{
		Name: "office",
		Policy: pf.MustCompile("p", `
block all
pass from any to any with eq(@dst[device-type], printer)
`),
	}, sw)
	// The administrator registers what the network knows about its devices;
	// the controller answers queries on their behalf (§3.4).
	ctl.AnswerForHost(printer.IP(), wire.KV{Key: "device-type", Value: "printer"})
	ctl.AnswerForHost(fileSrv.IP(), wire.KV{Key: "device-type", Value: "file-server"})

	tryB := func(dst *netsim.Host, port netaddr.Port) bool {
		dst.ClearReceived()
		must(st.StartFlow("lpr", dst.IP(), port))
		n.Run(0)
		return dst.ReceivedCount() > 0
	}
	row("(b) controllers only", "print job to registered printer", "pass", tryB(printer, 631))
	row("(b) controllers only", "same app to the file server", "block", tryB(fileSrv, 631))
	t.Note("(b) queries answered by the controller on the devices' behalf: %d.",
		ctl.Counters.Get("queries_intercepted")+ctl.Counters.Get("answered_on_behalf"))

	t.Note("%d/%d scenarios match.", len(t.Rows)-ck.failures, len(t.Rows))
	t.Fprint(w)
	return t
}
