package experiments

import (
	"io"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/workload"
)

// fig8Policy is Figure 8 verbatim: only the System user may reach the
// Server service inside the LAN, and only when the destination OS carries
// the MS08-067 patch — the Conficker mitigation.
const fig8Policy = `
table <lan> { 192.168.0.0/24 }
# default block everything
block all
# only allow "system" users in the LAN
pass from <lan> \
     with eq(@src[userID], system) \
     to <lan> \
     with eq(@dst[userID], system) \
     with eq(@dst[name], Server) \
     with includes(@dst[os-patch], MS08-067)
`

var serverService = workload.App{
	Name: "Server", Path: "/windows/system32/services.exe",
	Version: "6.0", Vendor: "microsoft.com", Type: "smb", DstPort: 445, Server: true,
}

// RunE5 reproduces Figure 8: user- and patch-conditioned access to the
// Windows Server service, the rule the paper offers as a Conficker stopgap.
// The destination's patch level is a first-class policy input — something
// neither a port-based firewall nor Ethane can express.
func RunE5(w io.Writer) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Figure 8: System-user + MS08-067 patch gate for the Server service",
		Header: []string{"scenario", "paper-expects", "measured"},
	}
	var nets []*netsim.Network
	defer func() {
		for _, n := range nets {
			n.Close()
		}
	}()
	build := func(patched bool) (*netsim.Network, *workload.Station, *workload.Station, *netsim.Host) {
		n := netsim.New()
		nets = append(nets, n)
		sw := n.AddSwitch("lan", 0)
		hc := n.AddHost("ws1", netaddr.MustParseIP("192.168.0.10"))
		hs := n.AddHost("ws2", netaddr.MustParseIP("192.168.0.20"))
		hi := n.AddHost("inet", netaddr.MustParseIP("8.8.8.8"))
		n.ConnectHost(hc, sw)
		n.ConnectHost(hs, sw)
		n.ConnectHost(hi, sw)
		hi.DaemonEnabled = false

		// Both workstations run the Server service as the "system" user.
		cs := populateWindows(hc)
		ss := populateWindows(hs)
		if patched {
			hs.Info.InstallPatch("MS08-001")
			hs.Info.InstallPatch("MS08-067")
		} else {
			hs.Info.InstallPatch("MS08-001")
		}
		policy, err := pf.LoadSources(map[string]string{"10-user-rules.control": fig8Policy})
		must(err)
		n.Controller(core.Config{Name: "fig8", Policy: policy}, sw)
		return n, cs, ss, hi
	}

	var ck checker
	row := func(desc, expected string, delivered bool) {
		got := "block"
		if delivered {
			got = "pass"
		}
		t.AddRow(desc, expected, ck.cell(expected, got))
	}

	// System -> patched Server: pass.
	n1, c1, s1, _ := build(true)
	row("system user -> Server on patched host", "pass", tryFlow(n1, c1, "Server", s1, 445))

	// System -> unpatched Server: block (the Conficker gate).
	n2, c2, s2, _ := build(false)
	row("system user -> Server on UNPATCHED host", "block", tryFlow(n2, c2, "Server", s2, 445))

	// Non-system user on the source: block.
	n3, c3, s3, _ := build(true)
	row("regular user -> Server on patched host", "block", tryFlow(n3, c3, "malware", s3, 445))

	// Internet at large: block (no daemon, fails closed).
	n4, _, s4, inet := build(true)
	evil := inet.Info.AddUser("evil")
	p := inet.Info.Exec(evil, workload.App{Name: "worm", Path: "/tmp/worm", Version: "1"}.Exe())
	five, err := inet.Info.Connect(p.PID, flowTo(s4.Host.IP(), 445))
	must(err)
	s4.Host.ClearReceived()
	inet.SendTCP(five, synFlag, nil)
	n4.Run(0)
	row("Internet -> Server service", "block", s4.Host.ReceivedCount() > 0)

	t.Note("%d/%d scenarios match; the MS08-067 predicate consults end-host patch state the network alone cannot see.", len(t.Rows)-ck.failures, len(t.Rows))
	t.Fprint(w)
	return t
}

// populateWindows sets up a host with a "system" service account running
// the Server service and a regular user running a non-privileged tool.
func populateWindows(h *netsim.Host) *workload.Station {
	st := workload.Populate(h, "carol", []string{"users"},
		workload.App{Name: "malware", Path: "/tmp/malware", Version: "1", DstPort: 445})
	system := h.Info.AddSystemUser("system")
	p := h.Info.Exec(system, serverService.Exe())
	must(h.Info.Listen(p.PID, netaddr.ProtoTCP, serverService.DstPort))
	st.Proc["Server"] = p
	return st
}

func tryFlow(n *netsim.Network, src *workload.Station, app string, dst *workload.Station, port netaddr.Port) bool {
	dst.Host.ClearReceived()
	must(src.StartFlow(app, dst.Host.IP(), port))
	n.Run(0)
	return dst.Host.ReceivedCount() > 0
}
