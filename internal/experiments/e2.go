package experiments

import (
	"io"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/pf"
	"identxx/internal/workload"
)

// fig2Sources is the controller configuration of Figure 2, verbatim in
// structure: three .control files concatenated alphabetically (§3.4).
var fig2Sources = map[string]string{
	"00-local-header.control": `
table <server> { 192.168.1.1 }
table <lan> { 192.168.0.0/24 }
table <int_hosts> { <lan> <server> }
allowed = "{ http ssh }" # a macro of apps

# default deny
block all

# allow connections outbound
pass from <int_hosts> \
     to !<int_hosts> \
     keep state

# allow all traffic from approved apps
pass from <int_hosts> \
     to <int_hosts> \
     with member(@src[name], $allowed) \
     keep state
`,
	"50-skype.control": `
table <skype_update> { 123.123.123.0/24 }
# skype to skype allowed
pass all \
     with eq(@src[name], skype) \
     with eq(@dst[name], skype)
# skype update feature
pass from any \
     to <skype_update> port 80 \
     with eq(@src[name], skype) \
     keep state
`,
	"99-local-footer.control": `
# no really old versions of skype
block all \
     with eq(@src[name], skype) \
     with lt(@src[version], 200)
# no skype to server
block from any \
     to <server> \
     with eq(@src[name], skype)
`,
}

// fig2Net is the Figure 2 scenario network: an internal switch with two LAN
// stations and the server, an external switch with the skype-update host
// and an Internet host (daemon-less).
type fig2Net struct {
	n            *netsim.Network
	ctl          *core.Controller
	lanA, lanB   *workload.Station
	server       *workload.Station
	update, inet *netsim.Host
	updateSt     *workload.Station
}

var (
	httpApp = workload.App{Name: "http", Path: "/usr/bin/http", Version: "1", Type: "web", DstPort: 80}
	sshApp  = workload.App{Name: "ssh", Path: "/usr/bin/ssh", Version: "5.2", Type: "shell", DstPort: 22}
)

func buildFig2() *fig2Net {
	n := netsim.New()
	swInt := n.AddSwitch("internal", 0)
	swExt := n.AddSwitch("external", 0)
	n.ConnectSwitches(swInt, swExt, 0)

	f := &fig2Net{n: n}
	ha := n.AddHost("lanA", netaddr.MustParseIP("192.168.0.10"))
	hb := n.AddHost("lanB", netaddr.MustParseIP("192.168.0.20"))
	hs := n.AddHost("server", netaddr.MustParseIP("192.168.1.1"))
	hu := n.AddHost("update", netaddr.MustParseIP("123.123.123.7"))
	hi := n.AddHost("inet", netaddr.MustParseIP("8.8.8.8"))
	n.ConnectHost(ha, swInt, 0)
	n.ConnectHost(hb, swInt, 0)
	n.ConnectHost(hs, swInt, 0)
	n.ConnectHost(hu, swExt, 0)
	n.ConnectHost(hi, swExt, 0)

	f.lanA = workload.Populate(ha, "alice", []string{"users"},
		workload.Skype, workload.Firefox, workload.Dropbox, httpApp, sshApp)
	f.lanB = workload.Populate(hb, "bob", []string{"users"}, workload.Skype)
	f.server = workload.Populate(hs, "admin", []string{"wheel"}, workload.HTTPD, workload.SSHD)
	f.updateSt = workload.Populate(hu, "svc", nil, workload.HTTPD)
	f.update = hu
	f.inet = hi
	hi.DaemonEnabled = false // the Internet does not run ident++

	policy, err := pf.LoadSources(fig2Sources)
	if err != nil {
		panic(err)
	}
	f.ctl = core.New(core.Config{
		Name: "fig2", Policy: policy, Transport: n.Transport(swInt, nil),
		Topology: n, InstallEntries: true, Clock: n.Clock.Now,
	})
	n.AttachController(f.ctl, swInt, swExt)
	return f
}

// skypePeerListen starts a skype listener on lanB for peer-to-peer calls.
func (f *fig2Net) skypePeerListen(port netaddr.Port) {
	p := f.lanB.Proc["skype"]
	_ = f.lanB.Host.Info.Listen(p.PID, netaddr.ProtoTCP, port)
}

// RunE2 reproduces Figure 2 through the full stack — daemons answering,
// PF+=2 evaluating the three concatenated .control files, the controller
// installing or dropping — and checks each scenario the paper's prose
// promises: skype-to-skype allowed, old skype blocked by the footer, skype
// barred from the server, the update path open on port 80, approved apps
// allowed internally, everything else defaulted closed, outbound open, and
// unsolicited inbound blocked.
func RunE2(w io.Writer) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Figure 2 policy matrix through the full stack",
		Header: []string{"scenario", "paper-expects", "measured"},
	}
	type scenario struct {
		desc     string
		expected string
		run      func(f *fig2Net) bool // true = delivered to destination
	}
	scenarios := []scenario{
		{"skype(210) lanA->lanB", "pass", func(f *fig2Net) bool {
			f.skypePeerListen(5060)
			must(f.lanA.StartFlow("skype", f.lanB.Host.IP(), 5060))
			f.n.Run(0)
			return f.lanB.Host.ReceivedCount() > 0
		}},
		{"skype(150) lanA->lanB (footer: lt version 200)", "block", func(f *fig2Net) bool {
			f.skypePeerListen(5060)
			// OldSkype shares the path label "skype" in Proc; start via its PID.
			p := f.lanA.Host.Info.Exec(f.lanA.User, workload.OldSkype.Exe())
			_, err := f.lanA.Host.StartFlow(p.PID, f.lanB.Host.IP(), 5060)
			must(err)
			f.n.Run(0)
			return f.lanB.Host.ReceivedCount() > 0
		}},
		{"skype(210) lanA->server:80 (footer: no skype to server)", "block", func(f *fig2Net) bool {
			must(f.lanA.StartFlow("skype", f.server.Host.IP(), 80))
			f.n.Run(0)
			return f.server.Host.ReceivedCount() > 0
		}},
		{"skype(210) lanA->update:80 (update feature)", "pass", func(f *fig2Net) bool {
			must(f.lanA.StartFlow("skype", f.update.IP(), 80))
			f.n.Run(0)
			return f.update.ReceivedCount() > 0
		}},
		{"app 'http' lanA->server:80 (member $allowed)", "pass", func(f *fig2Net) bool {
			must(f.lanA.StartFlow("http", f.server.Host.IP(), 80))
			f.n.Run(0)
			return f.server.Host.ReceivedCount() > 0
		}},
		{"app 'ssh' lanA->server:22 (member $allowed)", "pass", func(f *fig2Net) bool {
			must(f.lanA.StartFlow("ssh", f.server.Host.IP(), 22))
			f.n.Run(0)
			return f.server.Host.ReceivedCount() > 0
		}},
		{"dropbox lanA->server:17500 (unapproved app)", "block", func(f *fig2Net) bool {
			must(f.lanA.StartFlow("dropbox", f.server.Host.IP(), 17500))
			f.n.Run(0)
			return f.server.Host.ReceivedCount() > 0
		}},
		{"firefox lanA->inet:443 (outbound keep state)", "pass", func(f *fig2Net) bool {
			must(f.lanA.StartFlow("firefox", f.inet.IP(), 443))
			f.n.Run(0)
			return f.inet.ReceivedCount() > 0
		}},
		{"inet->lanA:22 (unsolicited inbound)", "block", func(f *fig2Net) bool {
			five, err := f.inet.Info.Connect(
				f.inet.Info.Exec(f.inet.Info.AddUser("evil"), workload.SSH.Exe()).PID,
				flowTo(f.lanA.Host.IP(), 22))
			must(err)
			f.inet.SendTCP(five, synFlag, nil)
			f.n.Run(0)
			return f.lanA.Host.ReceivedCount() > 0
		}},
	}
	var ck checker
	for _, s := range scenarios {
		f := buildFig2()
		delivered := s.run(f)
		got := "block"
		if delivered {
			got = "pass"
		}
		t.AddRow(s.desc, s.expected, ck.cell(s.expected, got))
	}
	t.Note("%d/%d scenarios match the paper's prose.", len(scenarios)-ck.failures, len(scenarios))
	t.Fprint(w)
	return t
}
