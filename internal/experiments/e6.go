package experiments

import (
	"fmt"
	"io"

	"identxx/internal/baseline"
	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/wire"
	"identxx/internal/workload"
)

// E6 reproduces the §5 security analysis as a measured compromise matrix:
// for each protection system (ident++, vanilla firewall, Ethane-style,
// distributed firewalls) and each compromised component (§5.1-§5.4), an
// attacker runs a fixed attack suite and we count how many attacks land.
//
// Attack suite (attacker is the user "mallory" on host atk, edge switch 0):
//
//	A1  exfil tool -> server:80   (masquerade as web traffic, the §1 dilemma)
//	A2  exfil tool -> server:22   (usurp the admin-only ssh rule)
//	A3  exfil tool -> peer:9999   (lateral movement to a same-switch peer)
type e6Net struct {
	n              *netsim.Network
	ctl            *core.Controller
	edge0, root    *netsim.SwitchNode
	attacker, peer *workload.Station
	server         *workload.Station
	exfil          workload.App
}

const (
	e6IdentPolicy = `
table <net> { 10.0.0.0/8 }
table <servers> { 10.200.0.1 }
block all
pass from <net> to <net> with eq(@src[name], skype) with eq(@dst[name], skype)
pass from <net> to <servers> port 80 with eq(@src[name], firefox) keep state
pass from <net> to <servers> port 22 with eq(@src[userID], admin)
`
	// What the same administrator can write without end-host information:
	// ports and addresses only (§1's "coarse network security policies").
	e6VanillaPolicy = `
table <net> { 10.0.0.0/8 }
table <servers> { 10.200.0.1 }
block all
pass from <net> to <servers> port 80 keep state
pass from <net> to <servers> port 22
`
	// Ethane sees authenticated users and groups but no applications (§6).
	e6EthanePolicy = `
table <net> { 10.0.0.0/8 }
table <servers> { 10.200.0.1 }
block all
pass from <net> to <servers> port 80 with member(@src[groupID], users) keep state
pass from <net> to <servers> port 22 with eq(@src[userID], admin)
`
)

func buildE6(system string) *e6Net {
	n := netsim.New()
	root := n.AddSwitch("root", 0)
	edge0 := n.AddSwitch("edge0", 0)
	edge1 := n.AddSwitch("edge1", 0)
	n.ConnectSwitches(root, edge0)
	n.ConnectSwitches(root, edge1)

	hAtk := n.AddHost("atk", netaddr.MustParseIP("10.0.0.66"))
	hPeer := n.AddHost("peer", netaddr.MustParseIP("10.0.0.77"))
	hAdm := n.AddHost("adm", netaddr.MustParseIP("10.1.0.10"))
	hSrv := n.AddHost("srv", netaddr.MustParseIP("10.200.0.1"))
	n.ConnectHost(hAtk, edge0)
	n.ConnectHost(hPeer, edge0)
	n.ConnectHost(hAdm, edge1)
	n.ConnectHost(hSrv, root)

	e := &e6Net{n: n, edge0: edge0, root: root}
	e.exfil = workload.App{Name: "exfil", Path: "/home/mallory/exfil", Version: "1", DstPort: 80}
	e.attacker = workload.Populate(hAtk, "mallory", []string{"users"},
		e.exfil, workload.Firefox, workload.Skype)
	e.peer = workload.Populate(hPeer, "pat", []string{"users"}, workload.Skype)
	workload.Populate(hAdm, "admin", []string{"wheel", "users"}, workload.SSH)
	e.server = workload.Populate(hSrv, "root", nil, workload.HTTPD, workload.SSHD)

	var policySrc string
	var tr core.QueryTransport // nil: the query plane
	switch system {
	case "identxx":
		policySrc = e6IdentPolicy
	case "vanilla":
		policySrc = e6VanillaPolicy
		tr = baseline.NullTransport{}
	case "ethane":
		policySrc = e6EthanePolicy
		et := baseline.NewEthaneTransport()
		et.Bind(hAtk.IP(), "mallory", "users")
		et.Bind(hPeer.IP(), "pat", "users")
		et.Bind(hAdm.IP(), "admin", "wheel", "users")
		et.Bind(hSrv.IP(), "root")
		tr = et
	default:
		panic("unknown system " + system)
	}
	e.ctl = n.Controller(core.Config{
		Name: system, Policy: pf.MustCompile(system, policySrc), Transport: tr,
	}, root, edge0, edge1)
	return e
}

// attack launches one attack flow and reports whether it was delivered.
func (e *e6Net) attack(app string, dst *workload.Station, port netaddr.Port) bool {
	dst.Host.ClearReceived()
	must(e.attacker.StartFlow(app, dst.Host.IP(), port))
	e.n.Run(0)
	return dst.Host.ReceivedCount() > 0
}

// runAttacks executes the suite and returns the number admitted (0-3).
func (e *e6Net) runAttacks(appA1, appA2, appA3 string) int {
	admitted := 0
	if e.attack(appA1, e.server, 80) {
		admitted++
	}
	if e.attack(appA2, e.server, 22) {
		admitted++
	}
	if e.attack(appA3, e.peer, 9999) {
		admitted++
	}
	return admitted
}

// compromiseDaemon makes the attacker's daemon forge per-flow optimal
// responses (§5.3: "the attacker would gain control of the ident++ daemon
// and can send false ident++ responses").
func (e *e6Net) compromiseDaemon() {
	e.attacker.Host.Daemon.SetForge(func(q wire.Query, honest *wire.Response) *wire.Response {
		r := wire.NewResponse(q.Flow)
		switch q.Flow.DstPort {
		case 22:
			r.Add(wire.KeyUserID, "admin") // claim the admin's identity
			r.Add(wire.KeyName, "ssh")
		default:
			r.Add(wire.KeyUserID, "mallory")
			r.Add(wire.KeyName, "firefox") // claim the approved browser
			r.Add(wire.KeyVersion, "3.5")
		}
		return r
	})
}

// compromiseSwitch turns edge0 into an unregulated forwarder (§5.2): every
// frame floods, no packet ever punts to the controller from this switch.
func (e *e6Net) compromiseSwitch() {
	must(e.edge0.SW.Apply(openflow.FlowMod{
		Match:    flow.MatchAll(),
		Priority: 1 << 15,
		Actions:  []openflow.Action{{Type: openflow.ActionFlood}},
		BufferID: openflow.BufferNone,
	}))
}

// compromiseController replaces the policy with pass-all (§5.1: "an
// attacker can disable all protection in the network").
func (e *e6Net) compromiseController() {
	e.ctl.SetPolicy(pf.MustCompile("owned", `pass from any to any`))
}

// distributedAdmitted evaluates the suite under the distributed-firewalls
// baseline (§6): enforcement only at the receiving host, port-based (an
// inbound host firewall cannot verify the remote application or user).
func distributedAdmitted(scenario string) int {
	serverFW := baseline.NewHostFirewall(pf.MustCompile("srv", `
block all
pass from any to any port 80
pass from any to any port 22
`))
	peerFW := baseline.NewHostFirewall(pf.MustCompile("peer", `block all`))
	switch scenario {
	case "victim host compromised":
		peerFW.SetCompromised(true)
	case "controller compromised":
		// The policy-distribution point is the analogue: every host now
		// runs pass-all.
		serverFW.SetPolicy(pf.MustCompile("owned", `pass from any to any`))
		peerFW.SetPolicy(pf.MustCompile("owned", `pass from any to any`))
	}
	atk := netaddr.MustParseIP("10.0.0.66")
	srv := netaddr.MustParseIP("10.200.0.1")
	peer := netaddr.MustParseIP("10.0.0.77")
	admitted := 0
	if serverFW.Admit(flow.Five{SrcIP: atk, DstIP: srv, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80}, nil) {
		admitted++
	}
	if serverFW.Admit(flow.Five{SrcIP: atk, DstIP: srv, Proto: netaddr.ProtoTCP, SrcPort: 40001, DstPort: 22}, nil) {
		admitted++
	}
	if peerFW.Admit(flow.Five{SrcIP: atk, DstIP: peer, Proto: netaddr.ProtoTCP, SrcPort: 40002, DstPort: 9999}, nil) {
		admitted++
	}
	return admitted
}

// RunE6 runs the full matrix.
func RunE6(w io.Writer) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "§5 compromise matrix: attacks admitted out of 3 (A1 app-masquerade:80, A2 user-usurp:22, A3 lateral:9999)",
		Header: []string{"compromised component", "identxx", "vanilla-fw", "ethane", "distributed-fw"},
	}
	scenarios := []string{
		"none (honest network)",
		"attacker end-host daemon",
		"attacker user application",
		"attacker edge switch",
		"controller compromised",
		"victim host compromised",
	}
	results := make(map[string]map[string]int)
	for _, system := range []string{"identxx", "vanilla", "ethane"} {
		results[system] = make(map[string]int)
		for _, sc := range scenarios {
			e := buildE6(system)
			appA1, appA2, appA3 := "exfil", "exfil", "exfil"
			switch sc {
			case "attacker end-host daemon":
				e.compromiseDaemon()
			case "attacker user application":
				// §5.4: a compromised app can masquerade as any app the
				// same user runs (exec+ptrace), but not as another user.
				appA1, appA2, appA3 = "firefox", "firefox", "skype"
			case "attacker edge switch":
				e.compromiseSwitch()
			case "controller compromised":
				e.compromiseController()
			case "victim host compromised":
				e.peer.Host.Daemon.SetForge(func(q wire.Query, _ *wire.Response) *wire.Response {
					r := wire.NewResponse(q.Flow)
					r.Add(wire.KeyName, "skype") // victim claims everything is skype
					return r
				})
			}
			results[system][sc] = e.runAttacks(appA1, appA2, appA3)
			e.n.Close()
		}
	}
	for _, sc := range scenarios {
		t.AddRow(sc,
			fmt.Sprintf("%d/3", results["identxx"][sc]),
			fmt.Sprintf("%d/3", results["vanilla"][sc]),
			fmt.Sprintf("%d/3", results["ethane"][sc]),
			fmt.Sprintf("%d/3", distributedAdmitted(sc)),
		)
	}
	t.Note("paper's claims: ident++ dominates or ties the vanilla firewall in every row (§5); compromising one user does not grant other users' privileges (§5.4, row 3 col 1 < row 2 col 1); a single compromised switch only unprotects its own segment (§5.2); controller compromise is total for all centralized systems (§5.1); distributed firewalls lose everything with the victim host (§6).")
	t.Fprint(w)
	return t
}
