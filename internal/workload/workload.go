// Package workload builds the deterministic topologies and traffic the
// experiment harness drives: enterprise-shaped switch trees, host
// populations with users and applications, and seeded flow-intent streams.
// Everything is reproducible from the seed.
package workload

import (
	"fmt"
	"math/rand"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/netsim"
)

// App describes an application installed on simulated hosts.
type App struct {
	Name    string
	Path    string
	Version string
	Vendor  string
	Type    string
	// DstPort is the server port the application talks to (or listens on).
	DstPort netaddr.Port
	// Server marks apps that listen rather than connect.
	Server bool
}

// Exe converts the app to a hostinfo executable.
func (a App) Exe() hostinfo.Executable {
	return hostinfo.Executable{
		Path: a.Path, Name: a.Name, Version: a.Version, Vendor: a.Vendor, Type: a.Type,
	}
}

// The standard application mix used across experiments; ports and names
// follow the paper's examples (skype on 80 is exactly the §1 dilemma).
var (
	Firefox     = App{Name: "firefox", Path: "/usr/bin/firefox", Version: "3.5", Vendor: "mozilla.org", Type: "browser", DstPort: 80}
	SSH         = App{Name: "ssh", Path: "/usr/bin/ssh", Version: "5.2", Vendor: "openssh.org", Type: "remote-shell", DstPort: 22}
	Skype       = App{Name: "skype", Path: "/usr/bin/skype", Version: "210", Vendor: "skype.com", Type: "voip", DstPort: 80}
	OldSkype    = App{Name: "skype", Path: "/usr/bin/skype", Version: "150", Vendor: "skype.com", Type: "voip", DstPort: 80}
	Thunderbird = App{Name: "thunderbird", Path: "/usr/bin/thunderbird", Version: "2.0", Vendor: "mozilla.org", Type: "email-client", DstPort: 25}
	Dropbox     = App{Name: "dropbox", Path: "/usr/bin/dropbox", Version: "0.7", Vendor: "dropbox.com", Type: "sync", DstPort: 17500}
	ResearchApp = App{Name: "research-app", Path: "/usr/bin/research-app", Version: "1", Vendor: "lab.local", Type: "research", DstPort: 7777}
	HTTPD       = App{Name: "httpd", Path: "/usr/sbin/httpd", Version: "2.2", Vendor: "apache.org", Type: "web-server", DstPort: 80, Server: true}
	SMTPD       = App{Name: "smtpd", Path: "/usr/sbin/smtpd", Version: "8.14", Vendor: "sendmail.org", Type: "email-server", DstPort: 25, Server: true}
	SSHD        = App{Name: "sshd", Path: "/usr/sbin/sshd", Version: "5.2", Vendor: "openssh.org", Type: "remote-shell", DstPort: 22, Server: true}
)

// ClientApps is the default desktop mix.
var ClientApps = []App{Firefox, SSH, Skype, Thunderbird, Dropbox}

// Station is one populated end-host: its simulator handle, its user, and
// the processes started for each installed app.
type Station struct {
	Host *netsim.Host
	User *hostinfo.User
	Proc map[string]*hostinfo.Process // app name -> process
}

// StartFlow opens a flow from the named app to dst.
func (s *Station) StartFlow(app string, dst netaddr.IP, port netaddr.Port) error {
	_, err := s.Open(app, dst, port)
	return err
}

// Open is StartFlow returning the opened flow's 5-tuple, for callers that
// send follow-up packets on the connection.
func (s *Station) Open(app string, dst netaddr.IP, port netaddr.Port) (flow.Five, error) {
	p, ok := s.Proc[app]
	if !ok {
		return flow.Five{}, fmt.Errorf("workload: station %s has no app %q", s.Host.Name, app)
	}
	return s.Host.StartFlow(p.PID, dst, port)
}

// Populate installs user and apps on a host: client apps get processes,
// server apps also listen on their port (servers run as system users so
// privileged ports bind, mirroring §5.4).
func Populate(h *netsim.Host, userName string, groups []string, apps ...App) *Station {
	st := &Station{Host: h, Proc: make(map[string]*hostinfo.Process)}
	for _, a := range apps {
		if a.Server {
			sys := ensureSystemUser(h, a.Name)
			p := h.Info.Exec(sys, a.Exe())
			if err := h.Info.Listen(p.PID, netaddr.ProtoTCP, a.DstPort); err != nil {
				panic(fmt.Sprintf("workload: %s listen %d: %v", h.Name, a.DstPort, err))
			}
			st.Proc[a.Name] = p
			continue
		}
		if st.User == nil {
			st.User = h.Info.AddUser(userName, groups...)
		}
		st.Proc[a.Name] = h.Info.Exec(st.User, a.Exe())
	}
	if st.User == nil {
		st.User, _ = h.Info.UserByName(userName)
		if st.User == nil {
			st.User = h.Info.AddUser(userName, groups...)
		}
	}
	return st
}

func ensureSystemUser(h *netsim.Host, name string) *hostinfo.User {
	if u, ok := h.Info.UserByName(name); ok {
		return u
	}
	return h.Info.AddSystemUser(name)
}

// Tree describes a built topology.
type Tree struct {
	Net      *netsim.Network
	Root     *netsim.SwitchNode
	Edges    []*netsim.SwitchNode
	Stations []*Station
	Servers  []*Station
}

// AllSwitches returns root plus edges.
func (t *Tree) AllSwitches() []*netsim.SwitchNode {
	out := []*netsim.SwitchNode{t.Root}
	out = append(out, t.Edges...)
	return out
}

// BuildTree constructs a two-level enterprise: a root switch with
// edgeCount edge switches, hostsPerEdge client stations per edge (user
// "u<i>" in group "users", the client mix installed), and one server host
// (httpd+smtpd+sshd) on the root. Subnet 10.e.h.0/16 per edge.
func BuildTree(n *netsim.Network, edgeCount, hostsPerEdge int) *Tree {
	t := &Tree{Net: n}
	t.Root = n.AddSwitch("root", 0)
	serverHost := n.AddHost("server", netaddr.IPv4(10, 200, 0, 1))
	n.ConnectHost(serverHost, t.Root)
	srv := Populate(serverHost, "admin", []string{"wheel"}, HTTPD, SMTPD, SSHD)
	t.Servers = append(t.Servers, srv)

	idx := 0
	for e := 0; e < edgeCount; e++ {
		edge := n.AddSwitch(fmt.Sprintf("edge%d", e), 0)
		n.ConnectSwitches(t.Root, edge)
		t.Edges = append(t.Edges, edge)
		for hI := 0; hI < hostsPerEdge; hI++ {
			ip := netaddr.IPv4(10, byte(e), byte(hI), 2)
			h := n.AddHost(fmt.Sprintf("pc%d", idx), ip)
			n.ConnectHost(h, edge)
			st := Populate(h, fmt.Sprintf("u%d", idx), []string{"users"}, ClientApps...)
			t.Stations = append(t.Stations, st)
			idx++
		}
	}
	return t
}

// Intent is one flow the generator wants opened.
type Intent struct {
	Src *Station
	App App
	Dst netaddr.IP
	// Port defaults to the app's DstPort.
	Port netaddr.Port
}

// Generator emits a deterministic stream of flow intents over a tree.
type Generator struct {
	rng  *rand.Rand
	tree *Tree
	mix  []App
}

// NewGenerator seeds a generator with the client mix.
func NewGenerator(tree *Tree, seed int64, mix ...App) *Generator {
	if len(mix) == 0 {
		mix = ClientApps
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), tree: tree, mix: mix}
}

// Next picks a random station, app, and destination. Skype flows target
// another station (peer-to-peer); everything else targets the server.
func (g *Generator) Next() Intent {
	src := g.tree.Stations[g.rng.Intn(len(g.tree.Stations))]
	app := g.mix[g.rng.Intn(len(g.mix))]
	in := Intent{Src: src, App: app, Port: app.DstPort}
	if app.Name == "skype" && len(g.tree.Stations) > 1 {
		for {
			dst := g.tree.Stations[g.rng.Intn(len(g.tree.Stations))]
			if dst != src {
				in.Dst = dst.Host.IP()
				return in
			}
		}
	}
	in.Dst = g.tree.Servers[0].Host.IP()
	return in
}

// Open issues the intent into the network. Destination skype stations need
// a listener; Open installs one lazily.
func (g *Generator) Open(in Intent) error {
	if in.App.Name == "skype" {
		if dst, ok := g.tree.Net.HostByIP(in.Dst); ok {
			ensureSkypeListener(dst, in.Port)
		}
	}
	return in.Src.StartFlow(in.App.Name, in.Dst, in.Port)
}

func ensureSkypeListener(h *netsim.Host, port netaddr.Port) {
	probe := flow.Five{DstIP: h.Info.IP, Proto: netaddr.ProtoTCP, DstPort: port}
	if _, ok := h.Info.OwnerOf(probe, hostinfo.RoleDestination); ok {
		return
	}
	var u *hostinfo.User
	if port < 1024 {
		// Skype's port-80 listener needs the superuser-endorsement path of
		// §5.4: a privileged helper binds the port.
		u = ensureSystemUser(h, "skype-helper")
	} else {
		var ok bool
		u, ok = h.Info.UserByName("skype-peer")
		if !ok {
			u = h.Info.AddUser("skype-peer", "users")
		}
	}
	p := h.Info.Exec(u, Skype.Exe())
	// Ignore conflicts: another intent may have raced the listener in.
	_ = h.Info.Listen(p.PID, netaddr.ProtoTCP, port)
}
