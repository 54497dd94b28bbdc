// Package netsim is the network substrate the experiments run on: a
// deterministic event-driven simulator of hosts, OpenFlow switches and the
// links between them. It stands in for the paper's enterprise network: its
// graph gives the topology and the paths, and data packets travel it as
// events run in FIFO order. The ident++ queries do not: each controller asks
// through the production query plane (query.Engine over query.Pool) to a
// real daemon.Server per host on loopback TCP, so a query's round trip is a
// wall-clock measurement. Only interception stays simulated: the zone
// controllers along the query's path see it in path order (§3.4). Virtual
// time moves only in RunFor, for the flow-table and cache timeouts.
package netsim

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/packet"
)

// Clock is the simulator's virtual clock. It starts at a fixed epoch so
// runs are reproducible, and only RunFor moves it.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the virtual time origin.
var Epoch = time.Date(2009, 8, 21, 0, 0, 0, 0, time.UTC) // WREN'09 day

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// link is where a switch port leads, and what crossed it.
type link struct {
	toSwitch uint64 // 0 if host
	toPort   uint16
	toHost   netaddr.IP
	stats    LinkStats
}

// LinkStats counts traffic over one directed switch port.
type LinkStats struct {
	Frames uint64
	Bytes  uint64
}

// SwitchNode is a switch in the simulated topology.
type SwitchNode struct {
	SW          *openflow.Switch
	Interceptor core.Interceptor // controller owning this zone, if any

	n        *Network
	links    map[uint16]*link
	nextPort uint16
}

// Transmit implements openflow.Transmitter: a frame leaves the switch onto
// the attached link and arrives at the far end as the next event queued.
func (s *SwitchNode) Transmit(sw *openflow.Switch, port uint16, frame []byte) {
	s.n.mu.Lock()
	defer s.n.mu.Unlock()
	l, ok := s.links[port]
	if !ok {
		return
	}
	l.stats.Frames++
	l.stats.Bytes += uint64(len(frame))
	if peer := s.n.switches[l.toSwitch]; peer != nil {
		s.n.events = append(s.n.events, func() { peer.SW.Receive(l.toPort, frame) })
	} else if h := s.n.hosts[l.toHost]; h != nil {
		s.n.events = append(s.n.events, func() { h.deliver(frame) })
	}
}

// Stats returns the traffic counters for a switch port.
func (s *SwitchNode) Stats(port uint16) LinkStats {
	s.n.mu.Lock()
	defer s.n.mu.Unlock()
	if l, ok := s.links[port]; ok {
		return l.stats
	}
	return LinkStats{}
}

// addPortLocked opens the switch's next port onto l.
func (s *SwitchNode) addPortLocked(l *link) uint16 {
	port := s.nextPort
	s.nextPort++
	s.SW.AddPort(port)
	s.links[port] = l
	return port
}

// Host is a simulated end-host: OS state, an ident++ daemon, and a NIC.
// The daemon answers over a daemon.Server of its own on loopback, started
// the first time a transport resolves the host.
type Host struct {
	Name   string
	Info   *hostinfo.Host
	Daemon *daemon.Daemon
	// DaemonEnabled gates whether the host answers ident++ queries; the §4
	// incremental-deployment experiments turn it off. It is read when a
	// transport first resolves the host.
	DaemonEnabled bool

	n          *Network
	attachSW   uint64
	attachPort uint16
	server     *daemon.Server // nil until first resolved
	addr       string         // server's address
	received   []*packet.Packet
}

// IP returns the host's address.
func (h *Host) IP() netaddr.IP { return h.Info.IP }

func (h *Host) deliver(frame []byte) {
	p, err := packet.Decode(frame)
	if err != nil {
		return
	}
	h.n.mu.Lock()
	h.received = append(h.received, p)
	h.n.mu.Unlock()
}

// ReceivedCount returns how many frames arrived.
func (h *Host) ReceivedCount() int {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	return len(h.received)
}

// ReceivedFlows returns the distinct 5-tuples delivered to the host.
func (h *Host) ReceivedFlows() map[flow.Five]int {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	out := make(map[flow.Five]int)
	for _, p := range h.received {
		out[p.Five()]++
	}
	return out
}

// ClearReceived resets the delivery record.
func (h *Host) ClearReceived() {
	h.n.mu.Lock()
	defer h.n.mu.Unlock()
	h.received = nil
}

// SendTCP injects a TCP frame for five into the network at this host's
// NIC. The destination MAC is resolved from the simulator's host table
// (the simulated network pre-populates ARP).
func (h *Host) SendTCP(five flow.Five, flags uint8, payload []byte) {
	n := h.n
	n.mu.Lock()
	defer n.mu.Unlock()
	dstMAC := netaddr.MAC(0xffffffffffff) // unknown: broadcast
	if dst, ok := n.hosts[five.DstIP]; ok {
		dstMAC = dst.Info.MAC
	}
	frame := packet.TCPFrame(h.Info.MAC, dstMAC, five, flags, payload)
	sw, port := n.switches[h.attachSW], h.attachPort
	n.events = append(n.events, func() { sw.SW.Receive(port, frame) })
}

// StartFlow registers an outbound connection for pid on this host's OS
// (so the daemon can answer for it) and sends the first packet.
func (h *Host) StartFlow(pid int, dst netaddr.IP, dstPort netaddr.Port) (flow.Five, error) {
	five, err := h.Info.Connect(pid, flow.Five{
		DstIP: dst, Proto: netaddr.ProtoTCP, DstPort: dstPort,
	})
	if err != nil {
		return five, err
	}
	h.SendTCP(five, packet.TCPSyn, nil)
	return five, nil
}

// Network is the simulated topology plus the event queue.
type Network struct {
	Clock *Clock

	mu        sync.Mutex
	cond      sync.Cond // broadcast when a pushed update is queued or an exchange completes
	events    []func()
	updates   uint64 // pushed updates queued so far
	exchanges int    // queries a transport started whose completion has not returned
	hosts     map[netaddr.IP]*Host
	switches  map[uint64]*SwitchNode
	nextSWID  uint64
	nextMAC   uint64
	lowers    []*lower // every transport's, until Close
	closed    bool
}

// updateWait bounds Run's wait for a published update or a started
// exchange: past it, the update is lost or the exchange hung.
const updateWait = 10 * time.Second

// New creates an empty network.
func New() *Network {
	n := &Network{
		Clock:    &Clock{now: Epoch},
		hosts:    make(map[netaddr.IP]*Host),
		switches: make(map[uint64]*SwitchNode),
		nextSWID: 1,
		nextMAC:  0x020000000001,
	}
	n.cond.L = &n.mu
	return n
}

// Schedule queues fn behind every event already queued.
func (n *Network) Schedule(fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.events = append(n.events, fn)
}

// Run processes events until none is queued, no decision is waiting on a
// query and no update a subscribed daemon published is still on its way, or
// until maxEvents have run (0 means a safety default of 1<<20). It returns
// the number processed.
func (n *Network) Run(maxEvents int) int {
	if maxEvents <= 0 {
		maxEvents = 1 << 20
	}
	processed := 0
	for ; processed < maxEvents; processed++ {
		fn := n.next()
		if fn == nil {
			break
		}
		fn()
	}
	return processed
}

// next pops the next event, or returns nil when there is none. First it
// waits until every exchange a transport started has completed — a decision
// finishes on the pool's connection reader — and every update a subscribed
// daemon has published is queued. So what an event causes is queued right
// behind the events it queued itself, wherever its connection's reader was:
// a run replays deterministically. The wait is on a condition, never a sleep,
// and panics after updateWait.
func (n *Network) next() func() {
	var bound *time.Timer
	expired := false
	n.mu.Lock()
	defer func() {
		n.mu.Unlock()
		if bound != nil {
			bound.Stop()
		}
	}()
	for {
		seen := n.updates
		n.mu.Unlock()
		behind := n.behind()
		n.mu.Lock()
		if !behind && n.exchanges == 0 {
			if len(n.events) == 0 {
				return nil
			}
			fn := n.events[0]
			n.events[0] = nil
			n.events = n.events[1:]
			return fn
		}
		if expired {
			if n.exchanges > 0 {
				panic("netsim: a query a transport started never completed")
			}
			panic("netsim: an update a daemon published never arrived")
		}
		if bound == nil {
			bound = time.AfterFunc(updateWait, func() {
				n.mu.Lock()
				expired = true
				n.cond.Broadcast()
				n.mu.Unlock()
			})
		}
		for n.updates == seen && (behind || n.exchanges > 0) && !expired {
			n.cond.Wait()
		}
	}
}

// RunFor processes every queued event, then advances the virtual clock by d
// and expires switch flow entries.
func (n *Network) RunFor(d time.Duration) int {
	processed := n.Run(0)
	n.Clock.mu.Lock()
	n.Clock.now = n.Clock.now.Add(d)
	n.Clock.mu.Unlock()
	n.mu.Lock()
	switches := slices.Collect(maps.Values(n.switches))
	n.mu.Unlock()
	for _, s := range switches {
		s.SW.Tick()
	}
	return processed
}

// AddSwitch creates a switch with the given flow-table capacity (0 =
// unbounded) and registers it in the topology.
func (n *Network) AddSwitch(name string, tableCapacity int) *SwitchNode {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.nextSWID
	n.nextSWID++
	sw := openflow.NewSwitch(id, name, tableCapacity)
	sw.Clock = n.Clock.Now
	node := &SwitchNode{SW: sw, n: n, links: make(map[uint16]*link), nextPort: 1}
	sw.SetTransmitter(node)
	n.switches[id] = node
	return node
}

// AddHost creates a host with an OS view and an (enabled) ident++ daemon,
// assigning it a MAC.
func (n *Network) AddHost(name string, ip netaddr.IP) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	info := hostinfo.New(name, ip, netaddr.MAC(n.nextMAC))
	n.nextMAC++
	h := &Host{Name: name, Info: info, Daemon: daemon.New(info), DaemonEnabled: true, n: n}
	n.hosts[ip] = h
	return h
}

// HostByIP returns the host with the given address.
func (n *Network) HostByIP(ip netaddr.IP) (*Host, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[ip]
	return h, ok
}

// ConnectHost attaches a host to a switch.
func (n *Network) ConnectHost(h *Host, s *SwitchNode) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h.attachSW = s.SW.ID
	h.attachPort = s.addPortLocked(&link{toHost: h.Info.IP})
}

// ConnectSwitches links two switches bidirectionally and returns the port
// numbers used on each side.
func (n *Network) ConnectSwitches(a, b *SwitchNode) (uint16, uint16) {
	n.mu.Lock()
	defer n.mu.Unlock()
	pa := a.addPortLocked(&link{toSwitch: b.SW.ID})
	pb := b.addPortLocked(&link{toSwitch: a.SW.ID, toPort: pa})
	a.links[pa].toPort = pb
	return pa, pb
}

// Path implements core.Topology: the hops from the source host's switch to
// the destination host's port.
func (n *Network) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	hsrc, ok := n.hosts[src]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown source host %s", src)
	}
	hdst, ok := n.hosts[dst]
	if !ok {
		return nil, fmt.Errorf("netsim: unknown destination host %s", dst)
	}
	hops, err := n.routeLocked(hsrc.attachSW, hdst.attachSW)
	if err != nil {
		return nil, err
	}
	hops[len(hops)-1].OutPort = hdst.attachPort
	return hops, nil
}

// routeLocked finds the switch path from a to b breadth first, scanning
// ports in ascending order so the choice is deterministic. Each hop's
// OutPort leads to the next switch; the last hop's is left 0.
func (n *Network) routeLocked(a, b uint64) ([]core.Hop, error) {
	reached := map[uint64]core.Hop{a: {}} // switch -> the hop that reached it
	for queue := []uint64{a}; len(queue) > 0; queue = queue[1:] {
		node := n.switches[queue[0]]
		for port := uint16(1); port < node.nextPort; port++ {
			l, ok := node.links[port]
			if !ok || l.toSwitch == 0 {
				continue
			}
			if _, seen := reached[l.toSwitch]; seen {
				continue
			}
			reached[l.toSwitch] = core.Hop{Datapath: queue[0], OutPort: port}
			queue = append(queue, l.toSwitch)
		}
	}
	if _, ok := reached[b]; !ok {
		return nil, fmt.Errorf("netsim: no path between switches %d and %d", a, b)
	}
	hops := []core.Hop{{Datapath: b}}
	for at := b; at != a; at = reached[at].Datapath {
		hops = append(hops, reached[at])
	}
	slices.Reverse(hops)
	return hops, nil
}
