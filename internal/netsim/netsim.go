// Package netsim is the network substrate the experiments run on: a
// deterministic discrete-event simulator of hosts, OpenFlow switches and
// links. It stands in for the paper's enterprise network. Data packets
// travel the simulated links with configurable latencies; ident++ queries
// are exchanged through a transport that models the paper's spoofed-IP
// query path (§3.2) analytically — the daemon is invoked directly and the
// round-trip time is computed from the topology's link latencies — while
// still applying the interception chain of controllers whose networks the
// query would traverse (§3.4).
package netsim

import (
	"container/heap"
	"fmt"
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
// runs are reproducible.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the virtual time origin.
var Epoch = time.Date(2009, 8, 21, 0, 0, 0, 0, time.UTC) // WREN'09 day

// NewClock creates a clock at Epoch.
func NewClock() *Clock { return &Clock{now: Epoch} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Clock) advanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

type event struct {
	at  time.Time
	seq uint64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at.Equal(q[j].at) {
		return q[i].seq < q[j].seq
	}
	return q[i].at.Before(q[j].at)
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// linkEnd describes where a switch port leads.
type linkEnd struct {
	toSwitch uint64 // 0 if host
	toPort   uint16
	toHost   netaddr.IP
	latency  time.Duration
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
	links    map[uint16]linkEnd
	stats    map[uint16]*LinkStats
	nextPort uint16
}

// Transmit implements openflow.Transmitter: frames leave the switch onto
// the attached link and arrive after its latency.
func (s *SwitchNode) Transmit(sw *openflow.Switch, port uint16, frame []byte) {
	s.n.mu.Lock()
	end, ok := s.links[port]
	if st := s.stats[port]; ok && st != nil {
		st.Frames++
		st.Bytes += uint64(len(frame))
	}
	s.n.mu.Unlock()
	if !ok {
		return
	}
	if end.toSwitch != 0 {
		peer := s.n.switches[end.toSwitch]
		s.n.Schedule(end.latency, func() { peer.SW.Receive(end.toPort, frame) })
		return
	}
	host := s.n.hosts[end.toHost]
	if host != nil {
		s.n.Schedule(end.latency, func() { host.deliver(frame) })
	}
}

// Host is a simulated end-host: OS state, an ident++ daemon, and a NIC.
type Host struct {
	Name   string
	Info   *hostinfo.Host
	Daemon *daemon.Daemon
	// DaemonEnabled gates whether the host answers ident++ queries; the §4
	// incremental-deployment experiments turn it off.
	DaemonEnabled bool

	n           *Network
	attachSW    uint64
	attachPort  uint16
	linkLatency time.Duration

	mu       sync.Mutex
	received []*packet.Packet
}

// IP returns the host's address.
func (h *Host) IP() netaddr.IP { return h.Info.IP }

// MAC returns the host's hardware address.
func (h *Host) MAC() netaddr.MAC { return h.Info.MAC }

func (h *Host) deliver(frame []byte) {
	p, err := packet.Decode(frame)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.received = append(h.received, p)
	h.mu.Unlock()
}

// ReceivedCount returns how many frames arrived.
func (h *Host) ReceivedCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.received)
}

// ReceivedFlows returns the distinct 5-tuples delivered to the host.
func (h *Host) ReceivedFlows() map[flow.Five]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[flow.Five]int)
	for _, p := range h.received {
		out[p.Five()]++
	}
	return out
}

// ClearReceived resets the delivery record.
func (h *Host) ClearReceived() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.received = nil
}

// SendTCP injects a TCP frame for five into the network at this host's
// NIC. The destination MAC is resolved from the simulator's host table
// (the simulated network pre-populates ARP).
func (h *Host) SendTCP(five flow.Five, flags uint8, payload []byte) {
	dstMAC := h.n.macOf(five.DstIP)
	frame := packet.TCPFrame(h.Info.MAC, dstMAC, five, flags, payload)
	h.inject(frame)
}

func (h *Host) inject(frame []byte) {
	sw := h.n.switches[h.attachSW]
	port := h.attachPort
	h.n.Schedule(h.linkLatency, func() { sw.SW.Receive(port, frame) })
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

	// DefaultLinkLatency applies when Connect* is called with latency 0.
	DefaultLinkLatency time.Duration
	// CtrlLatency models the switch-controller secure channel (one way).
	CtrlLatency time.Duration
	// DaemonProcessing models the daemon's handling time per query.
	DaemonProcessing time.Duration

	mu       sync.Mutex
	events   eventQueue
	seq      uint64
	hosts    map[netaddr.IP]*Host
	byName   map[string]*Host
	switches map[uint64]*SwitchNode
	nextSWID uint64
	nextMAC  uint64
}

// New creates an empty network with 100µs links, 200µs control channel and
// 150µs daemon processing — laptop-scale stand-ins for LAN constants.
func New() *Network {
	return &Network{
		Clock:              NewClock(),
		DefaultLinkLatency: 100 * time.Microsecond,
		CtrlLatency:        200 * time.Microsecond,
		DaemonProcessing:   150 * time.Microsecond,
		hosts:              make(map[netaddr.IP]*Host),
		byName:             make(map[string]*Host),
		switches:           make(map[uint64]*SwitchNode),
		nextSWID:           1,
		nextMAC:            0x020000000001,
	}
}

// Schedule queues fn to run after d of virtual time.
func (n *Network) Schedule(d time.Duration, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	heap.Push(&n.events, &event{at: n.Clock.Now().Add(d), seq: n.seq, fn: fn})
}

// Run processes events until the queue is empty or maxEvents have run
// (0 means a safety default of 1<<20). It returns the number processed.
func (n *Network) Run(maxEvents int) int {
	if maxEvents <= 0 {
		maxEvents = 1 << 20
	}
	processed := 0
	for processed < maxEvents {
		n.mu.Lock()
		if n.events.Len() == 0 {
			n.mu.Unlock()
			break
		}
		e := heap.Pop(&n.events).(*event)
		n.mu.Unlock()
		n.Clock.advanceTo(e.at)
		e.fn()
		processed++
	}
	return processed
}

// RunFor processes events up to d of virtual time from now, then advances
// the clock to that horizon and expires switch flow entries.
func (n *Network) RunFor(d time.Duration) int {
	deadline := n.Clock.Now().Add(d)
	processed := 0
	for {
		n.mu.Lock()
		if n.events.Len() == 0 || n.events[0].at.After(deadline) {
			n.mu.Unlock()
			break
		}
		e := heap.Pop(&n.events).(*event)
		n.mu.Unlock()
		n.Clock.advanceTo(e.at)
		e.fn()
		processed++
	}
	n.Clock.advanceTo(deadline)
	n.TickSwitches()
	return processed
}

// TickSwitches runs flow-table expiry on every switch at the current
// virtual time.
func (n *Network) TickSwitches() {
	n.mu.Lock()
	sws := make([]*SwitchNode, 0, len(n.switches))
	for _, s := range n.switches {
		sws = append(sws, s)
	}
	n.mu.Unlock()
	for _, s := range sws {
		s.SW.Tick()
	}
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
	node := &SwitchNode{
		SW:       sw,
		n:        n,
		links:    make(map[uint16]linkEnd),
		stats:    make(map[uint16]*LinkStats),
		nextPort: 1,
	}
	sw.SetTransmitter(node)
	n.switches[id] = node
	return node
}

// AddHost creates a host with an OS view and an (enabled) ident++ daemon,
// assigning it a MAC.
func (n *Network) AddHost(name string, ip netaddr.IP) *Host {
	n.mu.Lock()
	mac := netaddr.MAC(n.nextMAC)
	n.nextMAC++
	n.mu.Unlock()
	info := hostinfo.New(name, ip, mac)
	h := &Host{
		Name:          name,
		Info:          info,
		Daemon:        daemon.New(info),
		DaemonEnabled: true,
		n:             n,
	}
	n.mu.Lock()
	n.hosts[ip] = h
	n.byName[name] = h
	n.mu.Unlock()
	return h
}

// HostByIP returns the host with the given address.
func (n *Network) HostByIP(ip netaddr.IP) (*Host, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[ip]
	return h, ok
}

// SwitchByName returns the switch node with the given name.
func (n *Network) SwitchByName(name string) (*SwitchNode, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.switches {
		if s.SW.Name == name {
			return s, true
		}
	}
	return nil, false
}

func (n *Network) macOf(ip netaddr.IP) netaddr.MAC {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[ip]; ok {
		return h.Info.MAC
	}
	return netaddr.MAC(0xffffffffffff) // unknown: broadcast
}

// ConnectHost attaches a host to a switch over a link with the given
// latency (0 = default).
func (n *Network) ConnectHost(h *Host, s *SwitchNode, latency time.Duration) {
	if latency == 0 {
		latency = n.DefaultLinkLatency
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	port := s.nextPort
	s.nextPort++
	s.SW.AddPort(port)
	s.links[port] = linkEnd{toHost: h.Info.IP, latency: latency}
	s.stats[port] = &LinkStats{}
	h.attachSW = s.SW.ID
	h.attachPort = port
	h.linkLatency = latency
}

// ConnectSwitches links two switches bidirectionally and returns the port
// numbers used on each side.
func (n *Network) ConnectSwitches(a, b *SwitchNode, latency time.Duration) (uint16, uint16) {
	if latency == 0 {
		latency = n.DefaultLinkLatency
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	pa := a.nextPort
	a.nextPort++
	pb := b.nextPort
	b.nextPort++
	a.SW.AddPort(pa)
	b.SW.AddPort(pb)
	a.links[pa] = linkEnd{toSwitch: b.SW.ID, toPort: pb, latency: latency}
	b.links[pb] = linkEnd{toSwitch: a.SW.ID, toPort: pa, latency: latency}
	a.stats[pa] = &LinkStats{}
	b.stats[pb] = &LinkStats{}
	return pa, pb
}

// Stats returns the traffic counters for a switch port.
func (s *SwitchNode) Stats(port uint16) LinkStats {
	s.n.mu.Lock()
	defer s.n.mu.Unlock()
	if st, ok := s.stats[port]; ok {
		return *st
	}
	return LinkStats{}
}

// Path implements core.Topology by BFS over the switch graph: the hops from
// the source host's attachment switch to the destination host's port.
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
	swPath, err := n.switchPathLocked(hsrc.attachSW, hdst.attachSW)
	if err != nil {
		return nil, err
	}
	hops := make([]core.Hop, 0, len(swPath))
	for i, swID := range swPath {
		node := n.switches[swID]
		if i == len(swPath)-1 {
			hops = append(hops, core.Hop{Datapath: swID, OutPort: hdst.attachPort})
			continue
		}
		out, ok := portToward(node, swPath[i+1])
		if !ok {
			return nil, fmt.Errorf("netsim: no link %d -> %d", swID, swPath[i+1])
		}
		hops = append(hops, core.Hop{Datapath: swID, OutPort: out})
	}
	return hops, nil
}

func portToward(node *SwitchNode, nextSW uint64) (uint16, bool) {
	for port, end := range node.links {
		if end.toSwitch == nextSW {
			return port, true
		}
	}
	return 0, false
}

// switchPathLocked BFS-computes the switch id sequence from a to b.
func (n *Network) switchPathLocked(a, b uint64) ([]uint64, error) {
	if a == b {
		return []uint64{a}, nil
	}
	prev := map[uint64]uint64{a: a}
	queue := []uint64{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		node := n.switches[cur]
		// Deterministic neighbor order: scan ports ascending.
		for port := uint16(1); port < node.nextPort; port++ {
			end, ok := node.links[port]
			if !ok || end.toSwitch == 0 {
				continue
			}
			if _, seen := prev[end.toSwitch]; seen {
				continue
			}
			prev[end.toSwitch] = cur
			if end.toSwitch == b {
				var path []uint64
				for at := b; ; at = prev[at] {
					path = append([]uint64{at}, path...)
					if at == a {
						return path, nil
					}
				}
			}
			queue = append(queue, end.toSwitch)
		}
	}
	return nil, fmt.Errorf("netsim: no path between switches %d and %d", a, b)
}
