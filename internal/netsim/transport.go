package netsim

import (
	"time"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/query"
	"identxx/internal/wire"
)

// Transport implements core.QueryTransport over the simulated network. The
// query itself is executed by invoking the target daemon directly; the
// round-trip latency is computed from the topology (controller home switch
// to host and back, plus daemon processing), which preserves the latency
// shape of the paper's in-band spoofed-IP queries without simulating the
// bootstrapping of the query packets through the very flow tables they
// populate. Interceptors owned by zones the query path crosses are applied
// in path order (§3.4).
type Transport struct {
	n    *Network
	home uint64           // the querying controller's home switch
	self core.Interceptor // excluded from the chain (a controller does not intercept itself)
}

// Transport creates a query transport for a controller homed at the given
// switch. self, when non-nil, is skipped in interception chains.
func (n *Network) Transport(home *SwitchNode, self core.Interceptor) *Transport {
	return &Transport{n: n, home: home.SW.ID, self: self}
}

// Query implements core.QueryTransport. It is analytic: the round trip is
// computed, no virtual time passes while it runs — which is why the
// controller and the query engine may call it inline, one end after the other.
func (t *Transport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	t.n.mu.Lock()
	h, ok := t.n.hosts[host]
	var rtt time.Duration
	var chain []core.Interceptor
	if ok {
		// Path from the controller's home switch to the host.
		if swPath, err := t.n.switchPathLocked(t.home, h.attachSW); err == nil {
			var oneWay time.Duration
			seen := make(map[core.Interceptor]bool)
			for i, swID := range swPath {
				node := t.n.switches[swID]
				if ic := node.Interceptor; ic != nil && ic != t.self && !seen[ic] {
					seen[ic] = true
					chain = append(chain, ic)
				}
				if i+1 < len(swPath) {
					if port, ok := portToward(node, swPath[i+1]); ok {
						oneWay += node.links[port].latency
					}
				}
			}
			oneWay += h.linkLatency
			rtt = 2*oneWay + t.n.DaemonProcessing
		}
	}
	t.n.mu.Unlock()
	if !ok || !h.DaemonEnabled {
		// The query still travelled (and could have been intercepted by a
		// controller answering on the host's behalf).
		resp := core.InterceptChain{Outbound: chain}.Exchange(host, q, func() *wire.Response {
			return nil
		})
		if resp != nil {
			return resp, rtt, nil
		}
		return nil, rtt, core.ErrNoDaemon
	}
	resp := core.InterceptChain{Outbound: chain}.Exchange(host, q, func() *wire.Response {
		return h.Daemon.HandleQuery(q)
	})
	return resp, rtt, nil
}

// SetUpdateHandler subscribes fn to every daemon-enabled host's update
// stream, delivering each update after the one-way network latency from
// the host to the controller's home switch — the simulator's equivalent of
// the pool's demuxed update frames. Subscription is taken at call time:
// hosts added afterwards do not push (mirroring a deployment where a
// controller subscribes as it connects). Hosts with DaemonEnabled=false
// are skipped — they are the honest-but-legacy case the controller covers
// with TTL leases.
func (t *Transport) SetUpdateHandler(fn func(host netaddr.IP, u wire.Update)) {
	t.n.mu.Lock()
	hosts := make([]*Host, 0, len(t.n.hosts))
	for _, h := range t.n.hosts {
		hosts = append(hosts, h)
	}
	t.n.mu.Unlock()
	for _, h := range hosts {
		if !h.DaemonEnabled {
			continue
		}
		ip := h.Info.IP
		delay := t.oneWay(ip)
		h.Daemon.Subscribe(func(u wire.Update) {
			t.n.Schedule(delay, func() { fn(ip, u) })
		})
	}
}

// oneWay computes the host→controller-home-switch latency for update
// delivery, mirroring the Query path's RTT computation.
func (t *Transport) oneWay(host netaddr.IP) time.Duration {
	t.n.mu.Lock()
	defer t.n.mu.Unlock()
	h, ok := t.n.hosts[host]
	if !ok {
		return t.n.DefaultLinkLatency
	}
	var oneWay time.Duration
	if swPath, err := t.n.switchPathLocked(t.home, h.attachSW); err == nil {
		for i, swID := range swPath {
			if i+1 < len(swPath) {
				if port, ok := portToward(t.n.switches[swID], swPath[i+1]); ok {
					oneWay += t.n.switches[swID].links[port].latency
				}
			}
		}
	}
	return oneWay + h.linkLatency
}

// PlaneTransport wraps the simulator transport in the production
// query-plane engine (internal/query), so simulator experiments run the
// same retry, negative-cache, and breaker machinery as a real deployment:
// repeated queries to daemon-less hosts stop re-travelling the virtual
// network. The engine reads the simulation's virtual clock, keeping expiry
// semantics deterministic.
func (n *Network) PlaneTransport(home *SwitchNode, self core.Interceptor) *query.Engine {
	return query.NewEngine(query.Config{
		Lower: n.Transport(home, self),
		Clock: n.Clock.Now,
	})
}

// AttachController wires a controller to a set of switches: the controller
// becomes each switch's OpenFlow controller, each switch is registered as a
// datapath, and each switch's zone interceptor is set to the controller so
// ident++ exchanges crossing this zone can be intercepted/augmented.
func (n *Network) AttachController(c *core.Controller, switches ...*SwitchNode) {
	for _, s := range switches {
		s.SW.SetController(c)
		c.AddDatapath(s.SW)
		n.mu.Lock()
		s.Interceptor = c
		n.mu.Unlock()
	}
}

// ControllerShim delays packet-in delivery by the control-channel latency,
// so verdict effects land at the right virtual time.
type ControllerShim struct {
	n *Network
	c *core.Controller
}

// NewControllerShim wraps a controller for latency-accurate delivery.
func (n *Network) NewControllerShim(c *core.Controller) *ControllerShim {
	return &ControllerShim{n: n, c: c}
}

// HandlePacketIn implements openflow.Controller.
func (s *ControllerShim) HandlePacketIn(sw *openflow.Switch, ev openflow.PacketIn) {
	s.n.Schedule(s.n.CtrlLatency, func() { s.c.HandleEvent(ev) })
}

// HandleFlowRemoved implements openflow.Controller.
func (s *ControllerShim) HandleFlowRemoved(sw *openflow.Switch, ev openflow.FlowRemoved) {
	s.n.Schedule(s.n.CtrlLatency, func() { s.c.HandleFlowRemoved(sw, ev) })
}

// AttachControllerDelayed is AttachController using the latency shim.
func (n *Network) AttachControllerDelayed(c *core.Controller, switches ...*SwitchNode) {
	shim := n.NewControllerShim(c)
	for _, s := range switches {
		s.SW.SetController(shim)
		c.AddDatapath(s.SW)
		n.mu.Lock()
		s.Interceptor = c
		n.mu.Unlock()
	}
}
