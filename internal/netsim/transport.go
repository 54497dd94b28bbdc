package netsim

import (
	"fmt"
	"slices"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/query"
	"identxx/internal/wire"
)

// Controller builds cfg's controller homed at home and attaches it to home
// and more. Its topology is the network and its clock the virtual one. It
// asks through home's query plane, subscribed to every daemon it dials as
// identctl's is, unless cfg.Transport names another (a baseline's).
func (n *Network) Controller(cfg core.Config, home *SwitchNode, more ...*SwitchNode) *core.Controller {
	cfg.Topology, cfg.Clock = n, n.Clock.Now
	var c *core.Controller
	if cfg.Transport != nil {
		c = core.New(cfg)
	} else {
		c = n.transport(home).Controller(cfg)
	}
	for _, s := range append([]*SwitchNode{home}, more...) {
		n.attach(c, s)
	}
	return c
}

// transport returns the query plane of a controller homed at home: a
// query.Engine on the virtual clock over a query.Pool of its own (one counter
// set for both) that reaches each host's daemon.Server on loopback. A
// decision finishes on the pool's connection reader, as identctl's do, and
// Run waits for it before the next event.
func (n *Network) transport(home *SwitchNode) *query.Engine {
	l := &lower{n: n, home: home.SW.ID, serials: make(map[*Host]uint64)}
	counters := metrics.NewCounter()
	l.Pool = query.NewPool(query.PoolConfig{Resolver: l, Counters: counters})
	l.eng = query.NewEngine(query.Config{Lower: l, Clock: n.Clock.Now, Counters: counters})
	n.mu.Lock()
	n.lowers = append(n.lowers, l)
	n.mu.Unlock()
	return l.eng
}

// lower is the engine's wire layer: the pool, the host table as its
// resolver, and the zone controllers on the path around each exchange. What
// the pool knows of each host's session (Standing, the credential views)
// is the pool's own.
type lower struct {
	*query.Pool
	n    *Network
	home uint64
	eng  *query.Engine

	// serials is, per host that said hello, the serial of the last update
	// queued (guarded by n.mu).
	serials map[*Host]uint64
}

// Resolve implements query.Resolver: a host whose daemon is enabled
// resolves to its server's address, the server starting on first use.
func (l *lower) Resolve(ip netaddr.IP) (string, bool) {
	n := l.n
	n.mu.Lock()
	defer n.mu.Unlock()
	h := n.hosts[ip]
	if h == nil || !h.DaemonEnabled || n.closed {
		return "", false
	}
	if h.server == nil {
		srv := daemon.NewServer(h.Daemon)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("netsim: %s's daemon: %v", h.Name, err))
		}
		h.server, h.addr = srv, addr.String()
	}
	return h.addr, true
}

// Go implements query.Lower. The zone controllers between home and host see
// the query in path order: the first that answers for host ends it there, on
// the spot (§3.4); otherwise host's daemon answers over the pool and each of
// them augments the response on its way back. The exchange is outstanding,
// for Run's wait, until done has returned.
func (l *lower) Go(host netaddr.IP, q wire.Query, start, deadline time.Time, done func(*wire.Response, time.Duration, error)) {
	n := l.n
	n.mu.Lock()
	n.exchanges++
	n.mu.Unlock()
	ask := func(reply func(*wire.Response, time.Duration, error)) { l.Pool.Go(host, q, start, deadline, reply) }
	core.InterceptChain{Outbound: n.interceptors(l.home, host)}.Exchange(host, q, ask, func(resp *wire.Response, rtt time.Duration, err error) {
		done(resp, rtt, err)
		n.mu.Lock()
		n.exchanges--
		n.cond.Broadcast()
		n.mu.Unlock()
	})
}

// SetUpdateHandler hands a hello to the controller on the pool's reader,
// before the reader decodes the answer behind it, as identctl's pool does;
// every other update is queued as an event. Either way it notes the serial
// for Run's wait. A host the pool subscribed to counts from its hello on.
func (l *lower) SetUpdateHandler(fn func(host netaddr.IP, u wire.Update)) {
	n := l.n
	l.Pool.SetUpdateHandler(func(ip netaddr.IP, u wire.Update) {
		if u.Hello {
			fn(ip, u)
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		if h := n.hosts[ip]; h != nil {
			l.serials[h] = u.Serial
		}
		if !u.Hello {
			n.events = append(n.events, func() { fn(ip, u) })
		}
		n.updates++
		n.cond.Broadcast()
	})
}

// behind reports whether a daemon some transport subscribed to has published
// an update that transport has not queued. It reads each daemon's serial
// under the daemon's publication lock, so n.mu must not be held: a daemon
// pushes under that lock, and queuing the push takes n.mu.
func (n *Network) behind() bool {
	type sub struct {
		d      *daemon.Daemon
		serial uint64
	}
	var subs []sub
	n.mu.Lock()
	for _, l := range n.lowers {
		for h, serial := range l.serials {
			subs = append(subs, sub{h.Daemon, serial})
		}
	}
	n.mu.Unlock()
	for _, s := range subs {
		if s.d.UpdateSerial() > s.serial {
			return true
		}
	}
	return false
}

// interceptors lists the zone controllers on the switch path from home to
// host's switch, each once, in path order.
func (n *Network) interceptors(home uint64, host netaddr.IP) []core.Interceptor {
	n.mu.Lock()
	defer n.mu.Unlock()
	h, ok := n.hosts[host]
	if !ok {
		return nil
	}
	hops, err := n.routeLocked(home, h.attachSW)
	if err != nil {
		return nil
	}
	var chain []core.Interceptor
	for _, hop := range hops {
		if ic := n.switches[hop.Datapath].Interceptor; ic != nil && !slices.Contains(chain, ic) {
			chain = append(chain, ic)
		}
	}
	return chain
}

// attach makes c the switch's OpenFlow controller and its zone's
// interceptor (§3.4), and registers the switch as c's datapath.
func (n *Network) attach(c *core.Controller, s *SwitchNode) {
	s.SW.SetController(c)
	c.AddDatapath(s.SW)
	n.mu.Lock()
	s.Interceptor = c
	n.mu.Unlock()
}

// Close stops every engine, pool and daemon server the network started;
// queries after it fail. A second Close does nothing.
func (n *Network) Close() {
	n.mu.Lock()
	lowers := n.lowers
	n.lowers, n.closed = nil, true
	var servers []*daemon.Server
	for _, h := range n.hosts {
		if h.server != nil {
			servers = append(servers, h.server)
			h.server = nil
		}
	}
	n.mu.Unlock()
	for _, l := range lowers {
		l.eng.Close()
		l.Pool.Close()
	}
	for _, s := range servers {
		s.Close()
	}
}
