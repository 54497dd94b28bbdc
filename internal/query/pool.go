package query

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/link"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/sig"
	"identxx/internal/wire"
)

// PoolConfig parameterizes a Pool; the zero value is usable.
type PoolConfig struct {
	// Resolver maps host IPs to daemon addresses. Required.
	Resolver Resolver

	// RequestTimeout is the per-request deadline Query applies when the
	// caller does not supply one via Exchange or Go (default 2s).
	RequestTimeout time.Duration

	// MaxBackoff caps the reconnect backoff after repeated dial failures
	// (default 2s; backoff starts at 50ms and doubles).
	MaxBackoff time.Duration

	// Counters receives transport counters; a private set when nil.
	Counters *metrics.Counter

	// AuthorityKey, when set, switches the pool into credentialed mode
	// (cred.go): every per-host session must present a credential issued
	// by this authority in its hello and prove possession via the signed
	// hello transcript. Responses and updates from sessions that never
	// verified — or whose credential expired — are rejected as
	// core.IsNoDaemon failures. Zero value = insecure mode (netsim,
	// experiments): every session is trusted, as before.
	AuthorityKey sig.PublicKey
}

const (
	defaultRequestTimeout = 2 * time.Second
	defaultMaxBackoff     = 2 * time.Second

	// maxInFlight is the pipe's count limit: none. Queries queue behind one
	// another up to link.Bound bytes, where senders block.
	maxInFlight = 0
)

// Pool is the pooled TCP transport of the query plane: one connection per
// end-host, multiplexed and pipelined — any number of in-flight requests
// share the connection, correlated to responses by FIFO order, which is
// exactly the order daemon.Server answers one connection's queries in.
// Each response's flow tuple is checked against its request's as a desync
// guard. Pool implements core.QueryTransport.
type Pool struct {
	resolver   Resolver
	reqTimeout time.Duration
	maxBackoff time.Duration
	authority  sig.PublicKey // non-zero: credentialed mode (cred.go)
	exchanges  sync.Pool     // *exchange

	Counters *metrics.Counter
	// Conns gauges currently established connections.
	Conns metrics.Gauge

	// onUpdate receives daemon-pushed endpoint-state updates (revocation
	// plane). When set, every dialed connection subscribes; the reader
	// demuxes update frames out of the FIFO correlation path and delivers
	// them here with the daemon's host identity. See SetUpdateHandler.
	updMu    sync.RWMutex
	onUpdate func(host netaddr.IP, u wire.Update)

	mu     sync.Mutex
	hosts  map[netaddr.IP]*hostConn
	closed bool
}

// NewPool creates a pooled transport.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Resolver == nil {
		panic("query: PoolConfig.Resolver is required")
	}
	p := &Pool{
		resolver:   cfg.Resolver,
		reqTimeout: cfg.RequestTimeout,
		maxBackoff: cfg.MaxBackoff,
		authority:  cfg.AuthorityKey,
		Counters:   cfg.Counters,
		hosts:      make(map[netaddr.IP]*hostConn),
	}
	if p.reqTimeout <= 0 {
		p.reqTimeout = defaultRequestTimeout
	}
	if p.maxBackoff <= 0 {
		p.maxBackoff = defaultMaxBackoff
	}
	if p.Counters == nil {
		p.Counters = metrics.NewCounter()
	}
	return p
}

// SetUpdateHandler installs the sink for daemon-pushed endpoint-state
// updates. Connections dialed while a handler is installed subscribe to
// their daemon's update stream; per-host serial numbers are checked on the
// reader, and a gap — missed updates, a daemon restart, a reconnection
// that skipped over pushes — is surfaced to the handler as a synthetic
// resync update (zero flow, empty key) before the real one, so the caller
// can invalidate everything it believes about the host. The handler runs
// on the connection's reader goroutine: it must not block for long and
// must not call back into the Pool.
//
// Install the handler before the first query; already-established
// connections do not retroactively subscribe (they will on reconnect).
func (p *Pool) SetUpdateHandler(fn func(host netaddr.IP, u wire.Update)) {
	p.updMu.Lock()
	p.onUpdate = fn
	p.updMu.Unlock()
}

func (p *Pool) updateFn() func(host netaddr.IP, u wire.Update) {
	p.updMu.RLock()
	fn := p.onUpdate
	p.updMu.RUnlock()
	return fn
}

// Query implements core.QueryTransport with the pool's default deadline.
func (p *Pool) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	return p.Exchange(host, q, time.Now().Add(p.reqTimeout))
}

// waiter is a completion to wait for: done is handed to what completes.
// Recycled with done bound, so a blocking call allocates neither.
type waiter struct {
	ch   chan result
	done completion
}

type result struct {
	resp *wire.Response
	rtt  time.Duration
	err  error
}

var waiters = sync.Pool{New: func() any {
	w := &waiter{ch: make(chan result, 1)}
	w.done = func(resp *wire.Response, rtt time.Duration, err error) { w.ch <- result{resp, rtt, err} }
	return w
}}

func (w *waiter) wait() (*wire.Response, time.Duration, error) {
	r := <-w.ch
	waiters.Put(w)
	return r.resp, r.rtt, r.err
}

// Exchange is Go and a wait for its completion.
func (p *Pool) Exchange(host netaddr.IP, q wire.Query, deadline time.Time) (*wire.Response, time.Duration, error) {
	w := waiters.Get().(*waiter)
	p.Go(host, q, deadline, w.done)
	return w.wait()
}

// Go starts one query/response round trip against host's daemon and returns;
// it waits for nothing, a dial included. done runs exactly once, with the
// response or the failure (ErrDeadline once deadline passes) and the time
// since Go was called — behind a busy pipeline, the wait in it included — on
// the goroutine link.Pipe completes the call on: the host connection's
// reader for a response. It may call Go again and must not block.
func (p *Pool) Go(host netaddr.IP, q wire.Query, deadline time.Time, done func(*wire.Response, time.Duration, error)) {
	x, _ := p.exchanges.Get().(*exchange)
	if x == nil {
		x = &exchange{pool: p}
		x.frame, x.reply = x.appendQuery, x.complete
	}
	x.q, x.done, x.start = q, done, time.Now()
	hc, err := p.host(host)
	if err != nil {
		x.complete(nil, err)
		return
	}
	hc.pipe.Go(q.Flow, deadline, x.frame, x.reply)
}

// exchange is one round trip in progress. The two funcs the pipe needs are
// bound once and recycled with it, so a query allocates neither.
type exchange struct {
	pool  *Pool
	q     wire.Query
	start time.Time
	done  func(*wire.Response, time.Duration, error)
	frame func([]byte) ([]byte, error)
	reply func(*wire.Response, error)
}

func (x *exchange) appendQuery(b []byte) ([]byte, error) {
	b, err := wire.AppendQuery(b, x.q)
	if err == nil {
		x.pool.Counters.Add("pool_queries_sent", 1)
	}
	return b, err
}

func (x *exchange) complete(resp *wire.Response, err error) {
	if errors.Is(err, ErrDeadline) {
		x.pool.Counters.Add("pool_timeouts", 1)
	}
	done, rtt := x.done, time.Since(x.start)
	x.q, x.done = wire.Query{}, nil
	x.pool.exchanges.Put(x)
	done(resp, rtt, err)
}

// host returns (creating if needed) the connection manager for host.
func (p *Pool) host(host netaddr.IP) (*hostConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if hc, ok := p.hosts[host]; ok {
		return hc, nil
	}
	addr, ok := p.resolver.Resolve(host)
	if !ok {
		// Resolver-level knowledge: this host runs no daemon. Not cached
		// in the pool (the resolver is the cache); cheap either way.
		return nil, fmt.Errorf("query: no daemon address for %s: %w", host, core.ErrNoDaemon)
	}
	hc := &hostConn{pool: p, host: host}
	// Every flush gets the request timeout as its write deadline: a daemon
	// that stops reading is torn down within it.
	hc.pipe = link.NewPipe(&hc.mu, addr, p.reqTimeout, p.maxBackoff, maxInFlight, link.Plane[flow.Five, *wire.Response]{
		Frame: hc.frame, Opened: hc.opened, DialFailed: hc.dialFailed, Down: hc.down,
	})
	p.hosts[host] = hc
	return hc, nil
}

// Close tears down every connection and fails all in-flight requests.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	hosts := make([]*hostConn, 0, len(p.hosts))
	for _, hc := range p.hosts {
		hosts = append(hosts, hc)
	}
	p.mu.Unlock()
	for _, hc := range hosts {
		hc.pipe.Close(ErrClosed)
	}
	return nil
}

// hostConn is one daemon's session: the pipelined connection and, under the
// lock the connection runs under, what the query plane knows per session.
type hostConn struct {
	pool *Pool
	host netaddr.IP

	// mu guards everything below and is the lock pipe runs under, so opened
	// and down change session state in the critical section that opens or
	// tears down the connection. The pipe checks each response's flow tuple
	// against its query's (the call's key) as a desync guard.
	mu   sync.Mutex
	pipe *link.Pipe[flow.Five, *wire.Response]

	// Update-stream serial tracking, across connections: lastSerial is the
	// serial of the last update (or hello) seen from this daemon, ever.
	// The reader compares each arrival against it; any discontinuity —
	// including a hello after reconnect whose serial says pushes happened
	// while we were away — forces a resync.
	lastSerial uint64
	haveSerial bool

	// cred is the session's credential-verification state (cred.go);
	// meaningful only in credentialed pools.
	cred credState
}

// opened runs when a dial succeeds (hc.mu held): what it appends is first on
// the new connection.
func (hc *hostConn) opened(b []byte) []byte {
	hc.pool.Counters.Add("pool_dials", 1)
	hc.pool.Conns.Inc()
	if hc.pool.updateFn() == nil && !hc.pool.credentialed() {
		return b
	}
	// Opt this connection into the daemon's update stream before any query
	// goes out. The daemon acknowledges with a hello update the reader
	// demuxes; a subscribe the daemon cannot take breaks the connection and
	// surfaces as an ordinary exchange failure. Credentialed pools always
	// subscribe even with no update handler: the hello is where the
	// session's credential arrives. (An empty payload cannot be over the
	// frame limit: no error to handle.)
	b, _ = wire.AppendFrame(b, wire.Frame{Type: wire.FrameSubscribe})
	hc.pool.Counters.Add("pool_subscribes", 1)
	return b
}

// dialFailed classifies a dial failure; calls inside the backoff window get
// the same error again without paying the dial latency.
func (hc *hostConn) dialFailed(err error, cached bool) error {
	if cached {
		hc.pool.Counters.Add("pool_dial_backoff_fastfails", 1)
		return err
	}
	hc.pool.Counters.Add("pool_dial_errors", 1)
	return classifyDial(err)
}

// classifyDial separates "no daemon there" from "host unreachable". A
// connection refused means the host is up and not serving port 783 — the
// §4 daemon-less case, so the error matches core.ErrNoDaemon and the
// controller may answer on the host's behalf. Anything else (dial timeout,
// no route) is a reachability failure that must NOT be impersonated; it
// stays a plain ErrDial so the policy sees a no-info verdict.
func classifyDial(err error) error {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return fmt.Errorf("query: %w: %w", err, core.ErrNoDaemon)
	}
	// Both wrapped: ErrDial drives the negative cache, and the original
	// error keeps its net.Error shape so a dial timeout still counts as a
	// timeout (query_timeouts), not a generic query_error.
	return fmt.Errorf("query: %w: %w", err, ErrDial)
}

// frame is the pipe's view of one frame from the daemon. Update frames —
// which the daemon pushes unsolicited, so they carry no pipeline slot — are
// handed to the pool's update handler; anything else must be the response to
// the oldest query outstanding.
func (hc *hostConn) frame(f wire.Frame) (key flow.Five, resp *wire.Response, _ link.Verdict, err error) {
	if f.Type == wire.FrameUpdate {
		if !hc.handleUpdate(f) {
			return key, nil, link.Fatal, errors.New("malformed update")
		}
		return key, nil, link.OutOfBand, nil
	}
	resp, err = wire.DecodeResponse(f.Payload, f.SrcIP, f.DstIP)
	if f.Type != wire.FrameResponse || err != nil {
		return key, nil, link.Fatal, fmt.Errorf("unexpected frame %#02x: %v", f.Type, err)
	}
	if hc.pool.credentialed() {
		// Session-level authorization: daemon.Server processes one
		// connection's frames in order, so the hello (and its verify)
		// always lands before the first response. The connection itself
		// stays up — an unauthorized daemon is still a daemon, just one
		// whose word counts for nothing.
		if err := hc.authorizeResponse(resp); err != nil {
			return resp.Flow, nil, link.Reply, err
		}
	}
	return resp.Flow, resp, link.Reply, nil
}

// handleUpdate decodes and delivers one pushed update, enforcing serial
// continuity. It returns false on a decode failure (the connection is no
// longer trustworthy). Serial discontinuities do not kill the connection:
// they deliver a synthetic resync first — the receiver invalidates its
// whole view of the host — and then adopt the new serial, because the
// stream itself is intact, only our knowledge lapsed.
func (hc *hostConn) handleUpdate(frame wire.Frame) bool {
	u, err := wire.DecodeUpdateFrame(frame)
	if err != nil {
		hc.pool.Counters.Add("pool_update_decode_errors", 1)
		return false
	}
	fn := hc.pool.updateFn()

	// Credentialed pools authenticate the stream before believing it:
	// hellos carry the session's credential (verified here, once), and
	// everything from an unverified session is suppressed — including the
	// hello itself, so an unauthenticated daemon is never marked
	// push-capable, and synthetic resyncs, so a forger cannot flush the
	// controller's answer-on-behalf state for a host it doesn't own. The
	// one resync an untrusted peer *can* cause is credResync: the moment a
	// previously verified session turns untrusted, everything admitted on
	// its word is torn down — our decision, not the daemon's.
	credResync, suppress := false, false
	if hc.pool.credentialed() {
		if u.Hello {
			credResync, suppress = hc.verifyHello(u)
		} else {
			suppress = hc.filterUpdate(u)
		}
	}

	hc.mu.Lock()
	resync := false
	if u.Hello {
		// A hello re-baselines the stream. After a reconnect, a serial
		// other than the one we left off at means updates were pushed (or
		// the daemon restarted) while we were away.
		resync = hc.haveSerial && u.Serial != hc.lastSerial
	} else {
		resync = !hc.haveSerial || u.Serial != hc.lastSerial+1
	}
	hc.lastSerial, hc.haveSerial = u.Serial, true
	hc.mu.Unlock()
	if fn == nil {
		return true
	}
	if (resync && !suppress) || credResync {
		hc.pool.Counters.Add("pool_update_resyncs", 1)
		fn(hc.host, wire.Update{Serial: u.Serial})
	}
	if suppress {
		return true
	}
	hc.pool.Counters.Add("pool_updates", 1)
	fn(hc.host, u)
	return true
}

// down runs once per connection, when it is torn down (hc.mu held).
func (hc *hostConn) down(failed int) {
	// Credential trust is per-session: the next connection's hello must
	// re-verify. Last-known status (present/err/expiry) survives for the
	// admin plane; no resync is emitted — if the reconnect hello verifies
	// at an unchanged serial, continuity was never broken.
	hc.cred.verified = false
	hc.stopLapseLocked()
	hc.pool.Conns.Dec()
	if failed > 0 {
		hc.pool.Counters.Add("pool_requests_failed", int64(failed))
	}
}
