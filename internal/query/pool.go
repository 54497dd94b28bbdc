package query

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
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

	// DialTimeout bounds connection establishment (default 1s). A request
	// deadline closer than this wins.
	DialTimeout time.Duration

	// RequestTimeout is the per-request deadline Query applies when the
	// caller does not supply one via Exchange (default 2s).
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
	defaultDialTimeout    = 1 * time.Second
	defaultRequestTimeout = 2 * time.Second
	defaultMaxBackoff     = 2 * time.Second
	initialBackoff        = 50 * time.Millisecond

	// readGrace pads the reader's deadline horizon past the last request's
	// deadline, so per-request timeouts abandon their slot (keeping the
	// connection and its pipeline intact) before the reader declares the
	// whole connection hung and tears it down.
	readGrace = 500 * time.Millisecond

	// connReadBuf is each connection's read buffer: a burst of a dozen
	// responses per read. A larger frame is read straight into its own
	// payload. One is held per daemon, so it is no larger than that
	// (docs/architecture.md, "Wire I/O").
	connReadBuf = 4 << 10
)

// Pool is the pooled TCP transport of the query plane: one connection per
// end-host, multiplexed and pipelined — any number of in-flight requests
// share the connection, correlated to responses by FIFO order, which is
// exactly the order daemon.Server answers one connection's queries in.
// Each response's flow tuple is checked against its request's as a desync
// guard. Pool implements core.QueryTransport.
type Pool struct {
	resolver    Resolver
	dialTimeout time.Duration
	reqTimeout  time.Duration
	maxBackoff  time.Duration
	authority   sig.PublicKey // non-zero: credentialed mode (cred.go)

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
		resolver:    cfg.Resolver,
		dialTimeout: cfg.DialTimeout,
		reqTimeout:  cfg.RequestTimeout,
		maxBackoff:  cfg.MaxBackoff,
		authority:   cfg.AuthorityKey,
		Counters:    cfg.Counters,
		hosts:       make(map[netaddr.IP]*hostConn),
	}
	if p.dialTimeout <= 0 {
		p.dialTimeout = defaultDialTimeout
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

// Exchange performs one query/response round trip against host's daemon,
// failing with ErrDeadline once deadline passes. The reported duration is
// the caller-observed round trip (wall time).
func (p *Pool) Exchange(host netaddr.IP, q wire.Query, deadline time.Time) (*wire.Response, time.Duration, error) {
	start := time.Now()
	hc, err := p.host(host)
	if err != nil {
		return nil, time.Since(start), err
	}
	resp, err := hc.exchange(q, deadline)
	return resp, time.Since(start), err
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
	hc := &hostConn{pool: p, host: host, addr: addr}
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
		hc.mu.Lock()
		gen := hc.gen
		hc.mu.Unlock()
		hc.teardown(gen, ErrClosed)
	}
	return nil
}

// call is one in-flight request's slot in a connection's pipeline. Its
// lifecycle is governed by state: the reader CASes waiting→delivered and
// sends on done; an abandoning waiter (deadline) CASes waiting→abandoned
// and leaves, after which the reader recycles the slot when its (late)
// response or the teardown reaches it — correlation survives timeouts.
type call struct {
	flow  flow.Five
	state atomic.Int32
	done  chan callResult
}

type callResult struct {
	resp *wire.Response
	err  error
}

const (
	callWaiting int32 = iota
	callDelivered
	callAbandoned
)

var callPool = sync.Pool{New: func() any {
	return &call{done: make(chan callResult, 1)}
}}

func acquireCall(f flow.Five) *call {
	c := callPool.Get().(*call)
	c.flow = f
	c.state.Store(callWaiting)
	return c
}

func releaseCall(c *call) {
	// Drain a deposited-but-unreceived result so the slot is clean.
	select {
	case <-c.done:
	default:
	}
	c.flow = flow.Five{}
	callPool.Put(c)
}

// timerPool recycles the deadline timer every exchange waits on: nearly all
// are stopped unfired a round trip later, and a stopped or fired timer
// delivers nothing stale after Reset (Go 1.23 timer channels).
var timerPool sync.Pool

func acquireTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	t.Stop()
	timerPool.Put(t)
}

// hostConn owns the single pipelined connection to one daemon.
type hostConn struct {
	pool *Pool
	host netaddr.IP
	addr string

	// mu guards everything below, the coalescing writer's buffer included:
	// send appends a call to pending and its frame to out.Buf in one
	// critical section, so the pending queue's order is the wire order —
	// the correlation invariant — by construction.
	mu       sync.Mutex
	conn     net.Conn
	out      *link.Writer // conn's only writer; nil exactly when conn is
	gen      uint64       // bumped by teardown; stale readers/teardowns no-op
	pending  []*call
	horizon  time.Time // read deadline currently set on conn
	dialErr  error     // last dial failure, served during backoff
	nextDial time.Time
	backoff  time.Duration

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

// exchange queues one query and waits for its response or the deadline.
func (hc *hostConn) exchange(q wire.Query, deadline time.Time) (*wire.Response, error) {
	c, err := hc.send(q, deadline)
	if err != nil {
		return nil, err
	}
	timer := acquireTimer(time.Until(deadline))
	defer releaseTimer(timer)
	select {
	case r := <-c.done:
		releaseCall(c)
		return r.resp, r.err
	case <-timer.C:
		if c.state.CompareAndSwap(callWaiting, callAbandoned) {
			// The reader recycles the slot when it reaches it; the
			// connection and the requests pipelined behind ours live on.
			hc.pool.Counters.Add("pool_timeouts", 1)
			return nil, fmt.Errorf("query: %s: %w", hc.addr, ErrDeadline)
		}
		// Delivery won the race: the result is already deposited.
		r := <-c.done
		releaseCall(c)
		return r.resp, r.err
	}
}

// send dials if needed, then enqueues the call and appends its frame to the
// connection's pending buffer; the writer goroutine puts the burst on the
// wire. A write that fails later tears the connection down and fails the
// call like every other one pending.
func (hc *hostConn) send(q wire.Query, deadline time.Time) (*call, error) {
	hc.mu.Lock()
	defer hc.mu.Unlock()
	if hc.conn == nil {
		if err := hc.dialLocked(deadline); err != nil {
			return nil, err
		}
	}
	// Reserve may wait with hc.mu released; it fails if the connection was
	// torn down meanwhile, so past it out is still hc.conn's writer.
	conn, out := hc.conn, hc.out
	if err := out.Reserve(); err != nil {
		return nil, err
	}
	b, err := wire.AppendQuery(out.Buf, q)
	if err != nil {
		return nil, err
	}
	out.Buf = b
	c := acquireCall(q.Flow)
	hc.pending = append(hc.pending, c)
	if h := deadline.Add(readGrace); h.After(hc.horizon) {
		hc.horizon = h
		conn.SetReadDeadline(h)
	}
	out.Flush()
	hc.pool.Counters.Add("pool_queries_sent", 1)
	return c, nil
}

// dialLocked establishes the connection (hc.mu held). During backoff after
// a failure it fails fast with the cached error instead of paying the dial
// latency again.
func (hc *hostConn) dialLocked(deadline time.Time) error {
	// A closed pool must not grow fresh connections: Close tears down
	// conns after setting closed under p.mu, and this check runs with
	// hc.mu held for the whole dial, so a dial that slips past it is
	// always visible to (and closed by) Close's teardown.
	hc.pool.mu.Lock()
	closed := hc.pool.closed
	hc.pool.mu.Unlock()
	if closed {
		return ErrClosed
	}
	now := time.Now()
	if hc.dialErr != nil && now.Before(hc.nextDial) {
		hc.pool.Counters.Add("pool_dial_backoff_fastfails", 1)
		return hc.dialErr
	}
	timeout := hc.pool.dialTimeout
	if until := time.Until(deadline); until < timeout {
		timeout = until
	}
	if timeout <= 0 {
		return fmt.Errorf("query: %s: %w", hc.addr, ErrDeadline)
	}
	conn, err := net.DialTimeout("tcp", hc.addr, timeout)
	if err != nil {
		if hc.backoff == 0 {
			hc.backoff = initialBackoff
		} else if hc.backoff < hc.pool.maxBackoff {
			hc.backoff *= 2
			if hc.backoff > hc.pool.maxBackoff {
				hc.backoff = hc.pool.maxBackoff
			}
		}
		hc.nextDial = now.Add(hc.backoff)
		hc.dialErr = classifyDial(hc.addr, err)
		hc.pool.Counters.Add("pool_dial_errors", 1)
		return hc.dialErr
	}
	hc.backoff = 0
	hc.dialErr = nil
	hc.conn = conn
	hc.horizon = time.Time{}
	hc.pool.Counters.Add("pool_dials", 1)
	hc.pool.Conns.Inc()
	// Every flush gets the request timeout as its write deadline: a daemon
	// that stops reading is torn down within it, as when each query's write
	// carried the query's own deadline.
	gen := hc.gen
	hc.out = link.NewWriter(&hc.mu, link.Deadlined(conn, hc.pool.reqTimeout), func(err error) {
		hc.teardown(gen, fmt.Errorf("query: write %s: %w", hc.addr, err))
	})
	go hc.readLoop(conn, gen)
	if hc.pool.updateFn() != nil || hc.pool.credentialed() {
		// Opt this connection into the daemon's update stream before any
		// query goes out (the caller holds hc.mu, so the frame is first in
		// the buffer). The daemon acknowledges with a hello update the
		// reader demuxes; a subscribe the daemon cannot take breaks the
		// connection and surfaces as an ordinary exchange failure.
		// Credentialed pools always subscribe even with no update handler:
		// the hello is where the session's credential arrives. (An empty
		// payload cannot be over the frame limit: no error to handle.)
		hc.out.Buf, _ = wire.AppendFrame(hc.out.Buf, wire.Frame{Type: wire.FrameSubscribe})
		hc.out.Flush()
		hc.pool.Counters.Add("pool_subscribes", 1)
	}
	return nil
}

// classifyDial separates "no daemon there" from "host unreachable". A
// connection refused means the host is up and not serving port 783 — the
// §4 daemon-less case, so the error matches core.ErrNoDaemon and the
// controller may answer on the host's behalf. Anything else (dial timeout,
// no route) is a reachability failure that must NOT be impersonated; it
// stays a plain ErrDial so the policy sees a no-info verdict.
func classifyDial(addr string, err error) error {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return fmt.Errorf("query: dial %s: %w: %w", addr, err, core.ErrNoDaemon)
	}
	// Both wrapped: ErrDial drives the negative cache, and the original
	// error keeps its net.Error shape so a dial timeout still counts as a
	// timeout (query_timeouts), not a generic query_error.
	return fmt.Errorf("query: dial %s: %w: %w", addr, err, ErrDial)
}

// readLoop is the connection's single reader: it pops the pending queue in
// FIFO order, matching daemon.Server's in-order responses. Update frames —
// which the daemon pushes unsolicited, so they carry no pipeline slot —
// are demuxed out of the correlation path and handed to the pool's update
// handler before the loop returns to the stream.
func (hc *hostConn) readLoop(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, connReadBuf)
	var frame wire.Frame
	var payload []byte // every frame's, in turn: decoding copies what it keeps
	for {
		var err error
		frame, payload, err = wire.ReadFrameInto(br, payload)
		if err != nil {
			hc.teardown(gen, fmt.Errorf("query: read %s: %w", hc.addr, err))
			return
		}
		if frame.Type == wire.FrameUpdate {
			if !hc.handleUpdate(frame) {
				hc.teardown(gen, fmt.Errorf("query: %s: malformed update", hc.addr))
				return
			}
			continue
		}
		resp, err := wire.DecodeResponse(frame.Payload, frame.SrcIP, frame.DstIP)
		if frame.Type != wire.FrameResponse || err != nil {
			hc.teardown(gen, fmt.Errorf("query: read %s: unexpected frame %#02x: %v", hc.addr, frame.Type, err))
			return
		}
		hc.mu.Lock()
		if hc.gen != gen {
			hc.mu.Unlock()
			return // torn down concurrently; teardown owned the pending queue
		}
		if len(hc.pending) == 0 {
			hc.mu.Unlock()
			hc.teardown(gen, fmt.Errorf("query: %s: unsolicited response", hc.addr))
			return
		}
		c := hc.pending[0]
		hc.pending = hc.pending[1:]
		if len(hc.pending) == 0 {
			// Nothing outstanding: an idle connection must not trip the
			// reader's hung-connection deadline.
			hc.horizon = time.Time{}
			conn.SetReadDeadline(time.Time{})
		}
		hc.mu.Unlock()
		if resp.Flow != c.flow {
			// Correlation broken — a daemon answering out of order or a
			// protocol bug. Fail everything rather than misattribute.
			deliver(c, callResult{err: fmt.Errorf("query: %s: response flow %v does not match query %v", hc.addr, resp.Flow, c.flow)})
			hc.teardown(gen, fmt.Errorf("query: %s: pipeline desync", hc.addr))
			return
		}
		if hc.pool.credentialed() {
			// Session-level authorization: daemon.Server processes one
			// connection's frames in order, so the hello (and its verify)
			// always lands before the first response. The connection
			// itself stays up — an unauthorized daemon is still a daemon,
			// just one whose word counts for nothing.
			if err := hc.authorizeResponse(resp); err != nil {
				deliver(c, callResult{err: err})
				continue
			}
		}
		deliver(c, callResult{resp: resp})
	}
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

// deliver completes a call under the state protocol; abandoned slots are
// recycled here, on the reader, exactly once.
func deliver(c *call, r callResult) {
	if c.state.CompareAndSwap(callWaiting, callDelivered) {
		c.done <- r
		return
	}
	releaseCall(c)
}

// teardown closes the connection, fails every pending call, and arms the
// redial backoff. gen guards against a stale teardown (from a reader or
// writer of a previous connection) killing a fresh connection.
func (hc *hostConn) teardown(gen uint64, err error) {
	hc.mu.Lock()
	if hc.gen != gen {
		hc.mu.Unlock()
		return
	}
	hc.gen++
	conn := hc.conn
	hc.conn = nil
	if hc.out != nil {
		hc.out.Close(err)
		hc.out = nil
	}
	failed := hc.pending
	hc.pending = nil
	hc.horizon = time.Time{}
	// Credential trust is per-session: the next connection's hello must
	// re-verify. Last-known status (present/err/expiry) survives for the
	// admin plane; no resync is emitted — if the reconnect hello verifies
	// at an unchanged serial, continuity was never broken.
	hc.cred.verified = false
	hc.stopLapseLocked()
	// The next exchange redials immediately — losing an established
	// connection says nothing about whether a fresh dial will succeed.
	// The dial backoff arms only when that dial itself fails.
	hc.dialErr = nil
	hc.mu.Unlock()
	if conn != nil {
		conn.Close()
		hc.pool.Conns.Dec()
	}
	if len(failed) > 0 {
		hc.pool.Counters.Add("pool_requests_failed", int64(len(failed)))
	}
	for _, c := range failed {
		deliver(c, callResult{err: err})
	}
}
