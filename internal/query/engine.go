package query

import (
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// Lower is the wire layer underneath an Engine — core.QueryTransport's
// shape, satisfied by *Pool (real TCP), netsim.Transport (the §5–§6
// simulator), and the baselines. A Lower that also has *Pool's Go(host, q,
// deadline, done) is never waited on: a flight's completion runs on the
// goroutine that decoded the response. One that only blocks is called on the
// goroutine that started the flight, which waits out the exchange (the
// simulator's is analytic: it computes the round trip, it does not wait for
// it).
type Lower interface {
	Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error)
}

// updateSource is the optional push face of a Lower: transports that can
// deliver daemon-pushed endpoint-state updates (*Pool over TCP,
// netsim.Transport in the simulator) implement it. Lowers without it are
// the honest-but-legacy case — the controller falls back to TTL leases.
type updateSource interface {
	SetUpdateHandler(fn func(host netaddr.IP, u wire.Update))
}

// Config parameterizes an Engine. The zero value of every field except
// Lower is a sensible default.
type Config struct {
	// Lower executes the actual wire exchange. Required.
	Lower Lower

	// RequestTimeout bounds each attempt (default 2s).
	RequestTimeout time.Duration

	// Retries is how many extra attempts follow a retryable transport
	// failure (default 1; negative disables retries). ErrNoDaemon and
	// breaker rejections are never retried.
	Retries int

	// NegativeTTL is how long a host-unreachable verdict (no daemon, or
	// dial failure) is served from the negative cache without touching the
	// wire (default 5s; negative disables the cache).
	NegativeTTL time.Duration

	// BreakerThreshold opens a host's circuit breaker after this many
	// consecutive failures (default 4; negative disables the breaker).
	BreakerThreshold int

	// BreakerCooldown is how long an open breaker rejects queries before
	// letting a probe through (default 1s).
	BreakerCooldown time.Duration

	// Clock supplies time for the negative cache and breaker; defaults to
	// time.Now. The simulator passes its virtual clock.
	Clock func() time.Time

	// Counters receives engine counters; a private set when nil.
	Counters *metrics.Counter
}

// Engine is the query-plane brain. It implements core.QueryTransport
// (blocking Query) and the completion-style faces core.Config.AsyncQueries
// asks for (QueryAsync, QueryAsyncTraced), multiplexing all of them over the
// same coalescing, caching, and breaker state.
type Engine struct {
	lower Lower
	// start issues one attempt: the lower's Go, or its blocking Query
	// completed inline.
	start   func(host netaddr.IP, q wire.Query, deadline time.Time, done func(*wire.Response, time.Duration, error))
	timeout time.Duration
	retries int
	negTTL  time.Duration
	brkN    int
	brkCool time.Duration
	clock   func() time.Time

	Counters *metrics.Counter
	// InFlight gauges queries between admission and delivery, coalesced
	// waiters excluded (they ride an already-counted flight).
	InFlight metrics.Gauge

	hot struct {
		sent, coalesced, negHits, retriesC        *atomic.Int64
		breakerOpens, breakerFastfails, timeoutsC *atomic.Int64
	}

	sfMu    sync.Mutex
	sf      map[sfKey]*flight
	idle    sync.Cond // on sfMu: Close waits here for InFlight to reach 0
	flights sync.Pool // *flight

	hostMu sync.Mutex
	hosts  map[netaddr.IP]*hostState

	closed atomic.Bool
}

// sfKey identifies coalesceable work: same host, same flow, same key
// hints — one wire query serves every concurrent asker. The hints are in it
// as a hash; join compares the lists themselves.
type sfKey struct {
	host netaddr.IP
	flow flow.Five
	keys uint64
}

var keySeed = maphash.MakeSeed()

// completion receives a delivered result; see the package comment for the
// borrow contract on resp.
type completion func(resp *wire.Response, rtt time.Duration, err error)

// qcb is one async waiter on a flight: the completion plus the waiter's
// flight-recorder buffer (nil for untraced decisions) and its endpoint
// flag. Keeping the trace context per-waiter means coalesced decisions
// each get the shared exchange's outcome recorded into their own trace.
type qcb struct {
	fn completion
	tb *trace.Buffer
	ep uint16
}

// flight is one in-flight wire query and the waiters coalesced onto it;
// flights are recycled, with the completion the lower layer is handed.
type flight struct {
	e        *Engine
	key      sfKey
	q        wire.Query
	attempts int32                                      // transport attempts started
	cbs      []qcb                                      // waiters; invoked at delivery
	reply    func(*wire.Response, time.Duration, error) // onReply
}

// hostState is the per-host availability record: negative cache, breaker,
// and the RTT histogram.
type hostState struct {
	mu       sync.Mutex
	negErr   error     // verdict served while the negative cache is live
	negUntil time.Time // negative-cache expiry
	fails    int       // consecutive failures feeding the breaker
	openTill time.Time // breaker-open horizon; zero when closed
	rtt      *metrics.Histogram
}

// NewEngine creates an engine over cfg.Lower.
func NewEngine(cfg Config) *Engine {
	if cfg.Lower == nil {
		panic("query: Config.Lower is required")
	}
	e := &Engine{
		lower:   cfg.Lower,
		timeout: cfg.RequestTimeout,
		retries: cfg.Retries,
		negTTL:  cfg.NegativeTTL,
		brkN:    cfg.BreakerThreshold,
		brkCool: cfg.BreakerCooldown,
		clock:   cfg.Clock,
		sf:      make(map[sfKey]*flight),
		hosts:   make(map[netaddr.IP]*hostState),
	}
	if gl, ok := cfg.Lower.(interface {
		Go(netaddr.IP, wire.Query, time.Time, func(*wire.Response, time.Duration, error))
	}); ok {
		e.start = gl.Go
	} else {
		e.start = func(host netaddr.IP, q wire.Query, _ time.Time, done func(*wire.Response, time.Duration, error)) {
			done(e.lower.Query(host, q))
		}
	}
	e.idle.L = &e.sfMu
	if e.timeout <= 0 {
		e.timeout = defaultRequestTimeout
	}
	if e.retries < 0 {
		e.retries = 0
	} else if cfg.Retries == 0 {
		e.retries = 1
	}
	if e.negTTL < 0 {
		e.negTTL = 0
	} else if cfg.NegativeTTL == 0 {
		e.negTTL = 5 * time.Second
	}
	if e.brkN < 0 {
		e.brkN = 0
	} else if cfg.BreakerThreshold == 0 {
		e.brkN = 4
	}
	if e.brkCool <= 0 {
		e.brkCool = time.Second
	}
	if e.clock == nil {
		e.clock = time.Now
	}
	e.Counters = cfg.Counters
	if e.Counters == nil {
		e.Counters = metrics.NewCounter()
	}
	e.hot.sent = e.Counters.Cell("engine_queries_sent")
	e.hot.coalesced = e.Counters.Cell("engine_coalesce_hits")
	e.hot.negHits = e.Counters.Cell("engine_negcache_hits")
	e.hot.retriesC = e.Counters.Cell("engine_retries")
	e.hot.breakerOpens = e.Counters.Cell("engine_breaker_opens")
	e.hot.breakerFastfails = e.Counters.Cell("engine_breaker_fastfails")
	e.hot.timeoutsC = e.Counters.Cell("engine_timeouts")
	return e
}

// SetUpdateHandler threads the revocation plane's update sink through to
// the lower transport. It returns false when the lower cannot push (no
// subscription support): the caller then knows every host is lease-only.
// The handler runs on transport goroutines (the pool's connection readers,
// the simulator's event loop); it must be quick and must not re-enter the
// engine.
//
// The engine interposes on the handler: a hello from a host is proof its
// daemon is back (the subscription handshake completed), so the host's
// negative-cache entry and breaker are cleared on the spot. Without
// this, a recovered daemon kept fast-failing queries for the remainder
// of the negative TTL — the fastFail gate never re-dialed, so the cache
// could not learn of the recovery it was built to paper over.
func (e *Engine) SetUpdateHandler(fn func(host netaddr.IP, u wire.Update)) bool {
	us, ok := e.lower.(updateSource)
	if !ok {
		return false
	}
	if fn == nil {
		us.SetUpdateHandler(nil)
		return true
	}
	us.SetUpdateHandler(func(host netaddr.IP, u wire.Update) {
		if u.Hello {
			e.hostRecovered(host)
		}
		fn(host, u)
	})
	return true
}

// hostRecovered clears a host's failure state after its daemon proved
// itself alive over the push channel: the negative cache stops serving
// the stale dial error, the breaker closes, and the next query goes to
// the wire immediately instead of after the TTL.
func (e *Engine) hostRecovered(host netaddr.IP) {
	hs := e.hostState(host)
	hs.mu.Lock()
	cleared := hs.negErr != nil || !hs.openTill.IsZero() || hs.fails > 0
	hs.negErr = nil
	hs.negUntil = time.Time{}
	hs.fails = 0
	hs.openTill = time.Time{}
	hs.mu.Unlock()
	if cleared {
		e.Counters.Add("engine_host_recoveries", 1)
	}
}

// Query implements core.QueryTransport: it blocks until the result is
// available, joining an identical in-flight query instead of issuing a
// duplicate.
func (e *Engine) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	w := waiters.Get().(*waiter)
	e.query(host, q, qcb{fn: w.done})
	return w.wait()
}

// QueryAsync is the completion-style face: done is invoked exactly once —
// inline for fast-path rejections (negative cache, breaker, closed, what the
// lower refuses on the spot) and over a lower that only blocks, otherwise on
// the goroutine that learns the outcome: over a Pool, the host connection's
// reader. It possibly shares one wire exchange with other callers. done must
// not block; the controller's continuation (evaluate + install) is the
// intended scale.
func (e *Engine) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	e.QueryAsyncTraced(host, q, nil, 0, done)
}

// QueryAsyncTraced is QueryAsync with a flight-recorder buffer: the engine
// records the query's enqueue (annotated with the gate that admitted or
// rejected it — coalesced onto an in-flight exchange, negative-cache hit,
// breaker fast-fail) and its completion (RTT, transport attempts, error)
// into tb. A nil tb records nothing and behaves exactly like QueryAsync.
func (e *Engine) QueryAsyncTraced(host netaddr.IP, q wire.Query, tb *trace.Buffer, ep uint16, done func(*wire.Response, time.Duration, error)) {
	e.query(host, q, qcb{fn: done, tb: tb, ep: ep})
}

// query passes the gates, then joins the flight for (host, q) or starts it.
// A rejection is an exchange like any other to the trace: an enqueue flagged
// with the gate that turned it away, then a failed done.
func (e *Engine) query(host netaddr.IP, q wire.Query, cb qcb) {
	gate, err := trace.FlagErr, ErrClosed
	if !e.closed.Load() {
		gate, err = e.fastFail(host)
	}
	if err != nil {
		cb.tb.Rec(trace.StageQueryEnqueue, cb.ep|gate, 0)
		cb.tb.Rec(trace.StageQueryDone, cb.ep|gate|trace.FlagErr, 0)
		cb.fn(nil, 0, err)
		return
	}
	if f, leader := e.join(host, q, cb); leader {
		f.launch()
	} else {
		e.hot.coalesced.Add(1)
	}
}

// Close rejects future queries, then blocks until every flight already
// started has been delivered (its waiters still get real results), so
// closing the Engine before its lower layer is safe — the identctl/defer
// idiom of eng.Close() then pool.Close() never yanks the transport out from
// under a flight. Close must not be called from a completion callback.
func (e *Engine) Close() {
	e.closed.Store(true)
	e.sfMu.Lock()
	for e.InFlight.Get() > 0 {
		e.idle.Wait()
	}
	e.sfMu.Unlock()
}

// fastFail consults the negative cache and the breaker; a non-nil error is
// delivered without touching the wire, and gate is the trace flag naming
// which of the two it was.
func (e *Engine) fastFail(host netaddr.IP) (gate uint16, err error) {
	hs := e.hostState(host)
	now := e.clock()
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.negErr != nil && now.Before(hs.negUntil) {
		e.hot.negHits.Add(1)
		return trace.FlagNegCache, hs.negErr
	}
	if !hs.openTill.IsZero() && now.Before(hs.openTill) {
		e.hot.breakerFastfails.Add(1)
		return trace.FlagBreaker, fmt.Errorf("query: %s: %w", host, ErrBreakerOpen)
	}
	return 0, nil
}

func (e *Engine) hostState(host netaddr.IP) *hostState {
	e.hostMu.Lock()
	defer e.hostMu.Unlock()
	hs, ok := e.hosts[host]
	if !ok {
		hs = &hostState{rtt: metrics.NewHistogram()}
		e.hosts[host] = hs
	}
	return hs
}

// HostRTT returns the RTT histogram for host (created on first use), for
// operators and the experiment harness.
func (e *Engine) HostRTT(host netaddr.IP) *metrics.Histogram {
	return e.hostState(host).rtt
}

// HostStatus is one host's availability snapshot: query volume and RTT
// from its histogram, the breaker and negative-cache state, and the
// consecutive-failure count feeding the breaker.
type HostStatus struct {
	Host        netaddr.IP
	Queries     int64 // RTT observations (delivered exchanges)
	RTTMean     time.Duration
	RTTP99      time.Duration
	Fails       int  // consecutive failures toward the breaker threshold
	BreakerOpen bool // breaker currently rejecting queries
	NegCached   bool // negative cache currently serving a failure verdict
}

// HostStats snapshots every host the engine has ever queried, sorted by
// address — the per-host drill-down behind `identctl admin hosts` and the
// telemetry export. The histograms are read with atomic loads, so the call
// is safe under live traffic and p99 is within one cell (12.5 %).
func (e *Engine) HostStats() []HostStatus {
	e.hostMu.Lock()
	hosts := make([]netaddr.IP, 0, len(e.hosts))
	states := make([]*hostState, 0, len(e.hosts))
	for h, hs := range e.hosts {
		hosts = append(hosts, h)
		states = append(states, hs)
	}
	e.hostMu.Unlock()
	now := e.clock()
	out := make([]HostStatus, len(hosts))
	for i, hs := range states {
		st := HostStatus{Host: hosts[i]}
		st.Queries = hs.rtt.Count()
		st.RTTMean = hs.rtt.Mean()
		st.RTTP99 = hs.rtt.Quantile(0.99)
		hs.mu.Lock()
		st.Fails = hs.fails
		st.BreakerOpen = !hs.openTill.IsZero() && now.Before(hs.openTill)
		st.NegCached = hs.negErr != nil && now.Before(hs.negUntil)
		hs.mu.Unlock()
		out[i] = st
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// join registers interest in (host, flow, keys): the first caller becomes
// the leader who must launch the flight; later callers coalesce onto it.
// The key deliberately excludes the trace ID — tracing must not defeat
// coalescing — so the leader's ID is the one a daemon sees on the wire.
func (e *Engine) join(host netaddr.IP, q wire.Query, cb qcb) (*flight, bool) {
	key := sfKey{host: host, flow: q.Flow}
	for _, k := range q.Keys {
		key.keys = key.keys*31 + maphash.String(keySeed, k)
	}
	e.sfMu.Lock()
	defer e.sfMu.Unlock()
	f, taken := e.sf[key]
	if taken && slices.Equal(f.q.Keys, q.Keys) {
		// Record the enqueue before the qcb is published: once it is
		// appended, the flight may be delivered — and the caller's
		// continuation re-pool tb — at any moment, so this is the last point
		// a write to tb cannot race deliver. The leader's query is the one on
		// the wire; this decision rides it, so the daemon attributes the RTT
		// to the leader's trace ID.
		cb.tb.Rec(trace.StageQueryEnqueue, cb.ep|trace.FlagCoalesced, 0)
		f.cbs = append(f.cbs, cb)
		return f, false
	}
	f, _ = e.flights.Get().(*flight)
	if f == nil {
		f = &flight{e: e}
		f.reply = f.onReply
	}
	f.key, f.q, f.attempts = key, q, 0
	cb.tb.Rec(trace.StageQueryEnqueue, cb.ep, 0)
	f.cbs = append(f.cbs, cb)
	if !taken { // a hash collision flies alone, outside the map
		e.sf[key] = f
	}
	e.InFlight.Inc()
	return f, true
}

// launch starts one attempt, which ends in onReply: over a Pool on the host
// connection's reader, over a lower that only blocks before launch returns.
func (f *flight) launch() {
	e := f.e
	e.hot.sent.Add(1)
	f.attempts++
	e.start(f.key.host, f.q, time.Now().Add(e.timeout), f.reply)
}

// onReply ends one attempt: retry, or settle the host's record and deliver.
// It is the lower layer's completion, so it runs wherever that does.
func (f *flight) onReply(resp *wire.Response, rtt time.Duration, err error) {
	e := f.e
	if err != nil && retryable(err) && int(f.attempts) <= e.retries {
		e.hot.retriesC.Add(1)
		f.launch()
		return
	}
	e.settle(f.key.host, rtt, err)
	e.deliver(f, resp, rtt, err)
}

// deliver hands a flight's result to every waiter, exactly once each, and
// recycles the flight. Once it is out of the map no one else can reach it.
func (e *Engine) deliver(f *flight, resp *wire.Response, rtt time.Duration, err error) {
	e.sfMu.Lock()
	if e.sf[f.key] == f {
		delete(e.sf, f.key)
	}
	e.InFlight.Dec()
	e.idle.Broadcast()
	e.sfMu.Unlock()
	for _, cb := range f.cbs {
		if cb.tb != nil {
			flags := cb.ep
			if err != nil {
				flags |= trace.FlagErr
			}
			cb.tb.RecAux(trace.StageQueryDone, flags, int64(rtt), f.attempts)
		}
		cb.fn(resp, rtt, err)
	}
	clear(f.cbs)
	f.cbs, f.q = f.cbs[:0], wire.Query{}
	e.flights.Put(f)
}

// settle updates the host's availability record from one exchange outcome.
func (e *Engine) settle(host netaddr.IP, rtt time.Duration, err error) {
	hs := e.hostState(host)
	now := e.clock()
	if err == nil {
		hs.mu.Lock()
		hs.fails = 0
		hs.openTill = time.Time{}
		hs.negErr = nil
		hs.mu.Unlock()
		hs.rtt.Observe(rtt) // outside hs.mu: Observe takes no lock
		return
	}
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if core.IsTimeout(err) {
		e.hot.timeoutsC.Add(1)
	}
	if e.negTTL > 0 && hostUnavailable(err) {
		// Host-granularity failure: no daemon there, or we cannot even
		// connect. Serve the same verdict from cache until the TTL runs
		// out, so a rack of daemon-less printers does not cost a dial
		// timeout per flow.
		hs.negErr = err
		hs.negUntil = now.Add(e.negTTL)
	}
	// An authoritative "no daemon" is the host answering, in its way —
	// connection refused means the machine is up. It must not feed the
	// breaker: an open breaker would replace ErrNoDaemon with
	// ErrBreakerOpen, and the controller's answer-on-behalf role (§3.4)
	// keys on the no-daemon classification surviving end to end.
	if e.brkN > 0 && !core.IsNoDaemon(err) {
		hs.fails++
		if hs.fails >= e.brkN && (hs.openTill.IsZero() || !now.Before(hs.openTill)) {
			hs.openTill = now.Add(e.brkCool)
			hs.fails = 0 // the post-cooldown probe restarts the count
			e.hot.breakerOpens.Add(1)
		}
	}
}

// retryable reports whether a failed attempt is worth repeating: transport
// trouble is, an authoritative "no daemon" is not.
func retryable(err error) bool {
	return !core.IsNoDaemon(err)
}

// hostUnavailable reports whether err condemns the host rather than the
// request: daemon-less (refused / resolver miss) or unreachable (dial
// failure). Per-request timeouts and resets on an established connection
// do not qualify — the next request may well succeed.
func hostUnavailable(err error) bool {
	return core.IsNoDaemon(err) || errors.Is(err, ErrDial)
}
