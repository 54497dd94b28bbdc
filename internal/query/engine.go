package query

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/core"
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
// asks for (QueryAsync, QueryAsyncTraced), all of them over the same
// retry, negative-cache, and breaker state. Every query is its own flight to
// the wire: the controller asks each end of a flow once per decision (its
// pending set parks a flow's duplicate packet-ins), so there is nothing to
// share.
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
	// InFlight gauges queries between admission and delivery.
	InFlight metrics.Gauge

	hot struct {
		sent, negHits, retriesC                   *atomic.Int64
		breakerOpens, breakerFastfails, timeoutsC *atomic.Int64
	}

	flights sync.Pool // *flight

	// Close waits on idle for InFlight to reach 0; a delivery signals it
	// only once closed is set.
	idleMu sync.Mutex
	idle   sync.Cond

	hostMu sync.Mutex
	hosts  map[netaddr.IP]*hostState

	closed atomic.Bool
}

// completion receives a delivered result; see the package comment for the
// borrow contract on resp.
type completion func(resp *wire.Response, rtt time.Duration, err error)

// flight is one query on its way through the wire: its completion, the
// asker's flight-recorder buffer (nil for untraced decisions) and endpoint
// flag, the host's record the gates read (settled from the outcome, with no
// second lookup), and the attempts it has started. Flights are recycled,
// with the completion the lower layer is handed.
type flight struct {
	e        *Engine
	host     netaddr.IP
	hs       *hostState
	q        wire.Query
	attempts int32
	done     completion
	tb       *trace.Buffer
	ep       uint16
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
	e.idle.L = &e.idleMu
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
// available.
func (e *Engine) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	w := waiters.Get().(*waiter)
	e.query(host, q, nil, 0, w.done)
	return w.wait()
}

// QueryAsync is the completion-style face: done is invoked exactly once —
// inline for fast-path rejections (negative cache, breaker, closed, what the
// lower refuses on the spot) and over a lower that only blocks, otherwise on
// the goroutine that learns the outcome: over a Pool, the host connection's
// reader. done must not block; the controller's continuation (evaluate +
// install) is the intended scale.
func (e *Engine) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	e.query(host, q, nil, 0, done)
}

// QueryAsyncTraced is QueryAsync with a flight-recorder buffer: the engine
// records the query's enqueue (annotated with the gate that rejected it, if
// one did — negative-cache hit, breaker fast-fail) and its completion (RTT,
// transport attempts, error) into tb, OR'ing ep into both. A nil tb records
// nothing and behaves exactly like QueryAsync.
func (e *Engine) QueryAsyncTraced(host netaddr.IP, q wire.Query, tb *trace.Buffer, ep uint16, done func(*wire.Response, time.Duration, error)) {
	e.query(host, q, tb, ep, done)
}

// query passes the gates, then starts the query's flight. The enqueue is
// recorded before launch, which may deliver — and the asker's continuation
// re-pool tb — before it returns. A rejection is an exchange like any other
// to the trace: an enqueue flagged with the gate that turned it away, then a
// failed done.
func (e *Engine) query(host netaddr.IP, q wire.Query, tb *trace.Buffer, ep uint16, done completion) {
	gate, err := trace.FlagErr, ErrClosed
	var hs *hostState
	if !e.closed.Load() {
		hs = e.hostState(host)
		gate, err = e.fastFail(host, hs)
	}
	tb.Rec(trace.StageQueryEnqueue, ep|gate, 0)
	if err != nil {
		tb.Rec(trace.StageQueryDone, ep|gate|trace.FlagErr, 0)
		done(nil, 0, err)
		return
	}
	f, _ := e.flights.Get().(*flight)
	if f == nil {
		f = &flight{e: e}
		f.reply = f.onReply
	}
	f.host, f.hs, f.q, f.done, f.tb, f.ep = host, hs, q, done, tb, ep
	e.InFlight.Inc()
	f.launch()
}

// Close rejects future queries, then blocks until every flight already
// started has been delivered (its asker still gets a real result), so
// closing the Engine before its lower layer is safe — the identctl/defer
// idiom of eng.Close() then pool.Close() never yanks the transport out from
// under a flight. Close must not be called from a completion callback.
func (e *Engine) Close() {
	e.closed.Store(true)
	e.idleMu.Lock()
	for e.InFlight.Get() > 0 {
		e.idle.Wait()
	}
	e.idleMu.Unlock()
}

// fastFail consults host's negative cache and breaker; a non-nil error is
// delivered without touching the wire, and gate is the trace flag naming
// which of the two it was. The clock is read only when one of them is set.
func (e *Engine) fastFail(host netaddr.IP, hs *hostState) (gate uint16, err error) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.negErr == nil && hs.openTill.IsZero() {
		return 0, nil
	}
	now := e.clock()
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
// address — the per-host drill-down behind the `/hosts` operator view and the
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

// launch starts one attempt, which ends in onReply: over a Pool on the host
// connection's reader, over a lower that only blocks before launch returns.
func (f *flight) launch() {
	e := f.e
	e.hot.sent.Add(1)
	f.attempts++
	e.start(f.host, f.q, time.Now().Add(e.timeout), f.reply)
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
	e.settle(f.hs, rtt, err)
	f.deliver(resp, rtt, err)
}

// deliver records the flight's completion, recycles the flight and hands its
// result to the asker. The done event goes first: done may finish the
// asker's decision and re-pool tb.
func (f *flight) deliver(resp *wire.Response, rtt time.Duration, err error) {
	e, done := f.e, f.done
	if f.tb != nil {
		flags := f.ep
		if err != nil {
			flags |= trace.FlagErr
		}
		f.tb.RecAux(trace.StageQueryDone, flags, int64(rtt), f.attempts)
	}
	*f = flight{e: e, reply: f.reply}
	e.flights.Put(f)
	e.InFlight.Dec()
	if e.closed.Load() {
		// Close reads InFlight after setting closed: a delivery that saw
		// closed unset decremented before that read.
		e.idleMu.Lock()
		e.idle.Broadcast()
		e.idleMu.Unlock()
	}
	done(resp, rtt, err)
}

// settle updates a host's availability record from one exchange outcome. Only
// a failure reads the clock.
func (e *Engine) settle(hs *hostState, rtt time.Duration, err error) {
	if err == nil {
		hs.mu.Lock()
		hs.fails = 0
		hs.openTill = time.Time{}
		hs.negErr = nil
		hs.mu.Unlock()
		hs.rtt.Observe(rtt) // outside hs.mu: Observe takes no lock
		return
	}
	now := e.clock()
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
