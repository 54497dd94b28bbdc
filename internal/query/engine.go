package query

import (
	"errors"
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

// Lower is the wire layer underneath an Engine: *Pool (real TCP), or the
// simulator's adapter (a Pool behind the §3.4 interception chain). Go starts
// one attempt begun at start and returns without waiting; done runs exactly
// once, on the goroutine that learns the outcome (over a Pool, the one that
// decoded the response) or inline for what the lower refuses on the spot,
// and must not block. SetUpdateHandler installs the sink for the updates
// its daemons push (Pool.SetUpdateHandler). The rest is what it knows of
// each host's session, which the Engine passes up unchanged — retries and
// the breaker sit above authorization, not instead of it: Standing is the
// controller's per-answer check (Pool.Standing), and CredentialStatus and
// CredentialSessions are the operator's view of the credential plane (ok
// false and nil on a lower that enforces none).
type Lower interface {
	Go(host netaddr.IP, q wire.Query, start, deadline time.Time, done func(*wire.Response, time.Duration, error))
	SetUpdateHandler(fn func(host netaddr.IP, u wire.Update))
	Standing(host netaddr.IP) core.Standing
	CredentialStatus(host netaddr.IP) (CredStatus, bool)
	CredentialSessions() []HostCredStatus
}

// Config parameterizes an Engine. The zero value of every field except
// Lower is a sensible default.
type Config struct {
	// Lower executes the actual wire exchange. Required.
	Lower Lower

	// RequestTimeout bounds each attempt (default 2s).
	RequestTimeout time.Duration

	// Clock supplies time for the breaker; defaults to time.Now. The
	// simulator passes its virtual clock.
	Clock func() time.Time

	// Counters receives engine counters; a private set when nil.
	Counters *metrics.Counter
}

// The breaker opens after breakerThreshold consecutive failures of a host
// and rejects its queries for breakerCooldown, then lets a probe through. A
// retryable transport failure is followed by retries more attempts;
// ErrNoDaemon, failed dials and breaker rejections are never retried.
const (
	breakerThreshold = 4
	breakerCooldown  = time.Second
	retries          = 1
)

// Engine is the query-plane brain. It is a core.QueryPlane (QueryAsyncTraced
// and Standing) and a core.QueryTransport (QueryAsync), and has a blocking
// Query for callers outside the decision path, every query over the same
// retry and breaker state. A host that fails to dial is remembered below, by
// its Pipe's backoff window, not here. Every query is its own flight to the
// wire: the controller asks each end of a flow once per decision (its pending
// set parks a flow's duplicate packet-ins), so there is nothing to share.
type Engine struct {
	lower   Lower
	timeout time.Duration
	clock   func() time.Time

	Counters *metrics.Counter
	// InFlight gauges queries between admission and delivery.
	InFlight metrics.Gauge

	hot struct {
		sent, retriesC                            *atomic.Int64
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

// hostState is the per-host availability record: the breaker and the RTT
// histogram.
type hostState struct {
	mu       sync.Mutex
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
		clock:   cfg.Clock,
		hosts:   make(map[netaddr.IP]*hostState),
	}
	e.idle.L = &e.idleMu
	if e.timeout <= 0 {
		e.timeout = defaultRequestTimeout
	}
	if e.clock == nil {
		e.clock = time.Now
	}
	e.Counters = cfg.Counters
	if e.Counters == nil {
		e.Counters = metrics.NewCounter()
	}
	e.hot.sent = e.Counters.Cell("engine_queries_sent")
	e.hot.retriesC = e.Counters.Cell("engine_retries")
	e.hot.breakerOpens = e.Counters.Cell("engine_breaker_opens")
	e.hot.breakerFastfails = e.Counters.Cell("engine_breaker_fastfails")
	e.hot.timeoutsC = e.Counters.Cell("engine_timeouts")
	return e
}

// SetUpdateHandler threads the revocation plane's update sink through to
// the lower transport, and reports true: every Lower pushes. The handler
// runs on transport goroutines (the pool's connection readers, or the
// simulator's event loop, where its adapter queues them); it must be quick
// and must not re-enter the engine.
func (e *Engine) SetUpdateHandler(fn func(host netaddr.IP, u wire.Update)) bool {
	e.lower.SetUpdateHandler(fn)
	return true
}

// Controller builds cfg's controller over e: it asks through e, whatever
// cfg.Transport said, and is subscribed to the updates e's daemons push
// before it can send its first query, so every connection it dials
// subscribes and a change of a daemon's facts withdraws the verdicts built
// on them.
func (e *Engine) Controller(cfg core.Config) *core.Controller {
	cfg.Transport = e
	c := core.New(cfg)
	e.SetUpdateHandler(c.HandleUpdate)
	return c
}

// Standing implements core.QueryPlane: host's standing with the lower.
func (e *Engine) Standing(host netaddr.IP) core.Standing { return e.lower.Standing(host) }

// CredentialStatus returns host's credential status from the lower; ok is
// false when it enforces no credential.
func (e *Engine) CredentialStatus(host netaddr.IP) (CredStatus, bool) {
	return e.lower.CredentialStatus(host)
}

// CredentialSessions lists every host the lower has a credential status for
// (nil when it enforces no credential).
func (e *Engine) CredentialSessions() []HostCredStatus { return e.lower.CredentialSessions() }

// Query asks host and blocks until the result is available. It is for
// callers off the decision path; the controller asks by completion.
func (e *Engine) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	w := waiters.Get().(*waiter)
	e.query(host, q, nil, 0, w.done)
	return w.wait()
}

// QueryAsync implements core.QueryTransport: done is invoked exactly once —
// inline for fast-path rejections (breaker, closed, what the lower refuses on
// the spot, a host inside its dial backoff window), otherwise on the
// goroutine that learns the outcome: over a Pool, the host connection's
// reader. done must not block; the controller's continuation (evaluate +
// install) is the intended scale.
func (e *Engine) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	e.query(host, q, nil, 0, done)
}

// QueryAsyncTraced is QueryAsync with a flight-recorder buffer: the engine
// records the query's enqueue (annotated with the breaker's flag if the
// breaker rejected it) and its completion (RTT,
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
		gate, err = e.fastFail(hs)
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

// fastFail consults the host's breaker; while it is open, the query is
// rejected with ErrBreakerOpen without touching the wire, and gate is
// trace.FlagBreaker. The clock is read only when the breaker has opened.
func (e *Engine) fastFail(hs *hostState) (gate uint16, err error) {
	hs.mu.Lock()
	defer hs.mu.Unlock()
	if hs.openTill.IsZero() || !e.clock().Before(hs.openTill) {
		return 0, nil
	}
	e.hot.breakerFastfails.Add(1)
	return trace.FlagBreaker, ErrBreakerOpen
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

// HostStatus is one host's availability snapshot: query volume and RTT
// from its histogram, the breaker state, and the consecutive-failure count
// feeding the breaker.
type HostStatus struct {
	Host        netaddr.IP
	Queries     int64 // RTT observations (delivered exchanges)
	RTTMean     time.Duration
	RTTP99      time.Duration
	Fails       int  // consecutive failures toward the breaker threshold
	BreakerOpen bool // breaker currently rejecting queries
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
		hs.mu.Unlock()
		out[i] = st
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// launch starts one attempt, which ends in onReply: over a Pool on the host
// connection's reader, or inline for what the lower refuses on the spot.
// The clock is read once: the attempt's start, handed down with the deadline
// it sets, is where the Pool's RTT begins.
func (f *flight) launch() {
	e := f.e
	e.hot.sent.Add(1)
	f.attempts++
	now := time.Now()
	e.lower.Go(f.host, f.q, now, now.Add(e.timeout), f.reply)
}

// onReply ends one attempt: retry, or settle the host's record and deliver.
// It is the lower layer's completion, so it runs wherever that does.
func (f *flight) onReply(resp *wire.Response, rtt time.Duration, err error) {
	e := f.e
	if err != nil && retryable(err) && int(f.attempts) <= retries {
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
// a failure that feeds the breaker reads the clock.
func (e *Engine) settle(hs *hostState, rtt time.Duration, err error) {
	if err == nil {
		hs.mu.Lock()
		hs.fails = 0
		hs.openTill = time.Time{}
		hs.mu.Unlock()
		hs.rtt.Observe(rtt) // outside hs.mu: Observe takes no lock
		return
	}
	if core.IsTimeout(err) {
		e.hot.timeoutsC.Add(1)
	}
	// An authoritative "no daemon" is the host answering, in its way —
	// connection refused means the machine is up. It must not feed the
	// breaker: an open breaker would replace ErrNoDaemon with
	// ErrBreakerOpen, and the controller's answer-on-behalf role (§3.4)
	// keys on the no-daemon classification surviving end to end.
	if core.IsNoDaemon(err) {
		return
	}
	now := e.clock()
	hs.mu.Lock()
	defer hs.mu.Unlock()
	hs.fails++
	if hs.fails >= breakerThreshold && (hs.openTill.IsZero() || !now.Before(hs.openTill)) {
		hs.openTill = now.Add(breakerCooldown)
		hs.fails = 0 // the post-cooldown probe restarts the count
		e.hot.breakerOpens.Add(1)
	}
}

// retryable reports whether a failed attempt is worth repeating: trouble on
// an established connection is; an authoritative "no daemon" is not, and
// neither is a failed dial — the Pipe fails every call inside its backoff
// window with the same error, so a retry would only be served that copy.
func retryable(err error) bool {
	return !core.IsNoDaemon(err) && !errors.Is(err, ErrDial)
}
