package query

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// fakeLower is a scriptable lower layer counting wire exchanges. It
// completes each exchange inline, on the caller, as a Pool does what it
// refuses on the spot.
type fakeLower struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, exchanges block until it closes
	fn    func(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error)
}

func (l *fakeLower) Go(host netaddr.IP, q wire.Query, _, _ time.Time, done func(*wire.Response, time.Duration, error)) {
	done(l.answer(host, q))
}

func (*fakeLower) SetUpdateHandler(func(netaddr.IP, wire.Update)) {}
func (*fakeLower) Standing(netaddr.IP) core.Standing {
	return core.Standing{Authorized: true, Streaming: true}
}
func (*fakeLower) CredentialStatus(netaddr.IP) (CredStatus, bool) { return CredStatus{}, false }
func (*fakeLower) CredentialSessions() []HostCredStatus           { return nil }

func (l *fakeLower) answer(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	l.calls.Add(1)
	if l.gate != nil {
		<-l.gate
	}
	if l.fn != nil {
		return l.fn(host, q)
	}
	r := wire.NewResponse(q.Flow)
	r.Add(wire.KeyHost, "fake")
	return r, time.Millisecond, nil
}

// goLower is fakeLower completing each exchange on a goroutine of its own,
// as a Pool's reader does: a gated flight stays parked while its caller goes
// on to issue the next query.
type goLower struct{ fakeLower }

func (l *goLower) Go(host netaddr.IP, q wire.Query, _, _ time.Time, done func(*wire.Response, time.Duration, error)) {
	go func() { done(l.answer(host, q)) }()
}

// fakeClock is a manually advanced clock for cooldown determinism.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

var engHost = netaddr.MustParseIP("10.1.0.1")

// badPortAddr fails every dial at once, and not with ECONNREFUSED: its port
// is out of range. A Pool classifies the failure as ErrDial.
const badPortAddr = "127.0.0.1:99999"

func engQuery(port netaddr.Port) wire.Query {
	return wire.Query{Flow: testFlow(engHost, port), Keys: []string{wire.KeyName}}
}

// TestEngineBreaker: consecutive per-request failures trip the breaker; while
// open, queries fast-fail without wire trips; after the cooldown a probe goes
// through.
func TestEngineBreaker(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	lower := &fakeLower{fn: func(netaddr.IP, wire.Query) (*wire.Response, time.Duration, error) {
		return nil, 0, errors.New("connection reset mid-exchange")
	}}
	e := NewEngine(Config{Lower: lower, Clock: clk.Now})
	defer e.Close()

	for i := 0; i < breakerThreshold; i++ {
		if _, _, err := e.Query(engHost, engQuery(netaddr.Port(i))); err == nil {
			t.Fatal("scripted failure succeeded")
		}
	}
	if opens := e.Counters.Get("engine_breaker_opens"); opens != 1 {
		t.Fatalf("engine_breaker_opens = %d, want 1", opens)
	}
	wireBefore := lower.calls.Load()
	for i := 0; i < 4; i++ {
		_, _, err := e.Query(engHost, engQuery(netaddr.Port(50+i)))
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open-breaker query %d: err = %v, want ErrBreakerOpen", i, err)
		}
	}
	if lower.calls.Load() != wireBefore {
		t.Error("open breaker still let queries reach the wire")
	}
	if ff := e.Counters.Get("engine_breaker_fastfails"); ff != 4 {
		t.Errorf("engine_breaker_fastfails = %d, want 4", ff)
	}

	clk.Advance(breakerCooldown)
	e.Query(engHost, engQuery(99)) // post-cooldown probe reaches the wire, and is retried once
	if lower.calls.Load() != wireBefore+1+retries {
		t.Error("post-cooldown probe never reached the wire")
	}
}

// TestEngineBreakerIgnoresNoDaemon: an authoritatively daemon-less host
// (the §4 steady state) must never trip the breaker — an open breaker
// would replace ErrNoDaemon with ErrBreakerOpen and strip the
// classification the controller's answer-on-behalf role keys on.
func TestEngineBreakerIgnoresNoDaemon(t *testing.T) {
	lower := &fakeLower{fn: func(netaddr.IP, wire.Query) (*wire.Response, time.Duration, error) {
		return nil, 0, core.ErrNoDaemon
	}}
	e := NewEngine(Config{Lower: lower})
	defer e.Close()
	for i := 0; i < 2*breakerThreshold; i++ {
		_, _, err := e.Query(engHost, engQuery(netaddr.Port(i)))
		if !errors.Is(err, core.ErrNoDaemon) {
			t.Fatalf("query %d lost the no-daemon classification: %v", i, err)
		}
	}
	if opens := e.Counters.Get("engine_breaker_opens"); opens != 0 {
		t.Errorf("engine_breaker_opens = %d for a daemon-less host, want 0", opens)
	}
}

// TestEngineRetries: a transient failure is retried within the attempt
// budget; an authoritative no-daemon is not.
func TestEngineRetries(t *testing.T) {
	var n atomic.Int64
	lower := &fakeLower{fn: func(_ netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
		if n.Add(1) == 1 {
			return nil, 0, errors.New("transient reset")
		}
		return wire.NewResponse(q.Flow), 0, nil
	}}
	e := NewEngine(Config{Lower: lower})
	defer e.Close()
	if _, _, err := e.Query(engHost, engQuery(1)); err != nil {
		t.Fatalf("retryable failure not retried: %v", err)
	}
	if r := e.Counters.Get("engine_retries"); r != 1 {
		t.Errorf("engine_retries = %d, want 1", r)
	}

	lower2 := &fakeLower{fn: func(netaddr.IP, wire.Query) (*wire.Response, time.Duration, error) {
		return nil, 0, core.ErrNoDaemon
	}}
	e2 := NewEngine(Config{Lower: lower2})
	defer e2.Close()
	e2.Query(engHost, engQuery(2))
	if got := lower2.calls.Load(); got != 1 {
		t.Errorf("no-daemon was retried %d times; it is authoritative", got-1)
	}
}

// TestEngineDoesNotRetryFailedDial: a dial that fails without a refusal
// leaves the host in its Pipe's backoff window before the failure is
// delivered, so a retry could only be served the same error again. The
// engine delivers the first failure: one dial, no retry, one query sent.
func TestEngineDoesNotRetryFailedDial(t *testing.T) {
	p := NewPool(PoolConfig{Resolver: StaticResolver{engHost: badPortAddr}})
	defer p.Close()
	e := NewEngine(Config{Lower: p})
	defer e.Close()
	if _, _, err := e.Query(engHost, engQuery(1)); !errors.Is(err, ErrDial) {
		t.Fatalf("err = %v, want ErrDial", err)
	}
	if r := e.Counters.Get("engine_retries"); r != 0 {
		t.Errorf("engine_retries = %d, want 0", r)
	}
	if s := e.Counters.Get("engine_queries_sent"); s != 1 {
		t.Errorf("engine_queries_sent = %d, want 1", s)
	}
	if d, ff := p.Counters.Get("pool_dial_errors"), p.Counters.Get("pool_dial_backoff_fastfails"); d != 1 || ff != 0 {
		t.Errorf("pool_dial_errors = %d, pool_dial_backoff_fastfails = %d; want 1, 0", d, ff)
	}
}

// TestEngineNegativeCachePreservesClassification: the one memory of a failed
// host is the Pool's dial backoff window. An unreachable host (a dial that
// fails, not a refusal) is served from it on the next query, and through the
// engine its error stays a transport failure, never "no daemon".
func TestEngineNegativeCachePreservesClassification(t *testing.T) {
	p := NewPool(PoolConfig{Resolver: StaticResolver{engHost: badPortAddr}})
	defer p.Close()
	e := NewEngine(Config{Lower: p})
	defer e.Close()

	for i := range 2 {
		_, _, err := e.Query(engHost, engQuery(netaddr.Port(1+i)))
		if errors.Is(err, core.ErrNoDaemon) {
			t.Errorf("attempt %d: down host classified as daemon-less: %v", i, err)
		}
		if !errors.Is(err, ErrDial) {
			t.Errorf("attempt %d: lost dial classification: %v", i, err)
		}
	}
	if d, ff := p.Counters.Get("pool_dial_errors"), p.Counters.Get("pool_dial_backoff_fastfails"); d != 1 || ff != 1 {
		t.Errorf("pool_dial_errors = %d, pool_dial_backoff_fastfails = %d; want 1, 1 (down host served from the backoff window)", d, ff)
	}
}

// TestEngineFailuresAllocateNothing: the failures a host without a working
// daemon meets on every query — an open breaker, a refused host inside its
// dial backoff window, a resolver miss — are delivered through the engine
// and the pool without a heap allocation.
func TestEngineFailuresAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries randomly under -race; allocation counts are nondeterministic")
	}
	refusedAddr := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}()
	refused, unknown, unreachable := engHost, netaddr.MustParseIP("10.1.0.2"), netaddr.MustParseIP("10.1.0.3")
	p := NewPool(PoolConfig{Resolver: StaticResolver{refused: refusedAddr, unreachable: badPortAddr}})
	defer p.Close()
	clk := &fakeClock{now: time.Unix(1000, 0)}
	e := NewEngine(Config{Lower: p, Clock: clk.Now})
	defer e.Close()

	var failed int
	done := func(_ *wire.Response, _ time.Duration, err error) {
		if err != nil {
			failed++
		}
	}
	q := engQuery(1)
	allocs := func(host netaddr.IP) float64 {
		failed = 0
		n := testing.AllocsPerRun(100, func() { e.QueryAsync(host, q, done) })
		if failed != 101 {
			t.Fatalf("%v: %d of 101 queries failed inline", host, failed)
		}
		return n
	}

	// Every dial of the unreachable host fails, and each failure feeds the
	// breaker; the fake clock keeps it open.
	for range breakerThreshold {
		e.Query(unreachable, q)
	}
	if n := allocs(unreachable); n != 0 {
		t.Errorf("breaker-open rejection: %v allocs, want 0", n)
	}
	if n := allocs(unknown); n != 0 {
		t.Errorf("resolver miss: %v allocs, want 0", n)
	}
	// The first backoff window is 50 ms: measure right after a refused dial,
	// and again if a redial landed inside the measurement.
	for try := 0; ; try++ {
		if _, _, err := e.Query(refused, q); !core.IsNoDaemon(err) {
			t.Fatalf("refused host: %v, want ErrNoDaemon", err)
		}
		dials := p.Counters.Get("pool_dial_errors")
		n := allocs(refused)
		if p.Counters.Get("pool_dial_errors") != dials && try < 5 {
			continue
		}
		if n != 0 {
			t.Errorf("refused host inside its backoff window: %v allocs, want 0", n)
		}
		break
	}
}

// TestEngineQueryAsync: completions are invoked exactly once with the
// result, and every query is a flight of its own: n askers of one query are
// n exchanges on the wire, all outstanding at once. (The controller never
// asks one end of a flow twice at once; a caller that does gets what it
// asked for.)
func TestEngineQueryAsync(t *testing.T) {
	lower := &goLower{fakeLower{gate: make(chan struct{})}}
	e := NewEngine(Config{Lower: lower})
	defer e.Close()

	const n = 8
	q := engQuery(700)
	var wg sync.WaitGroup
	var delivered atomic.Int64
	wg.Add(n)
	for i := 0; i < n; i++ {
		e.QueryAsync(engHost, q, func(resp *wire.Response, rtt time.Duration, err error) {
			if err != nil || resp == nil {
				t.Errorf("async completion %d: resp=%v err=%v", i, resp, err)
			}
			delivered.Add(1)
			wg.Done()
		})
	}
	if got := e.InFlight.Get(); got != n {
		t.Errorf("InFlight = %d with every exchange gated, want %d", got, n)
	}
	close(lower.gate)
	wg.Wait()
	if got := delivered.Load(); got != n {
		t.Fatalf("completions = %d, want %d", got, n)
	}
	if got := lower.calls.Load(); got != n {
		t.Errorf("wire queries = %d, want %d (one per query)", got, n)
	}
	if got := e.InFlight.Get(); got != 0 {
		t.Errorf("InFlight = %d after delivery, want 0", got)
	}
}

// TestEngineQueryAsyncOverInlineLower: over a lower that completes on the
// caller, done has run when QueryAsync returns, retries included, and no
// goroutine was started for the flight.
func TestEngineQueryAsyncOverInlineLower(t *testing.T) {
	lower := &fakeLower{}
	fails := 1
	lower.fn = func(_ netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
		if fails > 0 {
			fails--
			return nil, 0, errors.New("reset")
		}
		return wire.NewResponse(q.Flow), time.Millisecond, nil
	}
	e := NewEngine(Config{Lower: lower})
	defer e.Close()

	before := runtime.NumGoroutine()
	delivered := 0
	e.QueryAsync(engHost, engQuery(800), func(resp *wire.Response, _ time.Duration, err error) {
		if err != nil || resp == nil {
			t.Errorf("completion: resp=%v err=%v, want the retried exchange's answer", resp, err)
		}
		delivered++
	})
	if delivered != 1 {
		t.Fatalf("completions run when QueryAsync returned = %d, want 1", delivered)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
	if got := lower.calls.Load(); got != 2 {
		t.Errorf("wire queries = %d, want 2 (one retry)", got)
	}
	if e.InFlight.Get() != 0 {
		t.Errorf("InFlight = %d after delivery, want 0", e.InFlight.Get())
	}
}

// TestEngineRTTHistogram: successful exchanges land in the per-host RTT
// histogram.
func TestEngineRTTHistogram(t *testing.T) {
	lower := &fakeLower{}
	e := NewEngine(Config{Lower: lower})
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := e.Query(engHost, engQuery(netaddr.Port(i))); err != nil {
			t.Fatal(err)
		}
	}
	if hs := e.HostStats(); len(hs) != 1 || hs[0].Host != engHost || hs[0].Queries != 3 {
		t.Errorf("per-host stats = %+v, want 3 RTT samples for %v", hs, engHost)
	}
}

// TestEngineClosed: a closed engine rejects blocking and async queries
// without panicking.
func TestEngineClosed(t *testing.T) {
	e := NewEngine(Config{Lower: &fakeLower{}})
	e.Close()
	if _, _, err := e.Query(engHost, engQuery(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Query after Close: %v, want ErrClosed", err)
	}
	got := make(chan error, 1)
	e.QueryAsync(engHost, engQuery(2), func(_ *wire.Response, _ time.Duration, err error) {
		got <- err
	})
	if err := <-got; !errors.Is(err, ErrClosed) {
		t.Errorf("QueryAsync after Close delivered %v, want ErrClosed", err)
	}
}

// TestEngineCloseWaitsForFlights: Close returns only once every flight
// already started has been delivered, and each asker gets the real result.
func TestEngineCloseWaitsForFlights(t *testing.T) {
	lower := &goLower{fakeLower{gate: make(chan struct{})}}
	e := NewEngine(Config{Lower: lower})
	const n = 4
	errs := make(chan error, n)
	for i := range n {
		e.QueryAsync(engHost, engQuery(netaddr.Port(900+i)), func(_ *wire.Response, _ time.Duration, err error) {
			errs <- err
		})
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with flights outstanding")
	case <-time.After(20 * time.Millisecond):
	}
	close(lower.gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned after the flights were delivered")
	}
	for range n {
		if err := <-errs; err != nil {
			t.Errorf("a flight delivered before Close returned failed: %v", err)
		}
	}
}

// countingConn counts the Reads issued on a connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestEngineBurstSharesWrites: queries issued back to back to one host are
// appended to its connection by the caller and leave together — none waits
// for a worker, or for an earlier one's response — so a daemon that starts
// reading afterwards finds all 64 in a few reads.
func TestEngineBurstSharesWrites(t *testing.T) {
	const n = 64
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	issued := make(chan struct{})
	reads := make(chan int64, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-issued
		time.Sleep(20 * time.Millisecond) // the coalescing writer's last burst
		cc := &countingConn{Conn: conn}
		br := bufio.NewReaderSize(cc, 64<<10)
		var qs []wire.Query
		for len(qs) < n {
			q, err := wire.ReadQuery(br)
			if err != nil {
				return
			}
			qs = append(qs, q)
		}
		reads <- cc.reads.Load()
		for _, q := range qs {
			wire.WriteResponse(conn, wire.NewResponse(q.Flow))
		}
		wire.ReadFrame(br) // until the pool hangs up
	}()

	pool := NewPool(PoolConfig{Resolver: StaticResolver{engHost: l.Addr().String()}})
	defer pool.Close()
	e := NewEngine(Config{Lower: pool})
	defer e.Close()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		e.QueryAsync(engHost, engQuery(netaddr.Port(1+i)), func(_ *wire.Response, _ time.Duration, err error) {
			if err != nil {
				t.Errorf("query %d: %v", i, err)
			}
			wg.Done()
		})
	}
	close(issued)
	select {
	case r := <-reads:
		if r > 8 {
			t.Errorf("the daemon needed %d reads for %d queries, want <= 8", r, n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the queries never all reached the daemon")
	}
	wg.Wait()
	if sent := pool.Counters.Get("pool_queries_sent"); sent != n {
		t.Errorf("pool_queries_sent = %d, want %d", sent, n)
	}
}

// TestEngineRetryOnRedialledConnection: a flight whose connection dies under
// it is retried from the completion that delivers the failure — on the
// goroutine tearing the connection down, with the pipe disconnected — and
// finishes on the connection dialed for it.
func TestEngineRetryOnRedialledConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for conns := 0; ; conns++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			for {
				q, err := wire.ReadQuery(conn)
				if err != nil || conns == 0 { // the first connection dies with the queries read
					break
				}
				wire.WriteResponse(conn, wire.NewResponse(q.Flow))
			}
			conn.Close()
		}
	}()

	pool := NewPool(PoolConfig{Resolver: StaticResolver{engHost: l.Addr().String()}})
	defer pool.Close()
	e := NewEngine(Config{Lower: pool})
	defer e.Close()
	const n = 4
	errs := make(chan error, n)
	for i := range n {
		e.QueryAsync(engHost, engQuery(netaddr.Port(1+i)), func(resp *wire.Response, _ time.Duration, err error) {
			if err == nil && resp.Flow != engQuery(netaddr.Port(1+i)).Flow {
				err = fmt.Errorf("response for %v", resp.Flow)
			}
			errs <- err
		})
	}
	for range n {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("query over a connection killed once: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a retried flight never completed")
		}
	}
	if r := e.Counters.Get("engine_retries"); r < 1 || r > n {
		t.Errorf("engine_retries = %d, want 1..%d", r, n)
	}
	if d := pool.Counters.Get("pool_dials"); d != 2 {
		t.Errorf("pool_dials = %d, want 2", d)
	}
}
