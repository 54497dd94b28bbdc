package query

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// startDaemon brings up a real daemon.Server on a loopback socket serving
// one host with a logged-in user, and returns the host IP, the bound
// address, and the server (caller closes).
func startDaemon(t testing.TB, name, ip string) (netaddr.IP, string, *daemon.Server) {
	t.Helper()
	hostIP := netaddr.MustParseIP(ip)
	h := hostinfo.New(name, hostIP, netaddr.MAC(1))
	h.AddUser("alice", "users")
	d := daemon.New(h)
	d.InstallConfig(&daemon.ConfigFile{HostPairs: []wire.KV{{Key: wire.KeyHost, Value: name}}}, true)
	srv := daemon.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return hostIP, addr.String(), srv
}

func testFlow(host netaddr.IP, srcPort netaddr.Port) flow.Five {
	return flow.Five{
		SrcIP: host, DstIP: netaddr.MustParseIP("10.9.9.9"),
		Proto: netaddr.ProtoTCP, SrcPort: srcPort, DstPort: 80,
	}
}

// TestPoolPipelinedExchanges drives many concurrent exchanges for one host
// through the pool: they must all complete over one multiplexed connection
// (one dial), responses correlated back to their own flows.
func TestPoolPipelinedExchanges(t *testing.T) {
	host, addr, srv := startDaemon(t, "pc", "10.0.0.1")
	defer srv.Close()
	p := NewPool(PoolConfig{Resolver: StaticResolver{host: addr}})
	defer p.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := testFlow(host, netaddr.Port(1000+i))
			resp, _, err := p.Query(host, wire.Query{Flow: f, Keys: []string{wire.KeyHost}})
			if err != nil {
				errs <- err
				return
			}
			if resp.Flow != f {
				errs <- fmt.Errorf("response for %v answered query for %v", resp.Flow, f)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if dials := p.Counters.Get("pool_dials"); dials != 1 {
		t.Errorf("pool_dials = %d, want 1 (pipelining should share one connection)", dials)
	}
	if sent := p.Counters.Get("pool_queries_sent"); sent != n {
		t.Errorf("pool_queries_sent = %d, want %d", sent, n)
	}
	if got := p.Conns.Get(); got != 1 {
		t.Errorf("Conns gauge = %d, want 1", got)
	}
}

// TestPoolReconnectAfterServerRestart kills the daemon server mid-life and
// restarts it on the same address: the pool must fail the in-between
// request, back off, and transparently redial.
func TestPoolReconnectAfterServerRestart(t *testing.T) {
	host, addr, srv := startDaemon(t, "pc", "10.0.0.2")
	p := NewPool(PoolConfig{Resolver: StaticResolver{host: addr}})
	defer p.Close()

	f := testFlow(host, 2000)
	if _, _, err := p.Query(host, wire.Query{Flow: f}); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	srv.Close()

	// The dropped connection surfaces as an error on some subsequent
	// exchange (the teardown may race the next send); keep trying briefly.
	sawFailure := false
	for i := 0; i < 50 && !sawFailure; i++ {
		if _, _, err := p.Query(host, wire.Query{Flow: f}); err != nil {
			sawFailure = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawFailure {
		t.Fatal("no exchange failed after server shutdown")
	}

	// Restart on the same address; the pool must recover once the backoff
	// window passes.
	hostIP := netaddr.MustParseIP("10.0.0.2")
	h := hostinfo.New("pc", hostIP, netaddr.MAC(1))
	d := daemon.New(h)
	srv2 := daemon.NewServer(d)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := p.Query(host, wire.Query{Flow: f}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never reconnected after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dials := p.Counters.Get("pool_dials"); dials < 2 {
		t.Errorf("pool_dials = %d, want >= 2 (reconnect)", dials)
	}
}

// TestPoolIdleConnDroppedByServerReadTimeout exercises daemon.Server's
// slow-reader guard from the pool's side: a connection idle past the
// server's ReadTimeout is dropped by the server, and the pool redials for
// the next exchange instead of erroring forever.
func TestPoolIdleConnDroppedByServerReadTimeout(t *testing.T) {
	hostIP := netaddr.MustParseIP("10.0.0.3")
	h := hostinfo.New("pc", hostIP, netaddr.MAC(1))
	d := daemon.New(h)
	srv := daemon.NewServer(d)
	srv.ReadTimeout = 50 * time.Millisecond // aggressive slow-reader cutoff
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: addr.String()}})
	defer p.Close()
	f := testFlow(hostIP, 3000)
	if _, _, err := p.Query(hostIP, wire.Query{Flow: f}); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	// Let the server's read deadline expire and the connection die.
	time.Sleep(150 * time.Millisecond)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := p.Query(hostIP, wire.Query{Flow: f}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never recovered from server-side idle drop")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if dials := p.Counters.Get("pool_dials"); dials < 2 {
		t.Errorf("pool_dials = %d, want >= 2 (idle conn was dropped)", dials)
	}
}

// TestServerRejectsOversizedFrame sends daemon.Server a frame whose header
// claims a payload beyond wire.MaxMessageSize: the server must drop the
// connection without serving it (and without allocating the claimed size).
func TestServerRejectsOversizedFrame(t *testing.T) {
	host, addr, srv := startDaemon(t, "pc", "10.0.0.4")
	defer srv.Close()
	_ = host

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := make([]byte, 13)
	hdr[0] = wire.FrameQuery
	// addresses zero; length field: 16 MiB, far past MaxMessageSize
	hdr[9], hdr[10], hdr[11], hdr[12] = 0x01, 0x00, 0x00, 0x00
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered an oversized frame; want connection drop")
	}
}

// TestPoolRejectsOversizedResponse points the pool at a rogue server that
// answers with an oversized frame header: the read must fail, the
// connection be torn down, and the exchange surface an error rather than a
// giant allocation.
func TestPoolRejectsOversizedResponse(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadQuery(conn); err != nil {
			return
		}
		hdr := make([]byte, 13)
		hdr[0] = wire.FrameResponse
		hdr[9], hdr[10], hdr[11], hdr[12] = 0x01, 0x00, 0x00, 0x00
		conn.Write(hdr)
	}()

	hostIP := netaddr.MustParseIP("10.0.0.5")
	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: l.Addr().String()}})
	defer p.Close()
	_, _, err = p.Query(hostIP, wire.Query{Flow: testFlow(hostIP, 4000)})
	if err == nil {
		t.Fatal("oversized response frame accepted; want error")
	}
	if p.Conns.Get() != 0 {
		t.Errorf("Conns gauge = %d after teardown, want 0", p.Conns.Get())
	}
}

// goWait is Go, started now with the caller's deadline, and a wait for its
// completion.
func goWait(p *Pool, host netaddr.IP, q wire.Query, deadline time.Time) (*wire.Response, time.Duration, error) {
	w := waiters.Get().(*waiter)
	p.Go(host, q, time.Now(), deadline, w.done)
	return w.wait()
}

// TestPoolRequestDeadline runs against a server that reads the query but
// never answers: the exchange must fail with a timeout-classified error by
// its deadline, and a daemon'd-but-slow host must never be classified as
// daemon-less.
func TestPoolRequestDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wire.ReadQuery(conn)
		<-stop // hold the response forever
	}()

	hostIP := netaddr.MustParseIP("10.0.0.6")
	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: l.Addr().String()}})
	defer p.Close()
	start := time.Now()
	_, _, err = goWait(p, hostIP, wire.Query{Flow: testFlow(hostIP, 5000)}, time.Now().Add(100*time.Millisecond))
	if err == nil {
		t.Fatal("exchange succeeded against a mute server")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
	var to interface{ Timeout() bool }
	if !errors.As(err, &to) || !to.Timeout() {
		t.Errorf("deadline error does not classify as timeout: %v", err)
	}
	if errors.Is(err, core.ErrNoDaemon) {
		t.Error("slow daemon'd host classified as daemon-less")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	if p.Counters.Get("pool_timeouts") != 1 {
		t.Errorf("pool_timeouts = %d, want 1", p.Counters.Get("pool_timeouts"))
	}
}

// TestPoolDialClassification: a connection refused (closed port) is the
// daemon-less case and must match core.ErrNoDaemon; the resolver saying
// "no daemon" likewise, without any dial. A dial that fails otherwise leaves
// the host unreachable: ErrDial, never "no daemon", neither fresh nor served
// again from the backoff window.
func TestPoolDialClassification(t *testing.T) {
	// Grab a port and close it so nothing listens there.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	refused := netaddr.MustParseIP("10.0.0.7")
	unknown := netaddr.MustParseIP("10.0.0.8")
	unreachable := netaddr.MustParseIP("10.0.0.9")
	p := NewPool(PoolConfig{Resolver: StaticResolver{refused: addr, unreachable: badPortAddr}})
	defer p.Close()

	for i := range 2 {
		_, _, err = p.Query(unreachable, wire.Query{Flow: testFlow(unreachable, netaddr.Port(6100+i))})
		if errors.Is(err, core.ErrNoDaemon) {
			t.Errorf("attempt %d: unreachable host classified as daemon-less: %v", i, err)
		}
		if !errors.Is(err, ErrDial) {
			t.Errorf("attempt %d: lost the dial classification: %v", i, err)
		}
	}
	if d, ff := p.Counters.Get("pool_dial_errors"), p.Counters.Get("pool_dial_backoff_fastfails"); d != 1 || ff != 1 {
		t.Errorf("unreachable host: %d dials failed, %d calls failed fast; want 1, 1", d, ff)
	}

	_, _, err = p.Query(refused, wire.Query{Flow: testFlow(refused, 6000)})
	if !errors.Is(err, core.ErrNoDaemon) {
		t.Errorf("connection refused classified as %v, want core.ErrNoDaemon", err)
	}

	_, _, err = p.Query(unknown, wire.Query{Flow: testFlow(unknown, 6001)})
	if !errors.Is(err, core.ErrNoDaemon) {
		t.Errorf("resolver miss classified as %v, want core.ErrNoDaemon", err)
	}

	// Repeated failures are served from the backoff fast-fail, not a fresh
	// dial each time.
	ffBefore := p.Counters.Get("pool_dial_backoff_fastfails")
	for i := 0; i < 5; i++ {
		p.Query(refused, wire.Query{Flow: testFlow(refused, 6002)})
	}
	if ff := p.Counters.Get("pool_dial_backoff_fastfails"); ff == ffBefore {
		t.Error("repeated dial failures never hit the backoff fast-fail")
	}
}

// TestPoolResponseFlowMismatchKillsConnection: a response about another
// flow than the query it would be correlated to fails that query and tears
// the connection down — nothing behind it may be misattributed — and the
// next query redials.
func TestPoolResponseFlowMismatchKillsConnection(t *testing.T) {
	hostIP := netaddr.MustParseIP("10.0.0.7")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for answered := 0; ; answered++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			q, err := wire.ReadQuery(conn)
			if err == nil {
				if answered == 0 {
					q.Flow.SrcPort++ // the first connection answers about another flow
				}
				wire.WriteResponse(conn, wire.NewResponse(q.Flow))
				wire.ReadFrame(conn) // until the pool hangs up
			}
			conn.Close()
		}
	}()

	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: l.Addr().String()}})
	defer p.Close()
	if resp, _, err := p.Query(hostIP, wire.Query{Flow: testFlow(hostIP, 6000)}); err == nil {
		t.Fatalf("response for flow %v delivered to a query for another", resp.Flow)
	}
	for deadline := time.Now().Add(5 * time.Second); p.Conns.Get() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("desynced connection never torn down")
		}
	}
	if _, _, err := p.Query(hostIP, wire.Query{Flow: testFlow(hostIP, 6001)}); err != nil {
		t.Fatalf("query after the desync: %v", err)
	}
	if n := p.Counters.Get("pool_dials"); n != 2 {
		t.Errorf("pool_dials = %d, want 2", n)
	}
}

// TestPoolCloseRacingFirstQueries: Close while first queries are dialing
// leaves no connection behind, whichever side wins, and nothing dials after.
func TestPoolCloseRacingFirstQueries(t *testing.T) {
	host, addr, srv := startDaemon(t, "h1", "10.0.0.8")
	defer srv.Close()
	for range 20 {
		p := NewPool(PoolConfig{Resolver: StaticResolver{host: addr}})
		var wg sync.WaitGroup
		for i := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := p.Query(host, wire.Query{Flow: testFlow(host, netaddr.Port(7000+i))}); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("query racing Close: %v", err)
				}
			}()
		}
		p.Close()
		wg.Wait()
		dials := p.Counters.Get("pool_dials")
		if _, _, err := p.Query(host, wire.Query{Flow: testFlow(host, 7100)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("query after Close: %v, want ErrClosed", err)
		}
		if c, d := p.Conns.Get(), p.Counters.Get("pool_dials"); c != 0 || d != dials {
			t.Fatalf("after Close: %d connections, %d dials (%d before the late query)", c, d, dials)
		}
	}
}

// TestQueryResultsAreTheCallers: the connection's reader lends each response
// to its completion and reuses it, and shares a body's sections with every
// later response that repeats it, but what Pool.Query and Engine.Query return
// is the caller's own: unchanged by the thousand responses after it, and the
// caller's to write without changing any of them.
func TestQueryResultsAreTheCallers(t *testing.T) {
	host, addr, srv := startDaemon(t, "pc", "10.0.0.31")
	defer srv.Close()
	p := NewPool(PoolConfig{Resolver: StaticResolver{host: addr}})
	defer p.Close()
	eng := NewEngine(Config{Lower: p})
	defer eng.Close()
	ask := func(sp netaddr.Port) *wire.Response {
		t.Helper()
		q := wire.Query{Flow: testFlow(host, sp)}
		resp, _, err := p.Query(host, q)
		if sp%2 == 1 {
			resp, _, err = eng.Query(host, q)
		}
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first, second := ask(7000), ask(7001)
	want := [2]string{string(wire.EncodeResponse(first)), string(wire.EncodeResponse(second))}
	for sp := netaddr.Port(7002); sp < 8002; sp++ {
		ask(sp)
	}
	for i, r := range []*wire.Response{first, second} {
		if got := string(wire.EncodeResponse(r)); got != want[i] || r.Flow != testFlow(host, netaddr.Port(7000+i)) {
			t.Errorf("result %d is now %v %q, was %q", i, r.Flow, got, want[i])
		}
		r.Sections[0].Pairs[0].Value = "scribbled"
		r.Add("scribbled", "too")
	}
	if got := string(wire.EncodeResponse(ask(7000))); got != want[0] {
		t.Errorf("a caller's write reached a later answer: %q, want %q", got, want[0])
	}
	if n := p.Counters.Get("pool_dials"); n != 1 {
		t.Errorf("pool_dials = %d, want 1: every answer on one connection", n)
	}
}

// TestPoolHostileDaemonBodyTableBound: a daemon that answers every query with
// a body it never sent before, some of them at a listener's scope, gets every
// answer decoded as DecodeResponse decodes it, on one connection. (The
// table's byte bound itself is wire's TestBodyTableBound.)
func TestPoolHostileDaemonBodyTableBound(t *testing.T) {
	hostIP := netaddr.MustParseIP("10.0.0.32")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	answer := func(q wire.Query, i int) *wire.Response {
		r := wire.NewResponse(q.Flow)
		r.Add(wire.KeyName, fmt.Sprintf("app-%d-%0200d", i, i))
		if i%3 == 0 {
			r.Augment("").Add(wire.KeyUserID, "u")
		}
		if i%2 == 0 {
			r.Scope = wire.ListenerScope(q.Flow.Proto, q.Flow.DstPort)
		}
		return r
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; ; i++ {
			q, err := wire.ReadQuery(conn)
			if err != nil {
				return
			}
			if wire.WriteResponse(conn, answer(q, i)) != nil {
				return
			}
		}
	}()
	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: l.Addr().String()}})
	defer p.Close()
	const n = 10000
	for i := 0; i < n; i++ {
		q := wire.Query{Flow: testFlow(hostIP, netaddr.Port(1+i))}
		resp, _, err := p.Query(hostIP, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, _ := wire.DecodeResponse(wire.EncodeResponse(answer(q, i)), q.Flow.SrcIP, q.Flow.DstIP)
		if !reflect.DeepEqual(resp, want) {
			t.Fatalf("answer %d decoded as %+v, want %+v", i, resp, want)
		}
	}
	if d := p.Counters.Get("pool_dials"); d != 1 {
		t.Errorf("pool_dials = %d, want 1: every answer on one connection", d)
	}
}

// TestPoolHostileDaemonUpdateTableBound: a daemon that pushes update after
// update naming a key and values it never named before — values that share
// long prefixes, some too long for the table to keep — gets every update
// delivered as DecodeUpdate decodes it, on one connection, while the
// connection's table stays within its bound.
func TestPoolHostileDaemonUpdateTableBound(t *testing.T) {
	hostIP := netaddr.MustParseIP("10.0.0.33")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 10000
	update := func(i int) wire.Update {
		u := wire.Update{
			Flow:   testFlow(hostIP, netaddr.Port(1+i%60000)),
			Key:    fmt.Sprintf("key-%05d", i%4999),
			Old:    fmt.Sprintf("old-value-%08d", i),
			New:    fmt.Sprintf("new-value-%08d", i/2),
			Serial: uint64(i),
		}
		if i%97 == 0 {
			u.New = fmt.Sprintf("%08d-%0*d", i, wire.BodyTableBytes/16, i)
		}
		return u
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			f, err := wire.ReadFrame(conn)
			if err != nil {
				return
			}
			switch f.Type {
			case wire.FrameSubscribe:
				if wire.WriteUpdate(conn, wire.Update{Hello: true}) != nil {
					return
				}
			case wire.FrameQuery:
				q, _ := wire.DecodeQuery(f.Payload, f.SrcIP, f.DstIP)
				if wire.WriteResponse(conn, wire.NewResponse(q.Flow)) != nil {
					return
				}
				for i := 1; i <= n; i++ {
					if wire.WriteUpdate(conn, update(i)) != nil {
						return
					}
				}
			}
		}
	}()
	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: l.Addr().String()}})
	defer p.Close()
	// The handler runs on the connection's reader: the table is its to read.
	var bad error
	got := 0
	done := make(chan struct{})
	p.SetUpdateHandler(func(host netaddr.IP, u wire.Update) {
		if bad != nil || u.Hello {
			return
		}
		got++
		hc := p.session(host)
		hc.mu.Lock()
		rd := hc.rd
		hc.mu.Unlock()
		sent := update(got)
		want, _ := wire.DecodeUpdate(wire.EncodeUpdate(sent), sent.Flow.SrcIP, sent.Flow.DstIP)
		if u != want {
			bad = fmt.Errorf("update %d delivered as %+v, want %+v", got, u, want)
		} else if b := rd.bodies.Bytes(); b > wire.BodyTableBytes {
			bad = fmt.Errorf("after update %d the table holds %d bytes, bound %d", got, b, wire.BodyTableBytes)
		}
		if bad != nil || got == n {
			close(done)
		}
	})
	if _, _, err := p.Query(hostIP, wire.Query{Flow: testFlow(hostIP, 1)}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%d updates not delivered in 20 s", n)
	}
	if bad != nil {
		t.Fatal(bad)
	}
	if r := p.Counters.Get("pool_update_resyncs"); r != 0 {
		t.Errorf("pool_update_resyncs = %d, want 0: the serials run on", r)
	}
	if d := p.Counters.Get("pool_dials"); d != 1 {
		t.Errorf("pool_dials = %d, want 1: every update on one connection", d)
	}
}
