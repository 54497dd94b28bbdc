package query

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// TestWedgedDaemonTornDownByFlushDeadline points the pool at a daemon that
// accepts and then never reads. The callers' own deadlines are far away, so
// only the write deadline every flush carries can end the connection: within
// RequestTimeout of the flush that could not complete it is torn down, every
// queued call fails (pool_requests_failed), senders held at the writer's
// bound are let go, and the next query dials a fresh connection.
func TestWedgedDaemonTornDownByFlushDeadline(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		wedged, err := l.Accept()
		if err != nil {
			return
		}
		defer wedged.Close()
		// A small receive window, so the stall comes after KBs, not MBs.
		wedged.(*net.TCPConn).SetReadBuffer(4096)
		healthy, err := l.Accept()
		if err != nil {
			return
		}
		defer healthy.Close()
		for {
			q, err := wire.ReadQuery(healthy)
			if err != nil {
				return
			}
			wire.WriteResponse(healthy, wire.NewResponse(q.Flow))
		}
	}()

	const reqTimeout = 300 * time.Millisecond
	hostIP := netaddr.MustParseIP("10.0.0.8")
	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: l.Addr().String()}, RequestTimeout: reqTimeout})
	defer p.Close()

	// 160 callers × 60 KB: more than a loopback socket's buffers (4 MB of
	// send buffer at most on Linux) and the writer's bound hold together,
	// so some frames wait in the kernel, some in the pending buffer and
	// some callers in Reserve.
	const callers = 160
	far := time.Now().Add(30 * time.Second)
	keys := []string{strings.Repeat("k", 60<<10)}
	start := time.Now()
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := p.Exchange(hostIP, wire.Query{Flow: testFlow(hostIP, netaddr.Port(6000+i)), Keys: keys}, far)
			errs <- err
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*reqTimeout {
		t.Errorf("wedged connection took %v to be torn down; the flush deadline is %v", elapsed, reqTimeout)
	}
	close(errs)
	timeouts := 0
	for err := range errs {
		if err == nil {
			t.Fatal("exchange succeeded against a daemon that never reads")
		}
		if errors.Is(err, ErrDeadline) {
			t.Errorf("caller timed out on its own (%v); the flush deadline should have come first", err)
		}
		var to interface{ Timeout() bool }
		if errors.As(err, &to) && to.Timeout() {
			timeouts++
		}
	}
	if timeouts == 0 {
		t.Error("no caller saw the write timeout as a timeout")
	}
	if n := p.Counters.Get("pool_requests_failed"); n == 0 {
		t.Error("pool_requests_failed = 0 after a failed flush")
	}
	if p.Conns.Get() != 0 {
		t.Errorf("Conns gauge = %d after teardown, want 0", p.Conns.Get())
	}

	// The next query redials and is answered.
	if _, _, err := p.Query(hostIP, wire.Query{Flow: testFlow(hostIP, 7000)}); err != nil {
		t.Fatalf("query after teardown: %v", err)
	}
	if n := p.Counters.Get("pool_dials"); n != 2 {
		t.Errorf("pool_dials = %d, want 2", n)
	}
}

// TestPipelineOrderUnderConcurrentSenders: the pending queue and the bytes
// are appended under one lock, so responses correlate by position however
// many goroutines send at once. The server checks nothing; a desync would
// surface as the pool's flow-tuple guard failing exchanges.
func TestPipelineOrderUnderConcurrentSenders(t *testing.T) {
	host, addr, srv := startDaemon(t, "pc", "10.0.0.1")
	defer srv.Close()
	p := NewPool(PoolConfig{Resolver: StaticResolver{host: addr}})
	defer p.Close()
	const senders, each = 16, 200
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				f := testFlow(host, netaddr.Port(1000+g*each+i))
				resp, _, err := p.Query(host, wire.Query{Flow: f, Keys: []string{wire.KeyHost}})
				if err != nil || resp.Flow != f {
					t.Errorf("sender %d query %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := p.Counters.Get("pool_dials"); n != 1 {
		t.Errorf("pool_dials = %d, want 1 (a desync tears the connection down)", n)
	}
	if n := p.Counters.Get("pool_queries_sent"); n != senders*each {
		t.Errorf("pool_queries_sent = %d, want %d", n, senders*each)
	}
}
