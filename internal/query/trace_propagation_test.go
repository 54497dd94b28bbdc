package query

// Satellite acceptance for the flight-recorder PR: trace IDs must survive
// the query plane's failure handling. A pool reconnect (daemon restart,
// FIFO resync) re-encodes the query on the fresh connection — the trace
// line has to ride along again, not get lost with the dead connection's
// state, or the daemon-side attribution (daemon_queries_traced) would
// undercount exactly the decisions whose latency the operator is chasing.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// TestPoolTraceIDSurvivesReconnect kills the daemon server under a pool
// and restarts it on the same address: a traced query issued after the
// redial must still arrive at the daemon with its trace ID intact.
func TestPoolTraceIDSurvivesReconnect(t *testing.T) {
	hostIP := netaddr.MustParseIP("10.0.7.1")
	h := hostinfo.New("pc", hostIP, netaddr.MAC(1))
	h.AddUser("alice", "users")
	d := daemon.New(h)
	srv := daemon.NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(PoolConfig{Resolver: StaticResolver{hostIP: addr.String()}, MaxBackoff: 50 * time.Millisecond})
	defer p.Close()

	f := testFlow(hostIP, 2100)
	q := wire.Query{Flow: f, Keys: []string{wire.KeyHost}, TraceID: 0xabcdef0123456789}
	if _, _, err := p.Query(hostIP, q); err != nil {
		t.Fatalf("first traced exchange: %v", err)
	}
	if got := d.Counters.Get("daemon_queries_traced"); got != 1 {
		t.Fatalf("daemon_queries_traced = %d after first exchange, want 1", got)
	}

	// Kill and restart the daemon on the same address. The restarted
	// daemon is a fresh process image: its counters start at zero, so any
	// traced count it accumulates can only come from post-reconnect wire
	// traffic.
	srv.Close()
	h2 := hostinfo.New("pc", hostIP, netaddr.MAC(1))
	h2.AddUser("alice", "users")
	d2 := daemon.New(h2)
	srv2 := daemon.NewServer(d2)
	if _, err := srv2.Listen(addr.String()); err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()

	// Drive traced queries until one completes over the healed connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, err := p.Query(hostIP, q); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool never reconnected after server restart")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := d2.Counters.Get("daemon_queries_traced"); got < 1 {
		t.Errorf("daemon_queries_traced = %d after reconnect, want >= 1 (trace ID lost across redial)", got)
	}
}

// enqueueEvents extracts a retained trace's query-plane events and checks
// per-trace invariants: exactly one enqueue, recorded before the done.
func enqueueEvents(t *testing.T, tr trace.Trace) (enq, done *trace.Event) {
	t.Helper()
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Stage {
		case trace.StageQueryEnqueue:
			if enq != nil {
				t.Errorf("trace %x: duplicate StageQueryEnqueue", tr.ID)
			}
			if done != nil {
				t.Errorf("trace %x: StageQueryEnqueue recorded after StageQueryDone", tr.ID)
			}
			enq = ev
		case trace.StageQueryDone:
			done = ev
		}
	}
	if enq == nil || done == nil {
		t.Errorf("trace %x: missing enqueue/done (enq=%v done=%v)", tr.ID, enq != nil, done != nil)
	}
	return enq, done
}

// TestEngineTracedRejectionsPair: a query the engine turns away on the spot —
// closed, negative cache, open breaker — is an exchange like any other to the
// trace: one enqueue flagged with the gate, then one done flagged as failed.
func TestEngineTracedRejectionsPair(t *testing.T) {
	failing := func(err error) *fakeLower {
		return &fakeLower{fn: func(netaddr.IP, wire.Query) (*wire.Response, time.Duration, error) { return nil, 0, err }}
	}
	cases := []struct {
		name string
		gate uint16
		arm  func() *Engine
	}{
		{"closed", trace.FlagErr, func() *Engine {
			e := NewEngine(Config{Lower: &fakeLower{}})
			e.Close()
			return e
		}},
		{"negative cache", trace.FlagNegCache, func() *Engine {
			e := NewEngine(Config{Lower: failing(core.ErrNoDaemon)})
			e.Query(engHost, engQuery(4000))
			return e
		}},
		{"breaker", trace.FlagBreaker, func() *Engine {
			e := NewEngine(Config{Lower: failing(errors.New("reset")), BreakerThreshold: 1, Retries: -1})
			e.Query(engHost, engQuery(4000))
			return e
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.arm()
			defer e.Close()
			rec := trace.New(trace.Config{SampleEvery: 1})
			tb := rec.Begin(0)
			rejected := false
			e.QueryAsyncTraced(engHost, engQuery(4001), tb, trace.FlagDst, func(_ *wire.Response, _ time.Duration, err error) {
				rejected = err != nil
				rec.Finish(tb)
			})
			if !rejected {
				t.Fatal("the query was not rejected inline")
			}
			enq, done := enqueueEvents(t, rec.Traces()[0])
			if enq == nil || done == nil {
				return
			}
			if want := trace.FlagDst | tc.gate; enq.Flags != want || done.Flags != want|trace.FlagErr {
				t.Errorf("flags: enqueue %#x done %#x, want %#x and %#x", enq.Flags, done.Flags, want, want|trace.FlagErr)
			}
		})
	}
}

// TestEngineTracedCoalesceRace drives concurrent traced queries over
// distinct flows whose completions immediately Finish (re-pool) their
// buffers, half of them delivered on a goroutine of the lower's and half
// inline on the asker. Run under -race, it is the regression net for the
// enqueue event being recorded after launch (which may deliver and re-pool
// the buffer before it returns), or the done event after done runs: either
// writes into a buffer already re-issued to another decision. Every
// retained trace must hold one enqueue before one done.
func TestEngineTracedCoalesceRace(t *testing.T) {
	rec := trace.New(trace.Config{SampleEvery: 1, RingSize: 64})
	answer := func(_ netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
		r := wire.NewResponse(q.Flow)
		r.Add(wire.KeyHost, "fake")
		return r, time.Millisecond, nil
	}
	engines := []*Engine{
		NewEngine(Config{Lower: &goLower{fakeLower{fn: answer}}}),
		NewEngine(Config{Lower: &fakeLower{fn: answer}}),
	}
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var inner sync.WaitGroup
			for i := 0; i < perG; i++ {
				q := engQuery(netaddr.Port(5000 + g*perG + i))
				tb := rec.Begin(0)
				inner.Add(1)
				engines[i%2].QueryAsyncTraced(engHost, q, tb, trace.FlagSrc, func(*wire.Response, time.Duration, error) {
					rec.Finish(tb)
					inner.Done()
				})
			}
			inner.Wait()
		}()
	}
	wg.Wait()
	for _, e := range engines {
		e.Close()
	}
	for _, tr := range rec.Traces() {
		enqueueEvents(t, tr)
	}
}
