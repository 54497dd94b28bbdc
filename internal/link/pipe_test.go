package link

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// peer is a scripted loopback endpoint: every accepted connection runs
// script, and is closed when script returns.
type peer struct {
	ln      net.Listener
	accepts atomic.Int64 // connections accepted, ever
	live    atomic.Int64 // accepted and not yet seen closed by either end
}

func listen(t *testing.T, addr string, script func(c net.Conn, br *bufio.Reader)) *peer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pe := &peer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			pe.accepts.Add(1)
			pe.live.Add(1)
			go func() {
				script(c, bufio.NewReader(c))
				c.Close()
				pe.live.Add(-1)
			}()
		}
	}()
	return pe
}

func (pe *peer) addr() string { return pe.ln.Addr().String() }

// answer writes the reply the test plane matches to request f.
func answer(c net.Conn, f wire.Frame) error {
	return wire.WriteFrame(c, wire.Frame{Type: wire.FrameResponse, SrcIP: f.SrcIP, Payload: append([]byte("re:"), f.Payload...)})
}

// echo answers every request in order until the connection ends.
func echo(c net.Conn, br *bufio.Reader) {
	for {
		f, err := wire.ReadFrame(br)
		if err != nil || answer(c, f) != nil {
			return
		}
	}
}

// swallow reads requests and never answers.
func swallow(c net.Conn, br *bufio.Reader) {
	for {
		if _, err := wire.ReadFrame(br); err != nil {
			return
		}
	}
}

// probe is a test Plane: requests are 'Q' frames keyed by SrcIP, replies 'R'
// frames with the same SrcIP, 'U' frames are out of band and anything else
// is fatal. Its mutex is the lock the pipe runs under, so the hook counts
// are read under it.
type probe struct {
	mu  sync.Mutex
	n   counts
	oob atomic.Int64
}

// counts is how often each hook ran: connections opened, their decoders made
// and connections torn down, calls failed by teardowns, dials failed and
// calls failed fast from the window.
type counts struct{ opened, readers, downs, failed, fresh, cached int }

func (pr *probe) pipe(addr string, limit int) *Pipe[uint32, string] {
	return NewPipe(&pr.mu, addr, time.Second, limit, Plane[uint32, string]{
		Reader: func() func(wire.Frame) (uint32, string, Verdict, error) {
			pr.n.readers++
			return func(f wire.Frame) (uint32, string, Verdict, error) {
				switch f.Type {
				case wire.FrameUpdate:
					pr.oob.Add(1)
					return 0, "", OutOfBand, nil
				case wire.FrameResponse:
					return uint32(f.SrcIP), string(f.Payload), Reply, nil
				}
				return 0, "", Fatal, fmt.Errorf("unexpected frame %#02x", f.Type)
			}
		},
		Opened: func(b []byte) []byte { pr.n.opened++; return b },
		DialFailed: func(err error, cached bool) error {
			if cached {
				pr.n.cached++
			} else {
				pr.n.fresh++
			}
			return err
		},
		Down: func(failed int) { pr.n.downs++; pr.n.failed += failed },
	})
}

func (pr *probe) counts() counts {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.n
}

// query appends the request frame for key.
func query(key uint32) func([]byte) ([]byte, error) {
	return func(b []byte) ([]byte, error) {
		return wire.AppendFrame(b, wire.Frame{Type: wire.FrameQuery, SrcIP: netaddr.IP(key), Payload: strconv.AppendUint(nil, uint64(key), 10)})
	}
}

func request(p *Pipe[uint32, string], key uint32, timeout time.Duration) (string, error) {
	return p.Call(key, time.Now().Add(timeout), query(key))
}

func mustReply(t *testing.T, p *Pipe[uint32, string], key uint32) {
	t.Helper()
	got, err := request(p, key, 5*time.Second)
	if want := "re:" + strconv.Itoa(int(key)); err != nil || got != want {
		t.Fatalf("call %d = %q, %v; want %q", key, got, err, want)
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Calls from many goroutines share one connection and each gets the reply to
// its own request.
func TestPipeFIFOUnderConcurrentSenders(t *testing.T) {
	pe := listen(t, "127.0.0.1:0", echo)
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	const senders, each = 8, 200
	var wg sync.WaitGroup
	for s := range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				key := uint32(s*each + i)
				if got, err := request(p, key, 5*time.Second); err != nil || got != "re:"+strconv.Itoa(int(key)) {
					t.Errorf("call %d = %q, %v", key, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := pe.accepts.Load(); n != 1 {
		t.Errorf("%d connections, want 1 (a desync tears the connection down)", n)
	}
}

// A call that hits its deadline abandons its slot: the late reply is
// discarded, the next call gets its own reply, and the connection lives.
func TestPipeAbandonedSlotDiscardsLateReply(t *testing.T) {
	release := make(chan struct{})
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) {
		first, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		<-release // the first reply is late
		if answer(c, first) != nil {
			return
		}
		echo(c, br)
	})
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	if _, err := request(p, 1, 30*time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("late call: %v, want ErrDeadline", err)
	}
	second := make(chan error, 1)
	go func() {
		got, err := request(p, 2, 5*time.Second)
		if err == nil && got != "re:2" {
			err = fmt.Errorf("got %q: the late reply was misattributed", got)
		}
		second <- err
	}()
	eventually(t, "second request queued behind the abandoned slot", func() bool {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		return len(p.pending) == 2
	})
	close(release)
	if err := <-second; err != nil {
		t.Fatalf("call behind an abandoned slot: %v", err)
	}
	mustReply(t, p, 3)
	if downs := pr.counts().downs; downs != 0 || pe.accepts.Load() != 1 {
		t.Errorf("downs = %d, connections = %d; want 0 and 1", downs, pe.accepts.Load())
	}
}

// A peer that reads and never answers is torn down once it has been silent
// past the last deadline outstanding plus the grace, not at the first
// deadline; the next call redials.
func TestPipeHungPeerTornDownAtHorizon(t *testing.T) {
	var hung atomic.Bool
	hung.Store(true)
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) {
		if hung.Load() {
			swallow(c, br)
		} else {
			echo(c, br)
		}
	})
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	start := time.Now()
	for key := uint32(1); key <= 3; key++ {
		if _, err := request(p, key, 20*time.Millisecond); !errors.Is(err, ErrDeadline) {
			t.Fatalf("call %d: %v, want ErrDeadline", key, err)
		}
	}
	if pr.counts().downs != 0 {
		t.Fatalf("connection torn down by a request deadline (after %v)", time.Since(start))
	}
	eventually(t, "horizon teardown", func() bool { return pr.counts().downs == 1 })
	if d := time.Since(start); d < readGrace {
		t.Errorf("torn down after %v, before the grace (%v) ran out", d, readGrace)
	}
	if failed := pr.counts().failed; failed != 3 {
		t.Errorf("teardown failed %d slots, want the 3 abandoned ones", failed)
	}
	hung.Store(false)
	mustReply(t, p, 4)
	if n := pe.accepts.Load(); n != 2 {
		t.Errorf("%d connections, want 2", n)
	}
}

// When the connection dies every call outstanding fails with one and the
// same error, which names ErrLost and the cause; a call that was not
// outstanding does not see ErrLost.
func TestPipeTeardownFailsPendingWithOneCause(t *testing.T) {
	kill := make(chan struct{})
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) {
		go swallow(c, br)
		<-kill
	})
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	errs := make(chan error, 3)
	for key := uint32(1); key <= 3; key++ {
		go func() { _, err := request(p, key, 5*time.Second); errs <- err }()
	}
	eventually(t, "three calls outstanding", func() bool {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		return len(p.pending) == 3
	})
	close(kill)
	first := <-errs
	if !errors.Is(first, ErrLost) {
		t.Fatalf("outstanding call failed with %v, want ErrLost", first)
	}
	for range 2 {
		if err := <-errs; err != first {
			t.Errorf("outstanding calls failed with different errors: %v / %v", first, err)
		}
	}
	if n := pr.counts(); n.downs != 1 || n.failed != 3 {
		t.Errorf("downs = %d, failed = %d; want 1 and 3", n.downs, n.failed)
	}
}

// A teardown aimed at a connection that is already gone must not touch the
// one dialed since.
func TestPipeStaleTeardownSparesFreshConnection(t *testing.T) {
	pe := listen(t, "127.0.0.1:0", echo)
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	mustReply(t, p, 1)
	pr.mu.Lock()
	stale := p.gen
	pr.mu.Unlock()
	p.teardown(stale, errors.New("first teardown"))
	mustReply(t, p, 2) // redials

	p.teardown(stale, errors.New("late teardown from the dead connection's reader"))
	mustReply(t, p, 3)
	if downs := pr.counts().downs; downs != 1 || pe.accepts.Load() != 2 {
		t.Errorf("downs = %d, connections = %d; want 1 and 2", downs, pe.accepts.Load())
	}
}

// Failed dials back off: the window doubles up to the maximum, calls inside
// it fail fast with the cached error, a successful dial resets it, and the
// death of an established connection opens no window at all.
func TestPipeDialBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: dials are refused

	var pr probe
	p := pr.pipe(addr, 0)
	defer p.Close(errors.New("test over"))

	// The window doubles up to maxBackoff and stays there: the last two
	// rounds both want the cap.
	var wants []time.Duration
	for w := initialBackoff; w < maxBackoff; w *= 2 {
		wants = append(wants, w)
	}
	wants = append(wants, maxBackoff, maxBackoff)
	for i, want := range wants {
		_, dialErr := request(p, 1, time.Second)
		if dialErr == nil {
			t.Fatal("dial to a closed port succeeded")
		}
		_, again := request(p, 1, time.Second)
		if again != dialErr {
			t.Errorf("inside the window: %v, want the cached %v", again, dialErr)
		}
		pr.mu.Lock()
		if p.backoff != want {
			t.Errorf("after %d failed dials the window is %v, want %v", i+1, p.backoff, want)
		}
		if pr.n.fresh != i+1 || pr.n.cached != i+1 {
			t.Errorf("after %d rounds: %d dials failed, %d calls failed fast", i+1, pr.n.fresh, pr.n.cached)
		}
		p.nextDial = time.Time{} // the window has run out
		pr.mu.Unlock()
	}

	pe := listen(t, addr, func(c net.Conn, br *bufio.Reader) {
		if f, err := wire.ReadFrame(br); err == nil {
			answer(c, f) // one reply, then the connection dies
		}
	})
	mustReply(t, p, 2)
	pr.mu.Lock()
	if p.backoff != 0 || p.dialErr != nil {
		t.Errorf("a successful dial left backoff %v, error %v", p.backoff, p.dialErr)
	}
	pr.mu.Unlock()
	eventually(t, "established connection's death", func() bool { return pr.counts().downs == 1 })
	mustReply(t, p, 3) // at once: no window, no fast-fail
	if n, rounds := pr.counts(), len(wants); n.fresh != rounds || n.cached != rounds || pe.accepts.Load() != 2 {
		t.Errorf("fresh = %d, cached = %d, connections = %d; want %d, %d, 2", n.fresh, n.cached, pe.accepts.Load(), rounds, rounds)
	}
}

// Frames the Plane calls out of band take no slot; a reply nothing asked for
// kills the connection, as does a frame the Plane calls fatal.
func TestPipeOutOfBandUnsolicitedAndFatalFrames(t *testing.T) {
	script := make(chan func(c net.Conn, br *bufio.Reader), 3)
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) { (<-script)(c, br) })
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	script <- func(c net.Conn, br *bufio.Reader) {
		f, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		wire.WriteFrame(c, wire.Frame{Type: wire.FrameUpdate})
		wire.WriteFrame(c, wire.Frame{Type: wire.FrameUpdate})
		answer(c, f)
		// Then, unasked:
		wire.WriteFrame(c, wire.Frame{Type: wire.FrameResponse, SrcIP: 99})
		swallow(c, br)
	}
	mustReply(t, p, 1)
	if n := pr.oob.Load(); n != 2 {
		t.Errorf("%d out-of-band frames seen, want 2", n)
	}
	eventually(t, "unsolicited reply to kill the connection", func() bool { return pr.counts().downs == 1 })

	script <- func(c net.Conn, br *bufio.Reader) {
		if _, err := wire.ReadFrame(br); err == nil {
			wire.WriteFrame(c, wire.Frame{Type: wire.FrameAck, Payload: []byte{0}})
			swallow(c, br)
		}
	}
	if _, err := request(p, 2, 5*time.Second); !errors.Is(err, ErrLost) {
		t.Errorf("call answered by a fatal frame: %v, want ErrLost", err)
	}
	script <- echo
	mustReply(t, p, 3)
}

// A reply whose key is not its request's fails that call and kills the
// connection rather than let every later reply be misattributed.
func TestPipeReplyKeyMismatchKillsConnection(t *testing.T) {
	var wrong atomic.Bool
	wrong.Store(true)
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) {
		for {
			f, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			if wrong.Load() {
				f.SrcIP++
			}
			if answer(c, f) != nil {
				return
			}
		}
	})
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	if got, err := request(p, 7, 5*time.Second); err == nil {
		t.Fatalf("mismatched reply delivered: %q", got)
	}
	eventually(t, "desync teardown", func() bool { return pr.counts().downs == 1 })
	wrong.Store(false)
	mustReply(t, p, 8)
	if n := pe.accepts.Load(); n != 2 {
		t.Errorf("%d connections, want 2", n)
	}
}

// At the limit Call fails at once instead of queueing behind a slow peer.
func TestPipeLimitFailsFast(t *testing.T) {
	pe := listen(t, "127.0.0.1:0", swallow)
	var pr probe
	p := pr.pipe(pe.addr(), 2)
	defer p.Close(errors.New("test over"))

	for key := uint32(1); key <= 2; key++ {
		go request(p, key, 5*time.Second)
	}
	eventually(t, "two calls outstanding", func() bool {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		return len(p.pending) == 2
	})
	start := time.Now()
	if _, err := request(p, 3, 5*time.Second); err == nil || errors.Is(err, ErrDeadline) {
		t.Errorf("call past the limit: %v, want an immediate failure", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("call past the limit took %v", d)
	}
}

// Close fails the calls in flight and every later one with its error, and
// nothing dials again.
func TestPipeCloseWithCallsInFlight(t *testing.T) {
	pe := listen(t, "127.0.0.1:0", swallow)
	var pr probe
	p := pr.pipe(pe.addr(), 0)

	errs := make(chan error, 2)
	for key := uint32(1); key <= 2; key++ {
		go func() { _, err := request(p, key, 5*time.Second); errs <- err }()
	}
	eventually(t, "two calls outstanding", func() bool {
		pr.mu.Lock()
		defer pr.mu.Unlock()
		return len(p.pending) == 2
	})
	closed := errors.New("closed by the test")
	p.Close(closed)
	for range 2 {
		if err := <-errs; !errors.Is(err, closed) {
			t.Errorf("call in flight at Close: %v, want %v", err, closed)
		}
	}
	if _, err := request(p, 3, time.Second); err != closed {
		t.Errorf("call after Close: %v, want %v", err, closed)
	}
	eventually(t, "peer to see the connection closed", func() bool { return pe.live.Load() == 0 })
	if n := pe.accepts.Load(); n != 1 {
		t.Errorf("%d connections, want 1: a closed pipe must not redial", n)
	}
}

// Close racing first calls: whichever side wins, no connection survives and
// none is dialed afterwards.
func TestPipeCloseRacingDial(t *testing.T) {
	pe := listen(t, "127.0.0.1:0", echo)
	closed := errors.New("closed by the test")
	for range 50 {
		var pr probe
		p := pr.pipe(pe.addr(), 0)
		var wg sync.WaitGroup
		for key := uint32(1); key <= 4; key++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := request(p, key, 5*time.Second); err != nil && !errors.Is(err, closed) {
					t.Errorf("call racing Close: %v", err)
				}
			}()
		}
		p.Close(closed)
		wg.Wait()
		before := pr.counts().opened
		if _, err := request(p, 9, time.Second); err != closed {
			t.Fatalf("call after Close: %v, want %v", err, closed)
		}
		pr.mu.Lock()
		if p.conn != nil || p.out != nil {
			t.Error("a connection survived Close")
		}
		pr.mu.Unlock()
		if n := pr.counts(); n.opened != n.downs || n.opened != before || n.readers != n.opened {
			t.Errorf("%d connections opened (%d before the late call) with %d decoders, %d torn down", n.opened, before, n.readers, n.downs)
		}
	}
	eventually(t, "peer to see every connection closed", func() bool { return pe.live.Load() == 0 })
}

// start issues one request through Go and returns at once.
func start(p *Pipe[uint32, string], key uint32, timeout time.Duration, done func(string, error)) {
	p.Go(key, time.Now().Add(timeout), query(key), done)
}

// Whatever ends a call — its reply, its deadline, the connection's death, a
// failed dial, Close — and however those race, done runs once.
func TestPipeDoneRunsExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var mu sync.Mutex // rng is shared with the peer's script
	roll := func(n int) int {
		mu.Lock()
		defer mu.Unlock()
		return rng.Intn(n)
	}
	// The peer answers most requests after a moment, swallows some and now
	// and then drops the connection.
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) {
		for {
			f, err := wire.ReadFrame(br)
			if err != nil {
				return
			}
			switch r := roll(20); {
			case r == 0:
				return
			case r < 4:
			default:
				time.Sleep(time.Duration(roll(300)) * time.Microsecond)
				if answer(c, f) != nil {
					return
				}
			}
		}
	})
	for round := range 20 {
		var pr probe
		p := pr.pipe(pe.addr(), 0)
		const calls = 200
		var ran [calls]atomic.Int32
		var wg sync.WaitGroup
		wg.Add(calls)
		for i := range calls {
			if i == calls/2 && round%2 == 0 {
				go p.Close(errors.New("closed mid-round"))
			}
			start(p, uint32(i), time.Duration(roll(2000))*time.Microsecond, func(string, error) {
				if ran[i].Add(1) == 1 {
					wg.Done()
				}
			})
		}
		wg.Wait()
		p.Close(errors.New("round over"))
		time.Sleep(5 * time.Millisecond) // a second run of some done would come about now
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("round %d: done of call %d ran %d times", round, i, n)
			}
		}
	}
}

// A completion may issue the next call on the same Pipe, whether it runs on
// the reader with a reply or on whoever tore the connection down.
func TestPipeCompletionReenters(t *testing.T) {
	var killed atomic.Bool
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) {
		if killed.CompareAndSwap(false, true) {
			// The first connection dies under three calls.
			for range 3 {
				if _, err := wire.ReadFrame(br); err != nil {
					return
				}
			}
			return
		}
		echo(c, br)
	})
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))

	// Each of three calls fails with the connection and is reissued from its
	// completion; the reissued call's reply starts a chain of ten more, each
	// from the reply before it.
	results := make(chan error, 3)
	for key := uint32(1); key <= 3; key++ {
		var chain func(left int) func(string, error)
		chain = func(left int) func(string, error) {
			return func(got string, err error) {
				switch {
				case errors.Is(err, ErrLost) && left == 11:
					start(p, key, 5*time.Second, chain(10))
				case err != nil || got != "re:"+strconv.Itoa(int(key)):
					results <- fmt.Errorf("call %d, %d to go: %q, %v", key, left, got, err)
				case left == 0:
					results <- nil
				default:
					start(p, key, 5*time.Second, chain(left-1))
				}
			}
		}
		start(p, key, 5*time.Second, chain(11))
	}
	for range 3 {
		select {
		case err := <-results:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a completion that calls Go never finished: deadlock")
		}
	}
	if n := pr.counts(); n.downs != 1 || n.failed != 3 || pe.accepts.Load() != 2 {
		t.Errorf("downs = %d, failed = %d, connections = %d; want 1, 3, 2", n.downs, n.failed, pe.accepts.Load())
	}
}

// A thousand calls outstanding park no goroutine and arm no timer each: they
// all fail at their deadline, from one run of the sweeper.
func TestPipeOutstandingCallsCostNoGoroutine(t *testing.T) {
	pe := listen(t, "127.0.0.1:0", swallow)
	var pr probe
	p := pr.pipe(pe.addr(), 0)
	defer p.Close(errors.New("test over"))
	if _, err := request(p, 0, 20*time.Millisecond); !errors.Is(err, ErrDeadline) { // dialed, reader and writer running
		t.Fatal(err)
	}

	const calls = 1000
	before := runtime.NumGoroutine()
	deadline := time.Now().Add(150 * time.Millisecond)
	var failed atomic.Int64
	ends := make(chan time.Time, calls)
	for range calls {
		p.Go(0, deadline, query(0), func(_ string, err error) {
			if errors.Is(err, ErrDeadline) {
				failed.Add(1)
			}
			ends <- time.Now()
		})
	}
	if n := runtime.NumGoroutine(); n > before+1 { // +1: the sweeper's timer may be firing
		t.Errorf("%d goroutines with %d calls outstanding, %d before", n, calls, before)
	}
	var first, last time.Time
	for range calls {
		at := <-ends
		if first.IsZero() {
			first = at
		}
		last = at
	}
	if failed.Load() != calls {
		t.Errorf("%d of %d calls failed with ErrDeadline", failed.Load(), calls)
	}
	if first.Before(deadline) || last.Sub(first) > 50*time.Millisecond {
		t.Errorf("calls failed from %v before to %v after their deadline; want all at it, together", deadline.Sub(first), last.Sub(deadline))
	}
	if downs := pr.counts().downs; downs != 0 {
		t.Errorf("deadlines tore the connection down %d times", downs)
	}
}

// blackhole returns a loopback address whose SYNs go unanswered: a listener
// that never accepts, with its accept queue full.
func blackhole(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Skip(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Skip(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Skip(err)
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(sa.(*syscall.SockaddrInet4).Port))
	for range 8 { // fill the queue; the dials that no longer fit time out
		c, err := net.DialTimeout("tcp", addr, 50*time.Millisecond)
		if err != nil {
			return addr
		}
		t.Cleanup(func() { c.Close() })
	}
	t.Skip("this kernel keeps completing connections to a full accept queue")
	return ""
}

// Go never dials on its caller's goroutine: to an address that swallows SYNs
// it returns at once, and the call fails through done when the dial times out.
func TestPipeGoDoesNotDial(t *testing.T) {
	var pr probe
	p := pr.pipe(blackhole(t), 0)
	defer p.Close(errors.New("test over"))

	failed := make(chan error, 2)
	begin := time.Now()
	start(p, 1, 5*time.Second, func(_ string, err error) { failed <- err })
	start(p, 2, 5*time.Second, func(_ string, err error) { failed <- err })
	if d := time.Since(begin); d > dialTimeout/4 {
		t.Errorf("Go took %v to a black-holed address", d)
	}
	var nerr net.Error
	for range 2 {
		if err := <-failed; !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Errorf("call failed with %v, want the dial's timeout", err)
		}
	}
	if d := time.Since(begin); d < dialTimeout || d > 3*dialTimeout {
		t.Errorf("calls failed after %v, want the dial timeout (%v)", d, dialTimeout)
	}
	if n := pr.counts(); n.fresh != 1 {
		t.Errorf("%d dials failed, want 1 for both calls", n.fresh)
	}
}

// A connection that keeps calls outstanding slides its pending window along
// one array: when the window reaches the end, it moves to the front instead
// of growing a new array. Over 10,000 calls with 4 in flight (3 or 4
// outstanding at every push) the process allocates at most a handful of
// objects; a queue that grows a new array each time the window reaches the
// end allocates one every few calls. The count is runtime.MemStats.Mallocs
// over the whole run, not testing.AllocsPerRun, whose per-run average rounds
// a fraction of an allocation per call down to zero. The peer and the plane
// allocate nothing per frame, so every allocation counted is the Pipe's.
func TestPipePendingQueueDoesNotReallocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	pe := listen(t, "127.0.0.1:0", func(c net.Conn, br *bufio.Reader) {
		var in, out []byte
		for {
			f, buf, err := wire.ReadFrameInto(br, in)
			if err != nil {
				return
			}
			in = buf
			f.Type = wire.FrameResponse
			if out, err = wire.AppendFrame(out[:0], f); err != nil {
				return
			}
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	})
	var mu sync.Mutex
	p := NewPipe(&mu, pe.addr(), time.Second, 0, Plane[uint32, uint32]{
		Reader: func() func(wire.Frame) (uint32, uint32, Verdict, error) {
			return func(f wire.Frame) (uint32, uint32, Verdict, error) {
				return uint32(f.SrcIP), uint32(f.SrcIP), Reply, nil
			}
		},
	})
	defer p.Close(errors.New("test over"))

	// Each of the window's slots calls again from its own completion, on the
	// reader, until the round's calls are spent. The deadline is far enough
	// off that the sweeper never runs.
	const window, warm, calls = 4, 1_000, 10_000
	deadline := time.Now().Add(time.Minute)
	var left atomic.Int64
	var failed atomic.Value
	finished := make(chan struct{}, window)
	frames := make([]func([]byte) ([]byte, error), window)
	dones := make([]func(uint32, error), window)
	for i := range window {
		payload := []byte("q")
		frames[i] = func(b []byte) ([]byte, error) {
			return wire.AppendFrame(b, wire.Frame{Type: wire.FrameQuery, SrcIP: netaddr.IP(i), Payload: payload})
		}
		dones[i] = func(_ uint32, err error) {
			if err != nil {
				failed.CompareAndSwap(nil, err)
			}
			if left.Add(-1) >= 0 && err == nil {
				p.Go(uint32(i), deadline, frames[i], dones[i])
				return
			}
			finished <- struct{}{}
		}
	}
	round := func(n int) {
		left.Store(int64(n - window))
		for i := range window {
			p.Go(uint32(i), deadline, frames[i], dones[i])
		}
		for range window {
			<-finished
		}
		if err := failed.Load(); err != nil {
			t.Fatal(err)
		}
	}
	round(warm) // dial, and size the queue's array
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round(calls)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 8 {
		t.Errorf("%d allocations over %d calls with %d in flight, want at most a handful", n, calls, window)
	}
}
