package link

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/wire"
)

const (
	// dialTimeout bounds connection establishment; a request deadline
	// closer than this wins.
	dialTimeout = 1 * time.Second

	// initialBackoff is how long calls fail fast after the first failed
	// dial; it doubles with every further failure up to the Pipe's maximum.
	initialBackoff = 50 * time.Millisecond

	// readGrace pads the reader's deadline horizon past the last request's
	// deadline, so per-request timeouts abandon their slot (keeping the
	// connection and its pipeline intact) before the reader declares the
	// whole connection hung and tears it down.
	readGrace = 500 * time.Millisecond

	// readBuf is each connection's read buffer: a burst of a dozen replies
	// per read. A larger frame is read straight into its own payload. One is
	// held per peer, so it is no larger than that (docs/architecture.md,
	// "Wire I/O").
	readBuf = 4 << 10
)

// ErrDeadline fails a call whose reply did not arrive by its deadline. It
// reports Timeout() true so net.Error-style classifiers (the controller's
// query_timeouts accounting) see it as a timeout.
var ErrDeadline error = deadlineError{}

type deadlineError struct{}

func (deadlineError) Error() string { return "link: request deadline exceeded" }
func (deadlineError) Timeout() bool { return true }

// ErrLost is wrapped, with the cause, into the failure of every call that
// was outstanding when its connection died: the request was written and the
// peer may or may not have acted on it.
var ErrLost = errors.New("link: connection lost with the request outstanding")

// Verdict is what a Plane makes of one frame the peer sent.
type Verdict int

const (
	Reply     Verdict = iota // answers the oldest request outstanding
	OutOfBand                // pushed unasked; the Plane has consumed it, no slot is touched
	Fatal                    // the stream cannot be trusted past it: tear the connection down
)

// Plane is the owner's half of a Pipe. Only Frame is required.
type Plane[K comparable, R any] struct {
	// Frame decodes one frame on the connection's reader goroutine, without
	// the lock. The payload is the reader's reused buffer: copy what is
	// kept. With Reply it returns the key of the request the frame says it
	// answers and the decoded reply or, to fail just that call, an error;
	// with Fatal, the cause.
	Frame func(f wire.Frame) (K, R, Verdict, error)
	// Opened runs under the lock when a dial succeeds; what it appends to
	// buf is written ahead of the first request.
	Opened func(buf []byte) []byte
	// DialFailed runs under the lock when a dial fails, and again (cached)
	// for every call failed from the backoff window; calls get its result.
	DialFailed func(err error, cached bool) error
	// Down runs under the lock when an established connection is torn down,
	// once per connection, with the number of calls that fail with it.
	Down func(failed int)
}

// Pipe is one lazily dialed, pipelined connection of wire.Frames to one
// peer: any number of calls share it, and replies are correlated to requests
// by FIFO order — the peer answers one connection's requests in order — with
// each reply's key checked against its request's as a desync guard.
//
// A failed dial makes later calls fail fast with the same error for a
// backoff window; the death of an established connection does not (the next
// call redials at once). A call that hits its deadline abandons its slot:
// the reader discards the late reply when it comes and the calls pipelined
// behind it live. Only a peer silent past the last deadline outstanding
// (plus readGrace) is declared hung, and then — as for any read or write
// error — every call outstanding fails with that one cause.
//
// Like Writer, a Pipe runs under a lock its owner supplies, which it takes
// itself: the owner keeps its per-connection state under the same lock, and
// Opened and Down change it in the critical section that changes the
// connection.
type Pipe[K comparable, R any] struct {
	l          sync.Locker
	addr       string
	timeout    time.Duration // write deadline of every burst
	maxBackoff time.Duration
	limit      int // calls outstanding at which Call fails fast; 0: none
	plane      Plane[K, R]
	calls      sync.Pool // *call[K, R]

	conn     net.Conn
	out      *Writer // conn's only writer; nil exactly when conn is
	gen      uint64  // connections torn down so far: stale readers and writers no-op
	pending  []*call[K, R]
	horizon  time.Time // read deadline currently set on conn
	dialErr  error     // last dial failure, served until nextDial
	nextDial time.Time
	backoff  time.Duration
	closed   error // set by Close: nothing dials again
}

// NewPipe returns a Pipe to addr; nothing is dialed before the first Call.
// timeout bounds each write (a peer that stops reading is torn down within
// it), maxBackoff caps the fail-fast window after repeated dial failures,
// and limit, when not 0, is the number of unanswered requests at which Call
// fails at once instead of queueing behind them. Bound caps the bytes
// pending either way.
func NewPipe[K comparable, R any](l sync.Locker, addr string, timeout, maxBackoff time.Duration, limit int, plane Plane[K, R]) *Pipe[K, R] {
	return &Pipe[K, R]{l: l, addr: addr, timeout: timeout, maxBackoff: maxBackoff, limit: limit, plane: plane}
}

// call is one request's slot in the pipeline. The reader CASes
// waiting→delivered and sends on done; a waiter whose deadline passes CASes
// waiting→abandoned and leaves, after which the reader recycles the slot
// when the late reply or a teardown reaches it.
type call[K comparable, R any] struct {
	key   K
	state atomic.Int32
	done  chan result[R]
}

type result[R any] struct {
	reply R
	err   error
}

const (
	callWaiting int32 = iota
	callDelivered
	callAbandoned
)

// timers recycles the deadline timer every Call waits on: nearly all are
// stopped unfired a round trip later, and a stopped or fired timer delivers
// nothing stale after Reset (Go 1.23 timer channels).
var timers sync.Pool

// Call appends one request — frame appends it, whole, to the buffer it is
// given, under the lock — and waits for its reply or the deadline.
func (p *Pipe[K, R]) Call(key K, deadline time.Time, frame func([]byte) ([]byte, error)) (R, error) {
	var r result[R]
	c, err := p.send(key, deadline, frame)
	if err != nil {
		return r.reply, err
	}
	timer, _ := timers.Get().(*time.Timer)
	if timer == nil {
		timer = time.NewTimer(time.Until(deadline))
	} else {
		timer.Reset(time.Until(deadline))
	}
	defer func() {
		timer.Stop()
		timers.Put(timer)
	}()
	select {
	case r = <-c.done:
	case <-timer.C:
		if c.state.CompareAndSwap(callWaiting, callAbandoned) {
			return r.reply, fmt.Errorf("link: %s: %w", p.addr, ErrDeadline)
		}
		r = <-c.done // delivery won the race
	}
	p.calls.Put(c)
	return r.reply, r.err
}

// send dials if needed, then queues the call and its frame in one critical
// section, so the pending queue's order is the wire order by construction.
// A write that fails later tears the connection down and fails the call like
// every other one outstanding.
func (p *Pipe[K, R]) send(key K, deadline time.Time, frame func([]byte) ([]byte, error)) (*call[K, R], error) {
	p.l.Lock()
	defer p.l.Unlock()
	if p.closed != nil {
		return nil, p.closed
	}
	if p.conn == nil {
		if err := p.dialLocked(deadline); err != nil {
			return nil, err
		}
	}
	if p.limit > 0 && len(p.pending) >= p.limit {
		return nil, fmt.Errorf("link: %s: %d requests unanswered", p.addr, len(p.pending))
	}
	// Reserve may wait with the lock released; it fails if the connection
	// was torn down meanwhile, so past it out is still p.conn's writer.
	conn, out := p.conn, p.out
	if err := out.Reserve(); err != nil {
		return nil, err
	}
	b, err := frame(out.Buf)
	if err != nil {
		return nil, err
	}
	out.Buf = b
	c, _ := p.calls.Get().(*call[K, R])
	if c == nil {
		c = &call[K, R]{done: make(chan result[R], 1)}
	}
	c.key = key
	c.state.Store(callWaiting)
	p.pending = append(p.pending, c)
	if h := deadline.Add(readGrace); h.After(p.horizon) {
		p.horizon = h
		conn.SetReadDeadline(h)
	}
	out.Flush()
	return c, nil
}

// dialLocked establishes the connection, or fails fast with the cached
// error while a failed dial's backoff window is open. The lock is held
// throughout, so a connection Close did not see does not exist.
func (p *Pipe[K, R]) dialLocked(deadline time.Time) error {
	now := time.Now()
	if p.dialErr != nil && now.Before(p.nextDial) {
		return p.dialFailed(p.dialErr, true)
	}
	timeout := min(dialTimeout, deadline.Sub(now))
	if timeout <= 0 {
		return fmt.Errorf("link: %s: %w", p.addr, ErrDeadline)
	}
	conn, err := net.DialTimeout("tcp", p.addr, timeout)
	if err != nil {
		p.backoff = min(max(2*p.backoff, initialBackoff), p.maxBackoff)
		p.nextDial = now.Add(p.backoff)
		p.dialErr = p.dialFailed(err, false)
		return p.dialErr
	}
	p.backoff, p.dialErr = 0, nil
	p.conn, p.horizon = conn, time.Time{}
	gen := p.gen
	p.out = NewWriter(p.l, Deadlined(conn, p.timeout), func(err error) {
		p.teardown(gen, fmt.Errorf("link: write %s: %w", p.addr, err))
	})
	go p.read(conn, gen)
	if p.plane.Opened != nil {
		p.out.Buf = p.plane.Opened(p.out.Buf)
		p.out.Flush()
	}
	return nil
}

func (p *Pipe[K, R]) dialFailed(err error, cached bool) error {
	if p.plane.DialFailed != nil {
		return p.plane.DialFailed(err, cached)
	}
	return err
}

// read is the connection's single reader: it hands every frame to the Plane
// and gives each reply to the oldest call outstanding.
func (p *Pipe[K, R]) read(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, readBuf)
	var payload []byte // every frame's, in turn
	for {
		f, buf, err := wire.ReadFrameInto(br, payload)
		if err != nil {
			p.teardown(gen, fmt.Errorf("link: read %s: %w", p.addr, err))
			return
		}
		payload = buf
		key, reply, verdict, err := p.plane.Frame(f)
		if verdict == OutOfBand {
			continue
		}
		if verdict == Fatal {
			p.teardown(gen, fmt.Errorf("link: read %s: %w", p.addr, err))
			return
		}
		p.l.Lock()
		if p.gen != gen {
			p.l.Unlock()
			return // torn down meanwhile; the teardown took the pending queue
		}
		if len(p.pending) == 0 {
			p.l.Unlock()
			p.teardown(gen, fmt.Errorf("link: %s: unsolicited reply", p.addr))
			return
		}
		c := p.pending[0]
		p.pending = p.pending[1:]
		if len(p.pending) == 0 {
			// Nothing outstanding: an idle connection must not trip the
			// hung-connection deadline.
			p.horizon = time.Time{}
			conn.SetReadDeadline(time.Time{})
		}
		p.l.Unlock()
		if key != c.key {
			// Correlation broken — a peer answering out of order or a
			// protocol bug. Fail everything rather than misattribute.
			p.deliver(c, result[R]{err: fmt.Errorf("link: %s: reply to %v does not match request %v", p.addr, key, c.key)})
			p.teardown(gen, fmt.Errorf("link: %s: pipeline desync", p.addr))
			return
		}
		p.deliver(c, result[R]{reply, err})
	}
}

// deliver completes a call; an abandoned slot is recycled here, exactly once.
func (p *Pipe[K, R]) deliver(c *call[K, R], r result[R]) {
	if c.state.CompareAndSwap(callWaiting, callDelivered) {
		c.done <- r
		return
	}
	p.calls.Put(c)
}

// teardown closes the connection of generation gen and fails every call
// outstanding on it with err. The reader, the writer and Close can all see
// the same death; the generation makes the first the only one to act, and
// keeps a late one from killing the connection dialed since.
func (p *Pipe[K, R]) teardown(gen uint64, err error) {
	p.l.Lock()
	p.dropLocked(gen, err)
}

// Close fails every call outstanding, and every later one, with err (not
// nil) and closes the connection for good.
func (p *Pipe[K, R]) Close(err error) {
	p.l.Lock()
	p.closed = err
	p.dropLocked(p.gen, err)
}

// dropLocked is teardown with the lock held; it releases it. The next call
// redials at once — losing an established connection says nothing about
// whether a fresh dial will succeed — and only that dial's failure arms the
// backoff.
func (p *Pipe[K, R]) dropLocked(gen uint64, err error) {
	if p.gen != gen || p.conn == nil {
		p.l.Unlock()
		return
	}
	p.gen++
	p.conn.Close()
	p.out.Close(err)
	p.conn, p.out = nil, nil
	failed := p.pending
	p.pending, p.horizon = nil, time.Time{}
	if p.plane.Down != nil {
		p.plane.Down(len(failed))
	}
	p.l.Unlock()
	if len(failed) > 0 {
		err = fmt.Errorf("%w: %w", ErrLost, err)
	}
	for _, c := range failed {
		p.deliver(c, result[R]{err: err})
	}
}
