package link

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"identxx/internal/wire"
)

const (
	// dialTimeout bounds connection establishment. A request deadline closer
	// than this fails that request; the dial goes on for those behind it.
	dialTimeout = 1 * time.Second

	// initialBackoff is how long calls fail fast after the first failed
	// dial; it doubles with every further failure up to the Pipe's maximum.
	initialBackoff = 50 * time.Millisecond

	// readGrace is how long past the last request's deadline the sweeper
	// waits, so per-request timeouts abandon their slot (keeping the
	// connection and its pipeline intact) before it declares the whole
	// connection hung and tears it down.
	readGrace = 500 * time.Millisecond

	// connBuf is each connection's read buffer, and a served connection's
	// write buffer: a burst of some forty pipelined queries, or a dozen
	// replies, per syscall. A larger frame passes through unbuffered. One or
	// two are held per peer, so they are no larger than that
	// (docs/architecture.md, "Wire I/O").
	connBuf = 4 << 10
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
// Go queues a request and returns; the call's completion runs later, exactly
// once and with no lock held, on the goroutine that learns the outcome: the
// connection's reader for a reply, the sweeper for a deadline, whoever tears
// the connection down, the dialer for a failed dial, the caller itself only
// for a request refused on the spot. A completion may call Go again, on any
// Pipe; it must not block, because its reader reads nothing meanwhile.
//
// Nothing dials on a caller's goroutine (it may be another Pipe's reader):
// calls that find the Pipe disconnected wait for one dialer goroutine. A
// failed dial fails them and makes later calls fail fast with the same error
// for a backoff window; the death of an established connection does not (the
// next call redials at once).
//
// One sweeper per Pipe, armed for the earliest deadline outstanding, stands
// in for a timer per call. A call that hits its deadline abandons its slot:
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
	limit      int // calls outstanding at which Go refuses; 0: none
	plane      Plane[K, R]
	calls      sync.Pool // *call[K, R]

	conn     net.Conn
	out      *Writer       // conn's only writer; nil exactly when conn is
	gen      uint64        // connections torn down so far: stale readers and writers no-op
	pending  []*call[K, R] // written to conn and unanswered, oldest first
	waiting  []*call[K, R] // queued for the dialer to write
	dialing  bool          // a dialer goroutine is running
	dialErr  error         // last dial failure, served until nextDial
	nextDial time.Time
	backoff  time.Duration
	sweeper  *time.Timer // runs sweep at sweepAt
	sweepAt  time.Time   // zero: not armed
	closed   error       // set by Close: nothing dials again
}

// NewPipe returns a Pipe to addr; nothing is dialed before the first call.
// timeout bounds each write (a peer that stops reading is torn down within
// it), maxBackoff caps the fail-fast window after repeated dial failures,
// and limit, when not 0, is the number of unanswered requests at which a call
// fails at once instead of queueing behind them. Bound caps the bytes
// pending either way.
func NewPipe[K comparable, R any](l sync.Locker, addr string, timeout, maxBackoff time.Duration, limit int, plane Plane[K, R]) *Pipe[K, R] {
	return &Pipe[K, R]{l: l, addr: addr, timeout: timeout, maxBackoff: maxBackoff, limit: limit, plane: plane}
}

// call is one request's slot in a queue. Whoever takes it out of the queue,
// under the lock — the reader for its reply, a teardown, the dialer, Close —
// completes it. The sweeper takes only done out of an expired slot and leaves
// the slot where it is, so the late reply still finds its place in the FIFO.
type call[K comparable, R any] struct {
	key      K
	deadline time.Time
	frame    func([]byte) ([]byte, error)
	done     func(R, error) // nil once the deadline has abandoned the slot
}

// Call is Go and a wait for its completion.
func (p *Pipe[K, R]) Call(key K, deadline time.Time, frame func([]byte) ([]byte, error)) (reply R, err error) {
	done := make(chan struct{})
	p.Go(key, deadline, frame, func(r R, e error) { reply, err = r, e; close(done) })
	<-done
	return reply, err
}

// Go queues one request — frame appends it, whole, to the buffer it is given,
// under the lock — and returns. done runs exactly once: with the reply, or
// with the error that failed the call (ErrDeadline once deadline passes).
func (p *Pipe[K, R]) Go(key K, deadline time.Time, frame func([]byte) ([]byte, error), done func(R, error)) {
	c, _ := p.calls.Get().(*call[K, R])
	if c == nil {
		c = new(call[K, R])
	}
	c.key, c.deadline, c.frame, c.done = key, deadline, frame, done
	var err error // not nil: the call was refused and is in no queue
	p.l.Lock()
	switch {
	case p.closed != nil:
		err = p.closed
	case p.limit > 0 && len(p.pending)+len(p.waiting) >= p.limit:
		err = fmt.Errorf("link: %s: %d requests unanswered", p.addr, len(p.pending)+len(p.waiting))
	case p.conn != nil:
		err = p.writeLocked(p.out, c)
	case p.dialErr != nil && time.Now().Before(p.nextDial):
		err = p.dialFailed(p.dialErr, true)
	default: // wait for the dialer
		p.waiting = append(p.waiting, c)
		p.arm(c.deadline)
		if !p.dialing {
			p.dialing = true
			go p.dial()
		}
	}
	p.l.Unlock()
	if err != nil {
		p.complete(c, *new(R), err)
	}
}

// writeLocked queues the call and its frame in one critical section, so the
// pending queue's order is the wire order by construction. A write that fails
// later tears the connection down and fails the call like every other one
// outstanding.
func (p *Pipe[K, R]) writeLocked(out *Writer, c *call[K, R]) error {
	// Reserve may wait with the lock released; it fails if the connection
	// was torn down meanwhile, so past it out is still p.conn's writer.
	if err := out.Reserve(); err != nil {
		return err
	}
	b, err := c.frame(out.Buf)
	if err != nil {
		return err
	}
	out.Buf = b
	p.pending = append(p.pending, c)
	p.arm(c.deadline)
	out.Flush()
	return nil
}

// dial establishes the connection for the calls waiting for it and writes
// them to it — a call waits for one dial and lives or dies with its
// connection — or fails them and opens the backoff window. It holds no lock
// while it dials; a Close it could not see is honoured when it has.
func (p *Pipe[K, R]) dial() {
	conn, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	p.l.Lock()
	p.dialing = false
	failed := p.waiting // out of the sweeper's reach from here
	p.waiting = nil
	switch {
	case p.closed != nil: // Close took the queue
		if err == nil {
			conn.Close()
		}
	case err != nil:
		p.backoff = min(max(2*p.backoff, initialBackoff), p.maxBackoff)
		p.nextDial = time.Now().Add(p.backoff)
		p.dialErr = p.dialFailed(err, false)
		err = p.dialErr
	default:
		p.backoff, p.dialErr = 0, nil
		p.conn = conn
		gen := p.gen
		p.out = NewWriter(p.l, Deadlined(conn, p.timeout), func(err error) {
			p.teardown(gen, fmt.Errorf("link: write %s: %w", p.addr, err))
		})
		go p.read(conn, gen)
		if p.plane.Opened != nil {
			p.out.Buf = p.plane.Opened(p.out.Buf)
			p.out.Flush()
		}
		// Keep in failed only what is not written: calls that expired while
		// the dial ran, and any the connection refuses (with the last cause).
		out, waiting := p.out, failed
		failed = failed[:0]
		for _, c := range waiting {
			if c.done != nil {
				werr := p.writeLocked(out, c)
				if werr == nil {
					continue
				}
				err = werr
			}
			failed = append(failed, c)
		}
	}
	p.l.Unlock()
	for _, c := range failed {
		p.complete(c, *new(R), err)
	}
}

func (p *Pipe[K, R]) dialFailed(err error, cached bool) error {
	if p.plane.DialFailed != nil {
		return p.plane.DialFailed(err, cached)
	}
	return err
}

// complete recycles a slot that is in no queue any more and, unless its
// deadline got there first, runs its completion. The lock is not held.
func (p *Pipe[K, R]) complete(c *call[K, R], reply R, err error) {
	done := c.done
	*c = call[K, R]{}
	p.calls.Put(c)
	if done != nil {
		done(reply, err)
	}
}

// arm makes the sweeper run at t unless it will run sooner. Deadlines mostly
// grow from call to call, so a busy Pipe re-arms once per sweep, not per call.
func (p *Pipe[K, R]) arm(t time.Time) {
	if !p.sweepAt.IsZero() && !t.Before(p.sweepAt) {
		return
	}
	p.sweepAt = t
	if p.sweeper == nil {
		p.sweeper = time.AfterFunc(time.Until(t), p.sweep)
	} else {
		p.sweeper.Reset(time.Until(t))
	}
}

// sweep fails every call whose deadline has passed, in place, and re-arms
// for the earliest deadline left. When every slot on the connection is
// abandoned it waits for the last one's deadline plus readGrace instead, and
// tears down a peer still silent then.
func (p *Pipe[K, R]) sweep() {
	now := time.Now()
	p.l.Lock()
	p.sweepAt = time.Time{}
	var expired []func(R, error)
	var next time.Time // the earliest deadline still running
	for _, queue := range [2][]*call[K, R]{p.waiting, p.pending} {
		for _, c := range queue {
			switch {
			case c.done == nil:
			case !c.deadline.After(now):
				expired = append(expired, c.done)
				c.done = nil
			case next.IsZero() || c.deadline.Before(next):
				next = c.deadline
			}
		}
	}
	if next.IsZero() && len(p.pending) > 0 { // all abandoned: the horizon
		last := slices.MaxFunc(p.pending, func(a, b *call[K, R]) int { return a.deadline.Compare(b.deadline) })
		next = last.deadline.Add(readGrace)
	}
	switch {
	case next.IsZero():
		p.l.Unlock()
	case next.After(now):
		p.arm(next)
		p.l.Unlock()
	default: // only the horizon can be in the past after the loop above
		p.dropLocked(p.gen, fmt.Errorf("link: %s: silent %v past the last deadline: %w", p.addr, readGrace, os.ErrDeadlineExceeded))
	}
	err := fmt.Errorf("link: %s: %w", p.addr, ErrDeadline)
	for _, done := range expired {
		done(*new(R), err)
	}
}

// read is the connection's single reader: it hands every frame to the Plane
// and completes the oldest call outstanding with each reply.
func (p *Pipe[K, R]) read(conn net.Conn, gen uint64) {
	br := bufio.NewReaderSize(conn, connBuf)
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
		match := key == c.key
		p.l.Unlock()
		if !match {
			// Correlation broken — a peer answering out of order or a
			// protocol bug. Fail everything rather than misattribute.
			p.complete(c, *new(R), fmt.Errorf("link: %s: reply to %v does not match request %v", p.addr, key, c.key))
			p.teardown(gen, fmt.Errorf("link: %s: pipeline desync", p.addr))
			return
		}
		p.complete(c, reply, err)
	}
}

// teardown closes the connection of generation gen and fails every call
// outstanding on it with err. The reader, the writer, the sweeper and Close
// can all see the same death; the generation makes the first the only one to
// act, and keeps a late one from killing the connection dialed since.
func (p *Pipe[K, R]) teardown(gen uint64, err error) {
	p.l.Lock()
	p.dropLocked(gen, err)
}

// Close fails every call outstanding, and every later one, with err (not
// nil) and closes the connection for good.
func (p *Pipe[K, R]) Close(err error) {
	p.l.Lock()
	p.closed = err
	waiting := p.waiting
	p.waiting = nil
	if p.sweeper != nil {
		p.sweeper.Stop()
	}
	p.dropLocked(p.gen, err)
	for _, c := range waiting {
		p.complete(c, *new(R), err)
	}
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
	p.pending = nil
	if p.plane.Down != nil {
		p.plane.Down(len(failed))
	}
	p.l.Unlock()
	if len(failed) > 0 {
		err = fmt.Errorf("%w: %w", ErrLost, err)
	}
	for _, c := range failed {
		p.complete(c, *new(R), err)
	}
}
