package link

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"identxx/internal/wire"
)

// ErrClosed is returned by Listener.Serve after Close.
var ErrClosed = errors.New("link: listener closed")

// Listener is the connection lifecycle of every server in the tree — the
// daemon, the cluster Router, the switch channel:
// accept, track, and on Close stop accepting, close what is live and wait.
// The zero value is ready to use.
type Listener struct {
	mu     sync.Mutex
	open   map[io.Closer]struct{} // listeners and connections with a goroutine running
	closed bool
	wg     sync.WaitGroup
}

// Serve accepts connections from ln in the background and runs serve for
// each on a goroutine of its own; the connection is closed when serve
// returns. Close closes ln too.
func (l *Listener) Serve(ln net.Listener, serve func(net.Conn)) error {
	accepting := l.run(ln, func() {
		for {
			conn, err := ln.Accept()
			if err != nil || !l.run(conn, func() { serve(conn) }) {
				return
			}
		}
	})
	if !accepting {
		return ErrClosed
	}
	return nil
}

// Listen is Serve on a new TCP listener bound to addr, whose address it
// returns.
func (l *Listener) Listen(addr string, serve func(net.Conn)) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ln.Addr(), l.Serve(ln, serve)
}

// run starts f on a goroutine that Close waits for and can end by closing c,
// and closes c when f returns; on a closed Listener it only closes c.
func (l *Listener) run(c io.Closer, f func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		c.Close()
		return false
	}
	if l.open == nil {
		l.open = make(map[io.Closer]struct{})
	}
	l.open[c] = struct{}{}
	l.wg.Add(1)
	go func() {
		f()
		c.Close()
		l.mu.Lock()
		delete(l.open, c)
		l.mu.Unlock()
		l.wg.Done()
	}()
	return true
}

// Close stops accepting, closes every live connection — which ends the
// blocked read of the goroutine serving it — and returns once all of them
// have returned.
func (l *Listener) Close() {
	l.mu.Lock()
	l.closed = true
	for c := range l.open {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
}

// Conn is the writing half of a connection ServeFrames serves.
type Conn struct {
	conn    net.Conn
	idle    time.Duration // the serving goroutine's
	mu      sync.Mutex    // keeps replies and pushes whole against each other
	bw      *bufio.Writer // guarded by mu; every Write under Deadlined
	pushing bool          // guarded by mu: a flushPushes is on its way
}

// ServeFrames is the server half of a Pipe: it reads wire.Frames from conn
// and hands each to handle, on this goroutine, until a read fails, a frame is
// malformed or handle returns an error — then it returns, with the replies to
// everything handled before written out. A frame's payload is the loop's
// reused buffer: handle copies what it keeps.
//
// handle answers with Reply, which only appends to the connection's buffer:
// while whole requests are still buffered on the read side their replies
// collect, so a pipelined burst is answered with one Write. Before any read
// that could block — anything short of a whole frame buffered, not merely an
// empty buffer — they are flushed: the peer may be waiting for them before it
// sends the rest. Every Write gets timeout to complete, so a peer that stops
// reading is cut off; a read that may block is bounded by idle (0: not at
// all), which handle can change with SetIdle. A failed flush closes conn.
func ServeFrames(conn net.Conn, timeout, idle time.Duration, handle func(*Conn, wire.Frame) error) {
	c := &Conn{conn: conn, idle: idle, bw: bufio.NewWriterSize(Deadlined(conn, timeout), connBuf)}
	br := bufio.NewReaderSize(conn, connBuf)
	// On a dead connection this fails and nobody minds.
	defer c.flush()
	var payload []byte
	for {
		if !wire.FrameBuffered(br) {
			if c.flush() != nil {
				return
			}
			var deadline time.Time
			if c.idle > 0 {
				deadline = time.Now().Add(c.idle)
			}
			if conn.SetReadDeadline(deadline) != nil {
				return
			}
		}
		var f wire.Frame
		var err error
		if f, payload, err = wire.ReadFrameInto(br, payload); err != nil {
			return
		}
		if handle(c, f) != nil {
			return
		}
	}
}

// SetIdle changes the bound of the reads that follow; it is the handler's.
func (c *Conn) SetIdle(d time.Duration) { c.idle = d }

// Reply appends one frame — enc renders it, in the writer's free space when
// it fits — behind the replies already buffered. The serve loop flushes.
func (c *Conn) Reply(enc func([]byte) ([]byte, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appendLocked(enc)
}

// Push appends one unsolicited frame, from any goroutine, whole and behind
// whatever is buffered, and returns without writing it: the pushes of a
// burst leave together, in one flush run by whichever comes first of the
// serve loop, before its next read that could block, and a goroutine the
// burst's first push starts. A push or a flush that fails — a write
// deadline included — closes the connection, so the peer reconnects and
// resynchronizes instead of silently missing it; every later push then
// returns the failure.
func (c *Conn) Push(enc func([]byte) ([]byte, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.appendLocked(enc); err != nil {
		c.conn.Close()
		return err
	}
	if !c.pushing {
		c.pushing = true
		go c.flushPushes()
	}
	return nil
}

// flushPushes is the flush a burst's first push starts. It returns after
// that one flush, which the write deadline bounds; nothing waits for it.
func (c *Conn) flushPushes() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pushing = false
	c.flushLocked()
}

func (c *Conn) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flushLocked()
}

// flushLocked writes out what is buffered; a failure closes the connection.
// A bufio.Writer keeps its first error: after a failed flush every append
// returns it and appends nothing.
func (c *Conn) flushLocked() error {
	err := c.bw.Flush()
	if err != nil {
		c.conn.Close()
	}
	return err
}

func (c *Conn) appendLocked(enc func([]byte) ([]byte, error)) error {
	b, err := enc(c.bw.AvailableBuffer())
	if err == nil {
		_, err = c.bw.Write(b)
	}
	return err
}
