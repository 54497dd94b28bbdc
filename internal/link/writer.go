// Package link holds what the streams identctl speaks share below their
// messages. Writer is the coalescing writer under all of them — the switch
// channel, the query plane, the cluster link: one Write per burst of messages
// instead of one (or two) per message. Pipe is the one pipelined
// request/reply connection of wire.Frames, under the query plane and the
// cluster link: a dialer goroutine with backoff, FIFO correlation, one
// deadline sweeper, teardown — and each call's completion run on the
// goroutine that learns its outcome, so no goroutine waits per call.
// Listener and ServeFrames are the server half: the one accept-track-close
// lifecycle of every listener, and the one read-dispatch-reply loop of the
// servers that speak wire.Frames (the daemon, the cluster Router).
package link

import (
	"io"
	"net"
	"sync"
	"time"
)

const (
	// Bound is the number of pending bytes at which Reserve blocks. It is a
	// few bursts of the largest thing either plane sends (a 32-deep window of
	// 9 KB jumbo packet-outs is 290 KB) and far below what a stalled peer
	// could otherwise make the process hold.
	Bound = 256 << 10

	// Retain is the largest buffer kept for the next burst. Steady bursts are
	// a few KB; a buffer one stall grew is garbage afterwards, because every
	// live KB above Go's 4 MB minimum heap goal costs two of RSS.
	Retain = 64 << 10
)

// Writer coalesces the whole frames of any number of senders into one Write
// per burst. Senders append to Buf under the lock and return; the writer's own
// goroutine swaps the buffer out and writes whatever accumulated while the
// previous Write was in flight, so the order of the stream is the order of
// the appends.
//
// Like sync.Cond, a Writer is used under a lock its owner supplies: the lock
// guards Buf and must be held around every method. The owner can therefore
// put its own state (a FIFO of calls awaiting replies, say) under the same
// lock and have it ordered with the bytes by construction.
//
// At most about 2×Bound bytes are held: up to Bound (plus the frame that
// crossed it) pending, and as much again inside the Write in flight.
type Writer struct {
	// Buf holds the frames no Write has taken yet. Append whole frames
	// only, after Reserve, then call Flush.
	Buf []byte

	l     sync.Locker
	w     io.Writer
	fail  func(error)
	work  sync.Cond // the writer goroutine waits here for Buf to fill
	space sync.Cond // senders wait here at Bound
	spare []byte    // the previous burst's buffer, emptied
	err   error
}

// NewWriter starts a writer over w. When a Write fails the writer closes
// itself with that error and calls fail, without l held; fail must close the
// connection, so that the reading side notices too. fail is not called after
// Close.
func NewWriter(l sync.Locker, w io.Writer, fail func(error)) *Writer {
	lw := &Writer{l: l, w: w, fail: fail}
	lw.work.L, lw.space.L = l, l
	go lw.run()
	return lw
}

// Reserve returns once a frame may be appended to Buf: at once while fewer
// than Bound bytes are pending, otherwise — the peer has stopped reading —
// after waiting, as a sender used to wait inside conn.Write. The wait
// releases the lock (state guarded by it may have changed on return). A closed
// writer returns the error it was closed with.
func (w *Writer) Reserve() error {
	for w.err == nil && len(w.Buf) >= Bound {
		w.space.Wait()
	}
	return w.err
}

// Flush hands what was appended to the writer goroutine.
func (w *Writer) Flush() { w.work.Signal() }

// Close stops the writer goroutine, drops what is pending and fails every
// sender waiting in Reserve, and every later one, with err (not nil). The
// owner closes the connection itself, which also ends a Write in flight.
func (w *Writer) Close(err error) {
	if w.err != nil {
		return
	}
	w.err = err
	w.Buf, w.spare = nil, nil
	w.work.Signal()
	w.space.Broadcast()
}

func (w *Writer) run() {
	w.l.Lock()
	for w.err == nil {
		if len(w.Buf) == 0 {
			w.work.Wait()
			continue
		}
		out := w.Buf
		w.Buf, w.spare = w.spare, nil
		w.space.Broadcast()
		w.l.Unlock()
		_, err := w.w.Write(out)
		w.l.Lock()
		switch {
		case w.err != nil: // closed meanwhile: the owner already knows
		case err != nil:
			w.Close(err)
			w.l.Unlock()
			w.fail(err)
			return
		case cap(out) <= Retain:
			w.spare = out[:0]
		}
	}
	w.l.Unlock()
}

// Deadlined returns a writer that gives every Write to conn its own
// deadline, timeout from the moment it starts: behind a buffer the moment
// of the Write is not the caller's to know, and a deadline left over from
// an earlier one would fail it at once.
func Deadlined(conn net.Conn, timeout time.Duration) io.Writer {
	return deadlined{conn, timeout}
}

type deadlined struct {
	conn    net.Conn
	timeout time.Duration
}

func (d deadlined) Write(p []byte) (int, error) {
	if err := d.conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.conn.Write(p)
}
