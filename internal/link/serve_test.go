package link

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// numbered is a 'Q' frame numbered seq whose payload is n bytes of seq, so a
// torn or misplaced frame cannot pass for a whole one.
func numbered(seq, n int) wire.Frame {
	return wire.Frame{Type: wire.FrameQuery, SrcIP: netaddr.IP(seq), Payload: bytes.Repeat([]byte{byte(seq)}, n)}
}

// answerTo is the test handler: an 'R' frame echoing the request.
func answerTo(c *Conn, f wire.Frame) error {
	if f.Type != wire.FrameQuery {
		return errors.New("not a request")
	}
	return c.Reply(func(b []byte) ([]byte, error) {
		return wire.AppendFrame(b, wire.Frame{Type: wire.FrameResponse, SrcIP: f.SrcIP, Payload: f.Payload})
	})
}

// checkFrame fails unless f is whole: kind typ, payload all its number's byte.
func checkFrame(t *testing.T, f wire.Frame, typ byte) {
	t.Helper()
	whole := f.Type == typ
	for _, b := range f.Payload {
		whole = whole && b == byte(f.SrcIP)
	}
	if !whole {
		t.Fatalf("frame %#02x number %d with payload %.16x…, want a whole %#02x", f.Type, f.SrcIP, f.Payload, typ)
	}
}

// serveTCP serves handle on a loopback listener for the length of the test
// and returns a connection to it.
func serveTCP(t *testing.T, timeout, idle time.Duration, handle func(*Conn, wire.Frame) error) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var lis Listener
	if err := lis.Serve(ln, func(conn net.Conn) { ServeFrames(conn, timeout, idle, handle) }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

// writeCounter counts the Writes that reach a connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// A pipelined burst that arrives in one read is answered with one Write, and
// serving it allocates nothing. (net.Pipe hands a whole Write to one Read, so
// the burst is whole in the server's buffer by construction.)
func TestServeAnswersABurstWithOneWrite(t *testing.T) {
	const burst = 32
	client, server := net.Pipe()
	counted := &writeCounter{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ServeFrames(counted, time.Second, 0, answerTo)
	}()

	var out, payload []byte
	for i := range burst {
		out, _ = wire.AppendFrame(out, numbered(i, 8))
	}
	br := bufio.NewReader(client)
	round := func() {
		if _, err := client.Write(out); err != nil {
			t.Fatal(err)
		}
		for i := range burst {
			var f wire.Frame
			var err error
			if f, payload, err = wire.ReadFrameInto(br, payload); err != nil || int(f.SrcIP) != i {
				t.Fatalf("reply %d: number %d, %v", i, f.SrcIP, err)
			}
			checkFrame(t, f, wire.FrameResponse)
		}
	}
	round()
	if got := counted.writes.Load(); got != 1 {
		t.Errorf("%d Writes for a burst of %d requests, want 1", got, burst)
	}
	// The client above reuses its buffers, so what is left is the served side.
	if perBurst := testing.AllocsPerRun(20, round); perBurst > 2 {
		t.Errorf("%.0f allocations per burst of %d requests, want none that grow with it", perBurst, burst)
	}
	client.Close()
	<-done
}

// A client that has sent two and a half requests gets two replies without
// sending the rest: the loop flushes before any read that could block, not
// merely when its read buffer is empty. (With the weaker rule the replies sit
// behind the half frame and the client, waiting for them before it goes on,
// deadlocks against the server.)
func TestServeAnswersWholeFramesBeforeBlockingOnAHalf(t *testing.T) {
	conn := serveTCP(t, time.Second, time.Second, answerTo)
	one, _ := wire.AppendFrame(nil, numbered(7, 40))
	half := len(one) / 2
	burst := append(append(append([]byte(nil), one...), one...), one[:half]...)
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("reply %d of two whole requests, with half a third sent: %v", i, err)
		}
		checkFrame(t, f, wire.FrameResponse)
	}
	if _, err := conn.Write(one[half:]); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(conn); err != nil {
		t.Fatalf("reply to the completed third request: %v", err)
	}
}

// Requests answered before a connection goes bad — garbage on the wire, or a
// frame the handler refuses — keep their replies.
func TestServeFlushesAnswersBeforeDroppingGarbage(t *testing.T) {
	refused, _ := wire.AppendFrame(nil, wire.Frame{Type: wire.FrameAck})
	for name, garbage := range map[string][]byte{"garbage": []byte("GET / HTTP/1.0\r\n\r\n"), "refused": refused} {
		t.Run(name, func(t *testing.T) {
			conn := serveTCP(t, time.Second, time.Second, answerTo)
			burst, _ := wire.AppendFrame(nil, numbered(1, 8))
			if _, err := conn.Write(append(burst, garbage...)); err != nil {
				t.Fatal(err)
			}
			if _, err := wire.ReadFrame(conn); err != nil {
				t.Fatalf("the request ahead of the %s went unanswered: %v", name, err)
			}
			if _, err := wire.ReadFrame(conn); err == nil {
				t.Fatal("server kept the connection")
			}
		})
	}
}

// Pushes from another goroutine and the loop's replies share the stream
// whole: every frame the client reads is one or the other, replies in request
// order, pushes in push order.
func TestServePushNeverInterleavesWithAReply(t *testing.T) {
	const requests, pushes, size = 400, 400, 700 // a few frames per 4 KB buffer
	subscribed := make(chan *Conn, 1)
	conn := serveTCP(t, time.Second, time.Second, func(c *Conn, f wire.Frame) error {
		if f.SrcIP == 0 {
			subscribed <- c
		}
		return answerTo(c, f)
	})
	go func() {
		c := <-subscribed
		for i := range pushes {
			u := numbered(i, size)
			u.Type = wire.FrameUpdate
			if c.Push(func(b []byte) ([]byte, error) { return wire.AppendFrame(b, u) }) != nil {
				return
			}
		}
	}()
	go func() {
		var out []byte
		for i := range requests {
			out, _ = wire.AppendFrame(out[:0], numbered(i, size))
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()
	br := bufio.NewReader(conn)
	next := map[byte]int{}
	for next[wire.FrameResponse] < requests || next[wire.FrameUpdate] < pushes {
		f, err := wire.ReadFrame(br)
		if err != nil {
			t.Fatalf("after %d replies and %d pushes: %v", next[wire.FrameResponse], next[wire.FrameUpdate], err)
		}
		checkFrame(t, f, f.Type)
		if int(f.SrcIP) != next[f.Type] || len(f.Payload) != size {
			t.Fatalf("%#02x frame number %d (%d bytes), want number %d", f.Type, f.SrcIP, len(f.Payload), next[f.Type])
		}
		next[f.Type]++
	}
}

// A peer that stops reading is cut off when a Write has made no progress for
// the timeout: a reply's flush ends the loop instead of holding its goroutine,
// and a push closes the connection, which ends the loop's read.
func TestServeCutsOffAPeerThatStopsReading(t *testing.T) {
	const timeout = 50 * time.Millisecond
	for _, path := range []string{"reply", "push"} {
		t.Run(path, func(t *testing.T) {
			client, server := net.Pipe() // unbuffered: a Write waits for the reader
			defer client.Close()
			defer server.Close()
			done := make(chan struct{})
			pushed := make(chan error, 1)
			go func() {
				defer close(done)
				ServeFrames(server, timeout, 0, func(c *Conn, f wire.Frame) error {
					if path == "reply" {
						return answerTo(c, f)
					}
					u := numbered(2, 8) // not f: its payload is the loop's buffer
					go func() {
						pushed <- c.Push(func(b []byte) ([]byte, error) { return wire.AppendFrame(b, u) })
					}()
					return nil
				})
			}()
			out, _ := wire.AppendFrame(nil, numbered(1, 8))
			start := time.Now()
			if _, err := client.Write(out); err != nil {
				t.Fatal(err)
			}
			select {
			case <-done:
				if d := time.Since(start); d < timeout {
					t.Errorf("cut off after %v, before the %v write deadline", d, timeout)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the loop still serves a peer that never reads")
			}
			if path == "push" {
				if err := <-pushed; !isTimeout(err) {
					t.Errorf("push to a peer that never reads: %v, want a timeout", err)
				}
				if _, err := server.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
					t.Errorf("write after a failed push: %v, want the connection closed", err)
				}
			}
		})
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Reads that may block are bounded by idle until the handler lifts the bound.
func TestServeIdleBoundUntilLifted(t *testing.T) {
	const idle = 50 * time.Millisecond
	silent := serveTCP(t, time.Second, idle, answerTo)
	if _, err := wire.ReadFrame(silent); !errors.Is(err, io.EOF) {
		t.Fatalf("a silent connection: %v, want it closed at the idle bound", err)
	}
	held := serveTCP(t, time.Second, idle, func(c *Conn, f wire.Frame) error {
		c.SetIdle(0)
		return answerTo(c, f)
	})
	for i := range 2 {
		time.Sleep(time.Duration(i) * 3 * idle)
		if err := wire.WriteFrame(held, numbered(1, 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(held); err != nil {
			t.Fatalf("a connection whose idle bound was lifted: %v", err)
		}
	}
}

// Close stops accepting, closes the live connections and waits: when it
// returns no serving goroutine is left, every client has been hung up on, and
// the listener's port refuses. A Listener once closed serves nothing again.
func TestListenerCloseLeavesNothingBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var lis Listener
	var returned atomic.Int64
	if err := lis.Serve(ln, func(conn net.Conn) {
		defer returned.Add(1)
		ServeFrames(conn, time.Second, 0, answerTo)
	}); err != nil {
		t.Fatal(err)
	}
	var clients []net.Conn
	for range 8 {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		// One round trip: the connection is accepted and back in its read.
		if err := wire.WriteFrame(conn, numbered(1, 8)); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, conn)
	}

	lis.Close()
	if got := returned.Load(); got != 8 {
		t.Errorf("Close returned with %d of 8 connections served to the end", got)
	}
	for i, conn := range clients {
		if _, err := wire.ReadFrame(conn); err == nil || isTimeout(err) {
			t.Errorf("client %d after Close: %v, want the connection gone", i, err)
		}
	}
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Error("the port still accepts after Close")
	}
	waitFor(t, "the goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })

	again, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := lis.Serve(again, func(net.Conn) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Serve after Close: %v, want ErrClosed", err)
	}
	if _, err := again.Accept(); err == nil {
		t.Error("Serve after Close left its listener open")
	}
}
