package daemon

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"identxx/internal/link"
	"identxx/internal/wire"
)

// Port is the TCP port the ident++ daemon listens on (§2): "end-hosts run
// an ident++ daemon as a server that receives queries on TCP port 783".
const Port = 783

// Server serves framed ident++ queries over TCP. One connection may carry
// any number of query/response exchanges; each read is bounded by
// ReadTimeout and the frame codec's size limit, so a slow or hostile client
// cannot pin resources indefinitely.
//
// A connection that sends a FrameSubscribe control frame additionally
// receives unsolicited FrameUpdate pushes whenever the daemon's assertions
// change (the revocation plane). Responses and pushed updates share the
// connection under a per-connection write lock; clients that never
// subscribe never see an update frame, which is the whole back-compat
// story — a legacy FIFO reader is never surprised.
type Server struct {
	Daemon *Daemon

	// ReadTimeout bounds each query read; zero means DefaultReadTimeout.
	// It also bounds each update push's write.
	ReadTimeout time.Duration

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*servedConn
	closed   bool
	wg       sync.WaitGroup
}

// servedConn is the per-connection state: the buffered writer and the lock
// serializing responses against pushed updates on it, and the
// subscription's cancel.
type servedConn struct {
	conn    net.Conn
	writeMu sync.Mutex
	bw      *bufio.Writer // guarded by writeMu
	cancel  func()        // non-nil once subscribed
}

// connBuf is the size of each connection's read and write buffer: a burst
// of some forty pipelined queries, or a dozen responses, per syscall. A
// larger frame passes through unbuffered. Two are held per connection, so
// they are no larger than that (docs/architecture.md, "Wire I/O").
const connBuf = 4 << 10

// flush writes the buffered responses out.
func (sc *servedConn) flush() error {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	return sc.bw.Flush()
}

// DefaultReadTimeout is applied when Server.ReadTimeout is zero.
const DefaultReadTimeout = 5 * time.Second

// NewServer wraps a daemon in a TCP server.
func NewServer(d *Daemon) *Server {
	return &Server{Daemon: d, conns: make(map[net.Conn]*servedConn)}
}

// Listen starts listening on addr (e.g. "127.0.0.1:0") and serving in a
// background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return nil, errors.New("daemon: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(l)
	}()
	return l.Addr(), nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		sc := &servedConn{conn: conn}
		s.conns[conn] = sc
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				if sc.cancel != nil {
					sc.cancel()
				}
				conn.Close()
			}()
			s.serveConn(sc)
		}()
	}
}

func (s *Server) serveConn(sc *servedConn) {
	conn := sc.conn
	timeout := s.ReadTimeout
	if timeout == 0 {
		timeout = DefaultReadTimeout
	}
	br := bufio.NewReaderSize(conn, connBuf)
	sc.bw = bufio.NewWriterSize(link.Deadlined(conn, timeout), connBuf)
	// Whatever ends the loop, the queries answered before it keep their
	// responses; on a dead connection this fails and nobody minds.
	defer sc.flush()
	var payload []byte // every frame's, in turn: decoding copies what it keeps
	for {
		// Responses collect in bw while whole queries are still buffered in
		// br, so a pipelined burst is answered with one write. Before a read
		// that could block — anything short of a whole frame buffered, not
		// merely an empty buffer — they are flushed: the client may be
		// waiting for them before it sends the rest.
		if !wire.FrameBuffered(br) {
			if sc.flush() != nil {
				return
			}
			// An unsubscribed connection is a transient client: bound each
			// read so a slow or hostile peer cannot pin the goroutine. A
			// subscribed connection is a controller's long-lived push
			// channel — it is legitimately silent between queries, so idle
			// reads must not kill it; failed pushes tear it down instead.
			deadline := time.Now().Add(timeout)
			if sc.cancel != nil {
				deadline = time.Time{}
			}
			if err := conn.SetReadDeadline(deadline); err != nil {
				return
			}
		}
		var f wire.Frame
		var err error
		f, payload, err = wire.ReadFrameInto(br, payload)
		if err != nil {
			return // EOF, timeout, or garbage: drop the connection
		}
		switch f.Type {
		case wire.FrameSubscribe:
			if sc.cancel != nil {
				continue // idempotent: already subscribed
			}
			// Subscribe delivers the hello (and every later update) under
			// the daemon's publication lock, so the hello is on the wire
			// before any subsequent update and serials arrive in order.
			// Updates are pushed from the publishing goroutine: written
			// behind whatever responses are buffered and flushed at once,
			// under the write lock that keeps them whole against this
			// goroutine's responses. A push that cannot complete within the
			// timeout abandons the connection (closing it), making the
			// client reconnect and resync rather than silently miss updates.
			sc.cancel = s.Daemon.Subscribe(func(u wire.Update) {
				sc.writeMu.Lock()
				defer sc.writeMu.Unlock()
				err := wire.WriteUpdate(sc.bw, u)
				if err == nil {
					err = sc.bw.Flush()
				}
				if err != nil {
					conn.Close()
				}
			})
		case wire.FrameQuery:
			q, err := wire.DecodeQuery(f.Payload, f.SrcIP, f.DstIP)
			if err != nil {
				return
			}
			resp := s.Daemon.HandleQuery(q)
			sc.writeMu.Lock()
			// Rendered in place in the writer's free space when it fits.
			b, err := wire.AppendResponse(sc.bw.AvailableBuffer(), resp)
			if err == nil {
				_, err = sc.bw.Write(b)
			}
			sc.writeMu.Unlock()
			if err != nil {
				return
			}
		default:
			return // a client must not send response/update frames
		}
	}
}

// Close stops accepting, closes active connections, and waits for the
// serving goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

// Query performs one ident++ exchange with the daemon at addr. It is the
// controller-side client for real-socket deployments.
func Query(ctx context.Context, addr string, q wire.Query) (*wire.Response, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial %s: %w", addr, err)
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		if err := conn.SetDeadline(deadline); err != nil {
			return nil, err
		}
	}
	if err := wire.WriteQuery(conn, q); err != nil {
		return nil, fmt.Errorf("daemon: write query: %w", err)
	}
	resp, err := wire.ReadResponse(conn)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("daemon: connection closed before response")
		}
		return nil, fmt.Errorf("daemon: read response: %w", err)
	}
	if resp.Flow != q.Flow {
		return nil, fmt.Errorf("daemon: response flow %v does not match query %v", resp.Flow, q.Flow)
	}
	return resp, nil
}
