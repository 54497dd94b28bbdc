package daemon

import (
	"fmt"
	"net"
	"time"

	"identxx/internal/flow"
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
// change (the revocation plane). Clients that never subscribe never see an
// update frame, which is the whole back-compat story — a legacy FIFO reader
// is never surprised. The connections' lifecycle and the frame loop under
// both are internal/link's.
type Server struct {
	Daemon *Daemon

	// ReadTimeout bounds each query read; zero means DefaultReadTimeout.
	// It also bounds each write, an update push's included.
	ReadTimeout time.Duration

	lis link.Listener
}

// DefaultReadTimeout is applied when Server.ReadTimeout is zero.
const DefaultReadTimeout = 5 * time.Second

// NewServer wraps a daemon in a TCP server.
func NewServer(d *Daemon) *Server { return &Server{Daemon: d} }

// Listen starts listening on addr (e.g. "127.0.0.1:0") and serving in a
// background goroutine. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	return s.lis.Listen(addr, s.serveConn)
}

func (s *Server) serveConn(conn net.Conn) {
	timeout := s.ReadTimeout
	if timeout == 0 {
		timeout = DefaultReadTimeout
	}
	sc := &serverConn{d: s.Daemon}
	sc.appendReply = sc.reply
	defer func() {
		if sc.cancel != nil {
			sc.cancel()
		}
	}()
	// An unsubscribed connection is a transient client: each read is bounded
	// so a slow or hostile peer cannot pin the goroutine.
	link.ServeFrames(conn, timeout, timeout, sc.handle)
}

// serverConn is what one served connection keeps between frames. The query
// being answered waits here for the reply that appends its answer, so that a
// reply needs no closure of its own: answering a known process's flow takes
// no allocation on this side of the wire.
type serverConn struct {
	d      *Daemon
	cancel func() // non-nil once subscribed

	flow        flow.Five                    // the query being answered
	ans         *answer                      // its answer
	scope       wire.Scope                   // the scope it is given at
	forged      *wire.Response               // the forge hook's response, when one is installed
	appendReply func([]byte) ([]byte, error) // reply, bound once
}

func (sc *serverConn) handle(c *link.Conn, f wire.Frame) error {
	switch f.Type {
	case wire.FrameSubscribe:
		if sc.cancel != nil {
			return nil // idempotent: already subscribed
		}
		// A subscribed connection is a controller's long-lived push
		// channel — it is legitimately silent between queries, so idle
		// reads must not kill it; failed pushes tear it down instead.
		c.SetIdle(0)
		// Subscribe delivers the hello (and every later update) under
		// the daemon's publication lock, so the hello is buffered
		// before any subsequent update and serials arrive in order.
		// Updates are appended from the publishing goroutine, and a
		// burst of them leaves in one flush.
		sc.cancel = sc.d.Subscribe(func(u wire.Update) {
			c.Push(func(b []byte) ([]byte, error) { return wire.AppendUpdate(b, u) })
		})
		return nil
	case wire.FrameQuery:
		if err := sc.answer(f); err != nil {
			return err
		}
		return c.Reply(sc.appendReply)
	default:
		return fmt.Errorf("daemon: client sent frame %#02x", f.Type)
	}
}

// answer answers a query frame, whose key hints a daemon does not read.
func (sc *serverConn) answer(f wire.Frame) error {
	q, err := wire.DecodeQueryHead(f.Payload, f.SrcIP, f.DstIP)
	if err != nil {
		return err
	}
	sc.flow = q.Flow
	sc.ans, sc.scope, sc.forged = sc.d.respond(q)
	return nil
}

// reply appends the response frame to the query answer took last.
func (sc *serverConn) reply(b []byte) ([]byte, error) {
	if sc.forged != nil {
		return wire.AppendResponse(b, sc.forged)
	}
	return wire.AppendResponseBody(b, sc.flow, sc.ans.body, sc.scope)
}

// Close stops accepting, closes active connections, and waits for the
// serving goroutines to drain.
func (s *Server) Close() error {
	s.lis.Close()
	return nil
}
