package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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
	var cancel func() // non-nil once subscribed
	defer func() {
		if cancel != nil {
			cancel()
		}
	}()
	// An unsubscribed connection is a transient client: each read is bounded
	// so a slow or hostile peer cannot pin the goroutine.
	link.ServeFrames(conn, timeout, timeout, func(c *link.Conn, f wire.Frame) error {
		switch f.Type {
		case wire.FrameSubscribe:
			if cancel != nil {
				return nil // idempotent: already subscribed
			}
			// A subscribed connection is a controller's long-lived push
			// channel — it is legitimately silent between queries, so idle
			// reads must not kill it; failed pushes tear it down instead.
			c.SetIdle(0)
			// Subscribe delivers the hello (and every later update) under
			// the daemon's publication lock, so the hello is on the wire
			// before any subsequent update and serials arrive in order.
			// Updates are pushed from the publishing goroutine.
			cancel = s.Daemon.Subscribe(func(u wire.Update) {
				c.Push(func(b []byte) ([]byte, error) { return wire.AppendUpdate(b, u) })
			})
			return nil
		case wire.FrameQuery:
			q, err := wire.DecodeQuery(f.Payload, f.SrcIP, f.DstIP)
			if err != nil {
				return err
			}
			resp := s.Daemon.HandleQuery(q)
			return c.Reply(func(b []byte) ([]byte, error) { return wire.AppendResponse(b, resp) })
		default:
			return fmt.Errorf("daemon: client sent frame %#02x", f.Type)
		}
	})
}

// Close stops accepting, closes active connections, and waits for the
// serving goroutines to drain.
func (s *Server) Close() error {
	s.lis.Close()
	return nil
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
