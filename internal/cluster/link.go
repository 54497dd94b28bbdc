package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"identxx/internal/link"
	"identxx/internal/openflow"
	"identxx/internal/wire"
)

// Link is one replica's handle on a peer: forward a packet-in to it, push
// a config snapshot at it. Implementations must be safe for concurrent
// use — the Router calls ForwardEvent from every packet-in goroutine.
type Link interface {
	// ForwardEvent hands a non-owned packet-in to the peer and waits for
	// its ack. The ack means the owner accepted the event: its decision has
	// begun and may still be suspended on the owner's query plane. A non-nil
	// error means the event may not have been processed; the Router falls
	// back to a local decision.
	ForwardEvent(ev openflow.PacketIn) error
	// PushSnapshot delivers an epoch-fenced config snapshot. ErrStaleEpoch
	// means the peer already holds a config that supersedes s — not a
	// transport failure.
	PushSnapshot(s *Snapshot) error
	Close() error
}

// ErrStaleEpoch is returned by snapshot application and pushes when the
// receiver's applied (epoch, origin) already supersedes the snapshot's.
var ErrStaleEpoch = errors.New("cluster: snapshot epoch not newer than applied")

// errLinkClosed fails every forward and push on a link after its Close.
var errLinkClosed = errors.New("cluster: peer link closed")

// Loopback is the in-process Link: forwards become direct calls into the
// peer Router. It is what in-process replica sets (tests, benchmarks, one
// process hosting several replicas) use; semantics match the TCP link
// minus the wire.
type Loopback struct{ Peer *Router }

func (l Loopback) ForwardEvent(ev openflow.PacketIn) error {
	l.Peer.DeliverEvent(ev)
	return nil
}

func (l Loopback) PushSnapshot(s *Snapshot) error { return l.Peer.ApplySnapshot(s) }
func (l Loopback) Close() error                   { return nil }

// Inter-controller link tuning: the query plane's pipelined connection
// (link.Pipe) with the constants that plane settled on.
const (
	linkRequestTimeout = 2 * time.Second
	linkMaxBackoff     = 2 * time.Second
	// linkMaxInFlight bounds pipelined unacked requests per peer; beyond
	// it, forwards fail fast (and the Router decides locally) rather than
	// queueing unboundedly behind a slow owner.
	linkMaxInFlight = 256
)

// TCPLink is a Link over one link.Pipe. The peer processes each connection
// serially and acknowledges in order, so each ack completes the oldest
// request (event, snapshot) outstanding, with no request IDs on the wire. An
// ack later than its request's deadline fails that request only; a peer that
// stops acking altogether is torn down and redialed by the next forward.
type TCPLink struct {
	mu      sync.Mutex // the lock pipe runs under; the link keeps no state beside it
	pipe    *link.Pipe[struct{}, byte]
	timeout time.Duration // per request, ack included
}

// DialTCP returns a TCPLink for addr. The connection is established
// lazily on first use and re-established as needed; construction never
// blocks.
func DialTCP(addr string) *TCPLink { return dialTCP(addr, linkRequestTimeout) }

func dialTCP(addr string, timeout time.Duration) *TCPLink {
	l := &TCPLink{timeout: timeout}
	l.pipe = link.NewPipe(&l.mu, addr, timeout, linkMaxBackoff, linkMaxInFlight,
		link.Plane[struct{}, byte]{Frame: ackStatus})
	return l
}

func (l *TCPLink) ForwardEvent(ev openflow.PacketIn) error {
	status, err := l.request(wire.Frame{
		Type:    wire.FrameEvent,
		SrcIP:   ev.Tuple.SrcIP,
		DstIP:   ev.Tuple.DstIP,
		Payload: encodeEvent(ev),
	})
	if err != nil {
		return err
	}
	if status != ackOK {
		return fmt.Errorf("cluster: peer rejected event (status %d)", status)
	}
	return nil
}

func (l *TCPLink) PushSnapshot(s *Snapshot) error {
	status, err := l.request(wire.Frame{Type: wire.FrameSnapshot, Payload: encodeSnapshot(s)})
	if err != nil {
		return err
	}
	switch status {
	case ackOK:
		return nil
	case ackStale:
		return ErrStaleEpoch
	default:
		return fmt.Errorf("cluster: peer rejected snapshot (status %d)", status)
	}
}

// request sends one frame and waits for the status byte of its ack.
func (l *TCPLink) request(f wire.Frame) (byte, error) {
	return l.pipe.Call(struct{}{}, time.Now().Add(l.timeout), func(b []byte) ([]byte, error) {
		return wire.AppendFrame(b, f)
	})
}

// ackStatus is the pipe's view of one frame from the peer: an ack, or a
// protocol violation that kills the connection.
func ackStatus(f wire.Frame) (struct{}, byte, link.Verdict, error) {
	if f.Type != wire.FrameAck || len(f.Payload) < 1 {
		return struct{}{}, 0, link.Fatal, fmt.Errorf("cluster: unexpected frame %#02x", f.Type)
	}
	return struct{}{}, f.Payload[0], link.Reply, nil
}

func (l *TCPLink) Close() error {
	l.pipe.Close(errLinkClosed)
	return nil
}

// Serve accepts inter-controller connections on ln in the background and
// dispatches their frames into the Router, until Close. Each connection is
// processed serially — that is what makes FIFO acknowledgement correct — and
// independent connections in parallel; acks are written under the link's
// request timeout, so a peer that stops reading them is cut off.
func (r *Router) Serve(ln net.Listener) error {
	return r.lis.Serve(ln, func(conn net.Conn) {
		link.ServeFrames(conn, linkRequestTimeout, 0, r.serveFrame)
	})
}

// Close stops serving: the listeners and every served connection are closed,
// and the frames being handled are waited for. Links to peers are unaffected.
func (r *Router) Close() { r.lis.Close() }

// serveFrame handles one request of a served connection and appends its ack.
func (r *Router) serveFrame(c *link.Conn, f wire.Frame) error {
	status := ackError
	switch f.Type {
	case wire.FrameEvent:
		if ev, err := decodeEvent(f.Payload); err == nil {
			r.DeliverEvent(ev)
			status = ackOK
		}
	case wire.FrameSnapshot:
		if s, err := decodeSnapshot(f.Payload); err == nil {
			switch r.ApplySnapshot(s) {
			case nil:
				status = ackOK
			case ErrStaleEpoch:
				status = ackStale
			}
		}
	}
	return c.Reply(func(b []byte) ([]byte, error) {
		return wire.AppendFrame(b, wire.Frame{Type: wire.FrameAck, Payload: []byte{status}})
	})
}
