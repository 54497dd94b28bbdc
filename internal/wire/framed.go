package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
)

// Framed message kinds. The kind byte discriminates the three message
// shapes of the protocol — request, response, and the revocation plane's
// unsolicited update — plus the subscription control frame that opts a
// connection into updates.
//
// Back-compat: peers predating the revocation plane ("untagged" peers in
// the sense that they tag only the original two kinds) interoperate
// unchanged — their Q/R frames decode exactly as before, and a daemon
// never pushes FrameUpdate at a connection that has not sent
// FrameSubscribe, so a legacy reader's FIFO correlation is never broken
// by a frame kind it does not know.
const (
	FrameQuery    byte = 'Q'
	FrameResponse byte = 'R'
	// FrameUpdate is an unsolicited daemon→controller endpoint-state
	// update (see Update). It is only ever sent on connections that
	// subscribed.
	FrameUpdate byte = 'U'
	// FrameSubscribe is a client→daemon control frame with an empty
	// payload: "push me updates on this connection". The daemon
	// acknowledges with a hello update carrying its current serial.
	FrameSubscribe byte = 'S'
	// FrameEvent is a controller→controller forwarded packet-in: the
	// cluster router's hand-off of a non-owned flow's event to the replica
	// the ring assigns it to. The payload is internal/cluster's binary
	// event encoding, which leads with the 8-byte flight-recorder trace ID
	// (0: untraced) the owner's decision stitches to; Src/DstIP mirror the
	// flow for symmetry with Q/R.
	FrameEvent byte = 'E'
	// FrameAck is the controller→controller reply to FrameEvent.
	// Inter-controller links are pipelined FIFO streams exactly like the
	// query plane, so the request kind needs a response kind to correlate
	// against; the one-byte payload is a status code (see
	// internal/cluster).
	FrameAck byte = 'A'
)

// frameHeaderLen is: 1 type byte, 4+4 IP addresses, 4 payload length.
const frameHeaderLen = 13

// Frame is one length-delimited ident++ message on a stream transport.
// Real TCP sockets cannot spoof the flow's destination IP the way §3.2
// assumes, so the envelope carries the two flow addresses explicitly; the
// payload is the unchanged §3.2 text format.
type Frame struct {
	Type    byte
	SrcIP   netaddr.IP
	DstIP   netaddr.IP
	Payload []byte
}

// AppendFrame appends f, framed, to b. On error b is returned unchanged.
func AppendFrame(b []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxMessageSize {
		return b, fmt.Errorf("wire: frame payload %d exceeds limit", len(f.Payload))
	}
	b = slices.Grow(b, frameHeaderLen+len(f.Payload))
	return finishFrame(append(appendHeader(b, f.Type, f.SrcIP, f.DstIP), f.Payload...), len(b))
}

// appendHeader appends a frame header whose payload length finishFrame
// fills in once the payload has been appended behind it.
func appendHeader(b []byte, typ byte, src, dst netaddr.IP) []byte {
	b = append(b, typ)
	b = binary.BigEndian.AppendUint32(b, uint32(src))
	b = binary.BigEndian.AppendUint32(b, uint32(dst))
	return append(b, 0, 0, 0, 0)
}

// finishFrame completes the frame that starts at b[start], or removes it
// when its payload is larger than a peer would read.
func finishFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - frameHeaderLen
	if n > MaxMessageSize {
		return b[:start], fmt.Errorf("wire: frame payload %d exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start+9:], uint32(n))
	return b, nil
}

// AppendQuery appends q as one frame to b, the payload rendered in place.
func AppendQuery(b []byte, q Query) ([]byte, error) {
	return finishFrame(appendQuery(appendHeader(b, FrameQuery, q.Flow.SrcIP, q.Flow.DstIP), q), len(b))
}

// AppendResponse appends resp as one frame to b, the payload rendered in
// place.
func AppendResponse(b []byte, resp *Response) ([]byte, error) {
	return finishFrame(appendResponse(appendHeader(b, FrameResponse, resp.Flow.SrcIP, resp.Flow.DstIP), resp), len(b))
}

// AppendResponseBody appends one response frame for f whose sections body
// rendered before (AppendSections): the frame AppendResponse appends for a
// response of f with those sections and scope.
func AppendResponseBody(b []byte, f flow.Five, body []byte, scope Scope) ([]byte, error) {
	b2 := append(appendTupleLine(appendHeader(b, FrameResponse, f.SrcIP, f.DstIP), f), body...)
	return finishFrame(appendScopeLine(b2, scope), len(b))
}

// WriteFrame writes one frame to w with one Write.
func WriteFrame(w io.Writer, f Frame) error {
	b, err := AppendFrame(nil, f)
	return writeOnce(w, b, err)
}

// writeOnce writes an encoder's result, or returns its error.
func writeOnce(w io.Writer, b []byte, err error) error {
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// FrameBuffered reports whether r holds a whole frame, so that the next
// ReadFrame cannot block. A frame larger than r's buffer is never whole.
func FrameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < frameHeaderLen {
		return false
	}
	hdr, _ := r.Peek(frameHeaderLen)
	return uint64(r.Buffered()) >= frameHeaderLen+uint64(binary.BigEndian.Uint32(hdr[9:13]))
}

// ReadFrame reads one frame from r, rejecting oversized payloads before
// allocating for them.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameInto(r, nil)
	return f, err
}

// ReadFrameInto is ReadFrame with the payload read into buf, grown when it
// is too small, instead of into an allocation of its own: the payload
// aliases the returned buffer and is valid until the buffer's next use. A
// loop that decodes each frame before it reads the next (the Decode
// functions copy what they keep) passes the buffer back in and allocates
// nothing per frame (the header too is read into it: an array of its own
// would escape through r).
func ReadFrameInto(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < frameHeaderLen {
		buf = make([]byte, frameHeaderLen)
	}
	hdr := buf[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, buf, err
	}
	f := Frame{
		Type:  hdr[0],
		SrcIP: netaddr.IP(binary.BigEndian.Uint32(hdr[1:5])),
		DstIP: netaddr.IP(binary.BigEndian.Uint32(hdr[5:9])),
	}
	switch f.Type {
	case FrameQuery, FrameResponse, FrameUpdate, FrameSubscribe,
		FrameEvent, FrameAck:
	default:
		return Frame{}, buf, fmt.Errorf("wire: unknown frame type %#02x", f.Type)
	}
	n := binary.BigEndian.Uint32(hdr[9:13])
	if n > MaxMessageSize {
		return Frame{}, buf, fmt.Errorf("wire: frame payload %d exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	f.Payload = buf[:n]
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return Frame{}, buf, err
	}
	return f, buf, nil
}

// WriteQuery frames and writes a query.
func WriteQuery(w io.Writer, q Query) error {
	b, err := AppendQuery(nil, q)
	return writeOnce(w, b, err)
}

// ReadQuery reads and decodes a framed query.
func ReadQuery(r io.Reader) (Query, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return Query{}, err
	}
	if f.Type != FrameQuery {
		return Query{}, fmt.Errorf("wire: expected query frame, got %#02x", f.Type)
	}
	return DecodeQuery(f.Payload, f.SrcIP, f.DstIP)
}

// WriteResponse frames and writes a response.
func WriteResponse(w io.Writer, resp *Response) error {
	b, err := AppendResponse(nil, resp)
	return writeOnce(w, b, err)
}

// AppendUpdate appends an unsolicited endpoint-state update as one frame to
// b, the payload rendered in place.
func AppendUpdate(b []byte, u Update) ([]byte, error) {
	return finishFrame(appendUpdate(appendHeader(b, FrameUpdate, u.Flow.SrcIP, u.Flow.DstIP), u), len(b))
}

// WriteUpdate frames and writes an update.
func WriteUpdate(w io.Writer, u Update) error {
	b, err := AppendUpdate(nil, u)
	return writeOnce(w, b, err)
}

// WriteSubscribe writes the empty subscription control frame.
func WriteSubscribe(w io.Writer) error {
	return WriteFrame(w, Frame{Type: FrameSubscribe})
}

// DecodeUpdateFrame decodes an already-read FrameUpdate.
func DecodeUpdateFrame(f Frame) (Update, error) {
	if f.Type != FrameUpdate {
		return Update{}, fmt.Errorf("wire: expected update frame, got %#02x", f.Type)
	}
	return DecodeUpdate(f.Payload, f.SrcIP, f.DstIP)
}

// ReadResponse reads and decodes a framed response.
func ReadResponse(r io.Reader) (*Response, error) {
	f, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	if f.Type != FrameResponse {
		return nil, fmt.Errorf("wire: expected response frame, got %#02x", f.Type)
	}
	return DecodeResponse(f.Payload, f.SrcIP, f.DstIP)
}
