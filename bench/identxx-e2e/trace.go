package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/daemon"
	"identxx/internal/flow"
	"identxx/internal/wire"
)

// The traced run records spans from the benchmark's own side of each layer
// boundary: the generator serves the daemons through its own loop over the
// public wire and daemon calls, so it can stamp when a query frame was read,
// decoded, answered and written, and ties those stamps to the decision whose
// packet-in caused them. What identctl does between those stamps is seen only
// as ctl.ingress and ctl.egress; spans inside identctl are a later change.

// epStamps is one daemon's part of a decision, ns since generator.base.
type epStamps struct {
	frameRead, decoded, handled, written int64
}

// decisionSpan is one sampled decision.
type decisionSpan struct {
	flow                 int32
	writeStart, writeEnd int64
	ep                   [2]epStamps // source daemon, destination daemon
	msgRead, done        int64
	verdict              verdict
}

// span is the unit written to the span file.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Trace  int    `json:"trace"`  // shared by the spans of one decision or event
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	g        *generator
	sampling atomic.Bool

	mu       sync.Mutex
	active   map[flow.Five]*decisionSpan
	finished []*decisionSpan

	wg sync.WaitGroup
}

func newTracer() *tracer {
	return &tracer{active: make(map[flow.Five]*decisionSpan)}
}

func (t *tracer) begin(idx int32) *decisionSpan {
	if !t.sampling.Load() {
		return nil
	}
	sp := &decisionSpan{flow: idx}
	t.mu.Lock()
	t.active[t.g.u.flows[idx].five] = sp
	t.mu.Unlock()
	return sp
}

func (t *tracer) abandon(sp *decisionSpan) {
	t.mu.Lock()
	delete(t.active, t.g.u.flows[sp.flow].five)
	t.mu.Unlock()
}

func (t *tracer) finish(sp *decisionSpan, msgRead, done int64, v verdict) {
	sp.msgRead, sp.done, sp.verdict = msgRead, done, v
	t.mu.Lock()
	delete(t.active, t.g.u.flows[sp.flow].five)
	t.finished = append(t.finished, sp)
	t.mu.Unlock()
}

// stamp records one daemon's part of a sampled decision. Unsampled flows
// cost one map probe.
func (t *tracer) stamp(host int, f flow.Five, st epStamps) {
	t.mu.Lock()
	if sp := t.active[f]; sp != nil {
		end := 1
		if hostIP(host) == f.SrcIP {
			end = 0
		}
		sp.ep[end] = st
	}
	t.mu.Unlock()
}

// take returns the decisions finished so far and forgets them.
func (t *tracer) take() []*decisionSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.finished
	t.finished = nil
	return out
}

// serve is daemon.Server's loop rewritten over the same public calls, with a
// stamp at each boundary.
func (t *tracer) serve(d *daemon.Daemon) (*daemonServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	host := -1
	for h := 0; h < nHosts; h++ {
		if hostIP(h) == d.Host().IP {
			host = h
		}
	}
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	closed := false
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				mu.Unlock()
				conn.Close()
				return
			}
			conns[conn] = struct{}{}
			mu.Unlock()
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.serveConn(host, d, conn)
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
			}()
		}
	}()
	return &daemonServer{addr: l.Addr().String(), closer: func() error {
		mu.Lock()
		closed = true
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		return l.Close()
	}}, nil
}

func (t *tracer) serveConn(host int, d *daemon.Daemon, conn net.Conn) {
	defer conn.Close()
	var writeMu sync.Mutex
	var cancel func()
	defer func() {
		if cancel != nil {
			cancel()
		}
	}()
	for {
		f, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		var st epStamps
		st.frameRead = t.g.now()
		switch f.Type {
		case wire.FrameSubscribe:
			if cancel != nil {
				continue
			}
			cancel = d.Subscribe(func(u wire.Update) {
				writeMu.Lock()
				defer writeMu.Unlock()
				conn.SetWriteDeadline(time.Now().Add(daemon.DefaultReadTimeout))
				if err := wire.WriteUpdate(conn, u); err != nil {
					conn.Close()
				}
			})
		case wire.FrameQuery:
			q, err := wire.DecodeQuery(f.Payload, f.SrcIP, f.DstIP)
			if err != nil {
				return
			}
			st.decoded = t.g.now()
			resp := d.HandleQuery(q)
			st.handled = t.g.now()
			writeMu.Lock()
			conn.SetWriteDeadline(time.Now().Add(daemon.DefaultReadTimeout))
			err = wire.WriteResponse(conn, resp)
			writeMu.Unlock()
			if err != nil {
				return
			}
			st.written = t.g.now()
			if t.sampling.Load() {
				t.stamp(host, q.Flow, st)
			}
		default:
			return
		}
	}
}

// wait blocks until every serving goroutine has ended; the listeners and
// connections are closed by the rig first.
func (t *tracer) wait() { t.wg.Wait() }

// spans turns the sampled decisions and the kill events into the span tree
// described in bench/README.md.
func buildSpans(decisions []*decisionSpan, events []*revEvent, queried bool) []span {
	var out []span
	id := 0
	add := func(parent, trace int, name string, start, end int64) int {
		id++
		out = append(out, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start, End: end})
		return id
	}
	for i, d := range decisions {
		tr := i + 1
		root := add(0, tr, "decision", d.writeStart, d.done)
		add(root, tr, "switch.write_packet_in", d.writeStart, d.writeEnd)
		if queried && d.ep[0].frameRead > 0 && d.ep[1].frameRead > 0 {
			add(root, tr, "ctl.ingress", d.writeEnd, min(d.ep[0].frameRead, d.ep[1].frameRead))
			for e, name := range [2]string{"daemon.query.src", "daemon.query.dst"} {
				s := d.ep[e]
				q := add(root, tr, name, s.frameRead, s.written)
				add(q, tr, "wire.decode_query", s.frameRead, s.decoded)
				add(q, tr, "daemon.handle_query", s.decoded, s.handled)
				add(q, tr, "wire.write_response", s.handled, s.written)
			}
			add(root, tr, "ctl.egress", max(d.ep[0].written, d.ep[1].written), d.msgRead)
		} else {
			add(root, tr, "ctl.decide", d.writeEnd, d.msgRead)
		}
		add(root, tr, "switch.read_flow_mod", d.msgRead, d.done)
	}
	for i, ev := range events {
		tr := len(decisions) + i + 1
		root := add(0, tr, "revocation", ev.t0, max(ev.tLast, ev.tPub))
		add(root, tr, "daemon.publish", ev.t0, ev.tPub)
		add(root, tr, "ctl.teardown", ev.tPub, max(ev.tLast, ev.tPub))
	}
	return out
}

func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".trace.json")
	b, err := json.Marshal(struct {
		Unit  string `json:"unit"`
		Spans []span `json:"spans"`
	}{"ns since the generator started", spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
