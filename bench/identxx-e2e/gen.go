package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/openflow"
	"identxx/internal/packet"
)

// How the generator treats an op that gets no verdict. A buffer released
// with no flow-mod (a voided decision) is re-sent after voidResend; an op
// with no answer at all after silentResend, and then after twice as long
// each time. Latency always counts from the first write. An op fails only
// when it has no verdict opDeadline after its first write: the deadline
// says identctl lost the flow, not that it was slow. It has to outlast the
// box's worst spells, in which identctl answers nothing for 200 ms and more
// while the generator's own ticker keeps time; a deadline of 250 ms and a
// limit of three re-sends failed one revoke_churn run in about thirty for
// that reason alone (bench/README.md).
const (
	voidResend   = 2 * time.Millisecond
	silentResend = 50 * time.Millisecond
	opDeadline   = 10 * time.Second
	// standstill is how long the generator's own millisecond ticker may miss
	// its beat before the time counts as the box's and not the system's: the
	// host took the core away (gaps of 30 to 70 ms turn up every few minutes on
	// the reference box, longer ones about once an hour). Ops in flight
	// across such a gap are not charged for it.
	standstill = 50 * time.Millisecond
	// churnEvery is how many delivered verdicts separate two kill events on
	// revoke_churn, and reviveAfter how many events later a process returns.
	churnEvery  = 256
	reviveAfter = 4
	// sampleEvery is the traced run's sampling: one decision in 64.
	sampleEvery = 64
)

type verdict uint8

const (
	vNone verdict = iota
	vPass
	vDeny
)

// flowState is the generator's view of one flow: the op in flight for it, if
// any, and what the switch's table holds for it. It is guarded by the mutex
// of the flow's channel.
type flowState struct {
	first, last, releasedAt int64 // ns since generator.base
	rev                     *revEvent
	span                    *decisionSpan
	epoch                   uint32 // owner's epoch at first write
	pos                     int32  // index in channel.inflight, -1 when idle
	resends                 uint8
	table                   verdict
	released                bool // buffer released, no verdict yet
}

// revEvent is one kill on revoke_churn: the flows of the dead process that
// were installed, and when the delete for the last of them was read.
type revEvent struct {
	t0, tPub, tLast int64
	flows           int
	remaining       int
}

// chanStats is what one channel counted during one phase.
type chanStats struct {
	lat      []int64 // ns, one per verdict
	verdicts int64
	written  int64 // packet-in messages written, re-sends included
	resends  int64
	failed   int64
	wrong    int64
	flowMods int64 // every flow-mod read: installs, reverse entries, deletes
	deletes  int64
	bytesOut int64 // switch → controller
	bytesIn  int64 // controller → switch
}

func (s *chanStats) add(o *chanStats) {
	s.lat = append(s.lat, o.lat...)
	s.verdicts += o.verdicts
	s.written += o.written
	s.resends += o.resends
	s.failed += o.failed
	s.wrong += o.wrong
	s.flowMods += o.flowMods
	s.deletes += o.deletes
	s.bytesOut += o.bytesOut
	s.bytesIn += o.bytesIn
}

// countingReader counts the bytes the controller sent on a channel.
type countingReader struct {
	r io.Reader
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// channel is the switch side of one secure channel: a closed loop that
// keeps window packet-ins outstanding.
type channel struct {
	g     *generator
	dp    int
	conn  net.Conn
	in    *countingReader
	order []int32

	mu       sync.Mutex
	window   int
	next     int     // ops issued so far; position in the cycle
	inflight []int32 // flow indices
	wbuf     []byte
	stats    chanStats
	inBase   int64 // bytes read before this phase
}

// generator drives both channels and owns the flow universe's state.
type generator struct {
	r    *rig
	u    *universe
	w    *workload
	tr   *tracer
	base time.Time

	flows   []flowState
	byFive  map[flow.Five]int32 // forward tuple → index, reverse tuple → -index-1
	pktIn   [][]byte            // pre-encoded packet-in per flow
	removed [][]byte            // pre-encoded flow-removed per flow
	ch      [nDatapaths]*channel

	verdicts atomic.Int64 // all channels, all phases: paces the churn
	target   atomic.Int64 // the phase ends when phaseN reaches it (0 = timed phase)
	phaseN   atomic.Int64
	reached  chan struct{}

	standstills atomic.Int64 // gaps over standstill that the resend loop saw

	churnCh chan struct{}
	evMu    sync.Mutex
	events  []*revEvent
	written int64 // packet-ins sent over all phases, for the conservation check

	stop    chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup
	errMu   sync.Mutex
	err     error
	// failures describes the ops that got no verdict within opDeadline: how
	// many, and when, in ns since base.
	failures struct {
		n           int
		first, last int64
	}
}

func (g *generator) now() int64 { return int64(time.Since(g.base)) }

func newGenerator(r *rig, tr *tracer) *generator {
	u := r.u
	g := &generator{
		r: r, u: u, w: r.w, tr: tr, base: time.Now(),
		flows:   make([]flowState, len(u.flows)),
		byFive:  make(map[flow.Five]int32, 2*len(u.flows)),
		pktIn:   make([][]byte, len(u.flows)),
		removed: make([][]byte, len(u.flows)),
		// One token per pending kill event; a slow event drops tokens
		// rather than queueing a burst of kills.
		churnCh: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	var buf bytes.Buffer
	for i := range u.flows {
		f := &u.flows[i]
		g.flows[i].pos = -1
		g.byFive[f.five] = int32(i)
		g.byFive[f.five.Reverse()] = -int32(i) - 1
		frame := packet.TCPFrame(hostMAC(f.src), hostMAC(f.dst), f.five, 0x02, nil)
		buf.Reset()
		openflow.WriteMsg(&buf, openflow.EncodePacketIn(openflow.PacketIn{
			SwitchID: uint64(f.dp + 1), BufferID: uint32(i), InPort: f.inPort,
			Reason: openflow.ReasonNoMatch, Frame: frame,
		}, uint32(i)))
		g.pktIn[i] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		openflow.WriteMsg(&buf, openflow.EncodeFlowRemoved(openflow.FlowRemoved{
			SwitchID: uint64(f.dp + 1), Match: flow.FiveMatch(f.five),
			Cookie: f.five.Hash() | 1, Reason: openflow.RemovedIdleTimeout,
		}, uint32(i)))
		g.removed[i] = append([]byte(nil), buf.Bytes()...)
	}
	if g.tr != nil {
		g.tr.g = g
	}
	return g
}

// attach starts the reader of channel d over conn.
func (g *generator) attach(d int, conn net.Conn) {
	c := &channel{g: g, dp: d, conn: conn, in: &countingReader{r: conn}, order: g.u.order[d]}
	// Sized for a whole phase at the fastest workload, so recording a
	// latency never allocates while measuring.
	c.stats.lat = make([]int64, 0, 1<<20)
	g.ch[d] = c
	g.wg.Add(1)
	go c.readLoop()
	if d == nDatapaths-1 {
		g.wg.Add(1)
		go g.resendLoop()
		if g.w.churn {
			g.wg.Add(1)
			go g.churnLoop()
		}
	}
}

func (g *generator) fail(err error) {
	if g.closing.Load() {
		return
	}
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
}

// noteFailure keeps what a reader of a failed run needs first: when the ops
// failed.
func (g *generator) noteFailure(now int64) {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	f := &g.failures
	if f.n == 0 {
		f.first = now
	}
	f.n, f.last = f.n+1, now
}

func (g *generator) firstErr() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

// close stops the loops and waits for them.
func (g *generator) close() {
	if g.closing.Swap(true) {
		return
	}
	close(g.stop)
	for _, c := range g.ch {
		if c != nil {
			c.conn.Close()
		}
	}
	g.wg.Wait()
}

func (c *channel) readLoop() {
	defer c.g.wg.Done()
	br := bufio.NewReaderSize(c.in, 64<<10)
	for {
		m, err := openflow.ReadMsg(br)
		if err != nil {
			c.g.fail(fmt.Errorf("switch channel %d: %w", c.dp+1, err))
			return
		}
		now := c.g.now()
		switch m.Type {
		case openflow.MsgFlowMod:
			mod, err := openflow.DecodeFlowMod(m)
			if err != nil {
				c.g.fail(fmt.Errorf("switch channel %d: %w", c.dp+1, err))
				return
			}
			c.onFlowMod(mod, now)
		case openflow.MsgPacketOut:
			po, err := openflow.DecodePacketOut(m)
			if err != nil {
				c.g.fail(fmt.Errorf("switch channel %d: %w", c.dp+1, err))
				return
			}
			if po.BufferID != openflow.BufferNone && len(po.Frame) == 0 {
				c.onRelease(po.BufferID, now)
			}
		case openflow.MsgEchoRequest:
			c.mu.Lock()
			openflow.WriteMsg(c.conn, openflow.Msg{Type: openflow.MsgEchoReply, Xid: m.Xid, Body: m.Body})
			c.mu.Unlock()
		}
	}
}

// onRelease handles a buffer released without an install: the drop half of
// a deny (its flow-mod follows at once) or a voided decision (nothing
// follows, and the op is re-sent).
func (c *channel) onRelease(buf uint32, now int64) {
	if int(buf) >= len(c.g.flows) {
		return
	}
	c.mu.Lock()
	if st := &c.g.flows[buf]; st.pos >= 0 && !st.released {
		st.released, st.releasedAt = true, now
	}
	c.mu.Unlock()
}

func (c *channel) onFlowMod(mod openflow.FlowMod, msgRead int64) {
	g := c.g
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.flowMods++
	idx, known := g.byFive[mod.Match.Tuple.Five()]
	if mod.Delete {
		c.stats.deletes++
		if known && idx >= 0 {
			st := &g.flows[idx]
			st.table = vNone
			c.settleRevoked(st, msgRead)
		}
		return
	}
	if !known || idx < 0 {
		return // a keep-state reverse entry
	}
	v := vDeny
	if len(mod.Actions) > 0 && mod.Actions[0].Type == openflow.ActionOutput {
		v = vPass
	}
	st := &g.flows[idx]
	st.table = v
	if st.pos >= 0 { // else a re-sent packet-in was decided twice
		c.complete(idx, v, msgRead)
	}
}

// settleRevoked notes that a flow a kill event was waiting on has left the
// table. now is when its delete was read, or 0 when the entry idled out.
func (c *channel) settleRevoked(st *flowState, now int64) {
	if ev := st.rev; ev != nil {
		st.rev = nil
		ev.remaining--
		if now > ev.tLast {
			ev.tLast = now
		}
	}
}

// complete retires the op in flight for flow idx with verdict v and issues
// the next one. c.mu is held.
func (c *channel) complete(idx int32, v verdict, msgRead int64) {
	g := c.g
	st := &g.flows[idx]
	f := &g.u.flows[idx]
	c.stats.lat = append(c.stats.lat, msgRead-st.first)
	c.stats.verdicts++
	// The verdict is fixed by construction: the policy's answer for this
	// flow while its owner lives, deny while it is dead, either if the owner
	// was killed or revived while the op was in flight.
	ps := g.r.procs[f.src][f.proc]
	if e := ps.epoch.Load(); e == st.epoch && e%2 == 0 {
		want := vDeny
		if ps.alive.Load() && g.w.expectPass(g.u, f) {
			want = vPass
		}
		if v != want {
			c.stats.wrong++
			c.stats.failed++
		}
	}
	if st.span != nil {
		g.tr.finish(st.span, msgRead, g.now(), v)
		st.span = nil
	}
	c.retire(st)
	if g.w.churn && g.verdicts.Add(1)%churnEvery == 0 {
		select {
		case g.churnCh <- struct{}{}:
		default:
		}
	}
	if t := g.target.Load(); t > 0 && g.phaseN.Add(1) == t {
		close(g.reached)
	}
	c.topUp()
}

// dropSpan stops tracing the flow's op.
func (c *channel) dropSpan(st *flowState) {
	if st.span != nil {
		c.g.tr.abandon(st.span)
		st.span = nil
	}
}

// retire removes the flow's op from the in-flight set.
func (c *channel) retire(st *flowState) {
	last := len(c.inflight) - 1
	moved := c.inflight[last]
	c.inflight[st.pos] = moved
	c.g.flows[moved].pos = st.pos
	c.inflight = c.inflight[:last]
	st.pos = -1
}

// topUp issues ops until window are outstanding, in one write. c.mu is held.
func (c *channel) topUp() {
	g := c.g
	c.wbuf = c.wbuf[:0]
	first := len(c.inflight)
	for len(c.inflight) < c.window {
		n := c.next
		c.next++
		idx := c.order[n%len(c.order)]
		// The flow that was punted half a cycle ago idles out now: the
		// switch tells the controller about a forwarding entry and drops a
		// deny entry silently, so half the universe is live at any time and
		// every re-punt is a genuine first packet.
		if half := len(c.order) / 2; n >= half {
			old := c.order[(n-half)%len(c.order)]
			if ost := &g.flows[old]; ost.pos < 0 && ost.table != vNone {
				if ost.table == vPass {
					c.wbuf = append(c.wbuf, g.removed[old]...)
				}
				ost.table = vNone
				c.settleRevoked(ost, 0)
			}
		}
		st := &g.flows[idx]
		f := &g.u.flows[idx]
		st.pos = int32(len(c.inflight))
		c.inflight = append(c.inflight, idx)
		st.resends, st.released = 0, false
		st.epoch = g.r.procs[f.src][f.proc].epoch.Load()
		if g.tr != nil && n%sampleEvery == 0 {
			st.span = g.tr.begin(idx)
		}
		c.wbuf = append(c.wbuf, g.pktIn[idx]...)
		c.stats.written++
	}
	if len(c.wbuf) == 0 {
		return
	}
	t0 := g.now()
	c.write()
	t1 := g.now()
	for _, idx := range c.inflight[first:] {
		st := &g.flows[idx]
		st.first, st.last = t0, t0
		if st.span != nil {
			st.span.writeStart, st.span.writeEnd = t0, t1
		}
	}
}

func (c *channel) write() {
	c.stats.bytesOut += int64(len(c.wbuf))
	if _, err := c.conn.Write(c.wbuf); err != nil {
		c.g.fail(fmt.Errorf("switch channel %d: %w", c.dp+1, err))
	}
}

// resendLoop re-sends ops whose decision was voided or lost, and fails the
// ones that outlive their deadline. Silence is waited out twice as long after
// every re-send of either kind, so that a slow spell is not answered with a
// flood of duplicates.
func (g *generator) resendLoop() {
	defer g.wg.Done()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	last := g.now()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
		}
		now := g.now()
		gap := now - last
		last = now
		if gap > int64(standstill) {
			g.standstills.Add(1)
		} else {
			gap = 0
		}
		for _, c := range g.ch {
			c.mu.Lock()
			c.wbuf = c.wbuf[:0]
			if gap > 0 {
				for _, idx := range c.inflight {
					st := &g.flows[idx]
					st.first, st.last, st.releasedAt = st.first+gap, st.last+gap, st.releasedAt+gap
				}
			}
			for i := 0; i < len(c.inflight); i++ {
				idx := c.inflight[i]
				st := &g.flows[idx]
				switch {
				case now-st.first > int64(opDeadline):
					c.stats.failed++
					g.noteFailure(now)
					c.dropSpan(st)
					c.retire(st)
					i--
				case (st.released && now-st.releasedAt > int64(voidResend)) || now-st.last > int64(silentResend)<<min(st.resends, 8):
					if st.resends < 255 {
						st.resends++
					}
					st.released, st.last = false, now
					c.dropSpan(st) // a re-sent decision is not a clean sample
					c.wbuf = append(c.wbuf, g.pktIn[idx]...)
					c.stats.written++
					c.stats.resends++
				}
			}
			if len(c.wbuf) > 0 {
				c.write()
			}
			c.topUp() // replaces ops that failed
			c.mu.Unlock()
		}
	}
}

// churnLoop runs the writes of revoke_churn: one kill per token, and the
// revival of the process killed reviveAfter events earlier.
func (g *generator) churnLoop() {
	defer g.wg.Done()
	for k := 0; ; k++ {
		select {
		case <-g.stop:
			return
		case <-g.churnCh:
		}
		g.kill(g.u.kills[k%len(g.u.kills)])
		if k >= reviveAfter {
			if err := g.revive(g.u.kills[(k-reviveAfter)%len(g.u.kills)]); err != nil {
				g.fail(err)
				return
			}
		}
	}
}

// kill ends one client process. Every flow of it that is installed must be
// deleted from the switch; the event records when the last delete is read.
func (g *generator) kill(slot int) {
	h, k := slot/procsPerHost, slot%procsPerHost
	ps := g.r.procs[h][k]
	c := g.ch[h/hostsPerDP]
	ev := &revEvent{}
	ps.epoch.Add(1)
	ps.alive.Store(false)
	c.mu.Lock()
	for _, i := range ps.flows {
		if st := &g.flows[i]; st.table != vNone {
			st.rev = ev // an earlier event still waiting on this flow stays unfinished
			ev.flows++
		}
	}
	ev.remaining = ev.flows
	ev.t0 = g.now()
	c.mu.Unlock()
	g.r.hosts[h].Kill(int(ps.pid.Load()))
	pub := g.now()
	c.mu.Lock()
	ev.tPub = pub
	c.mu.Unlock()
	ps.epoch.Add(1)
	g.evMu.Lock()
	g.events = append(g.events, ev)
	g.evMu.Unlock()
}

func (g *generator) revive(slot int) error {
	h, k := slot/procsPerHost, slot%procsPerHost
	ps := g.r.procs[h][k]
	ps.epoch.Add(1)
	err := g.r.startProc(h, k)
	ps.alive.Store(true)
	ps.epoch.Add(1)
	return err
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	chanStats
	elapsed time.Duration // first write → the moment issuing stopped
	atStop  int64         // verdicts delivered by then
	drained bool          // every op in flight at the stop got its answer
}

// runPhase keeps window ops outstanding on each of the first channels
// channels until count verdicts have been delivered (count > 0) or d has
// passed, then lets the ops in flight finish. atStart and atStop run at the
// edges of the measured interval: before the first write and right when
// issuing stops.
func (g *generator) runPhase(window, channels int, count int64, d time.Duration, atStart, atStop func()) (phase, error) {
	g.reached = make(chan struct{})
	g.phaseN.Store(0)
	g.target.Store(count)
	for _, c := range g.ch {
		c.mu.Lock()
		c.stats = chanStats{lat: c.stats.lat[:0]}
		c.inBase = c.in.n.Load()
		c.mu.Unlock()
	}
	if atStart != nil {
		atStart()
	}
	start := time.Now()
	for _, c := range g.ch[:channels] {
		c.mu.Lock()
		c.window = window
		c.topUp()
		c.mu.Unlock()
	}
	timeout := d
	if count > 0 {
		timeout = 60 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	var err error
	select {
	case <-g.reached:
	case <-timer.C:
		if count > 0 {
			err = fmt.Errorf("phase did not deliver %d verdicts within %v", count, timeout)
		}
	}
	var p phase
	for _, c := range g.ch {
		c.mu.Lock()
		c.window = 0
		p.atStop += c.stats.verdicts
		c.mu.Unlock()
	}
	p.elapsed = time.Since(start)
	if atStop != nil {
		atStop()
	}
	p.drained = g.drain(2 * opDeadline)
	for _, c := range g.ch {
		c.mu.Lock()
		c.stats.bytesIn = c.in.n.Load() - c.inBase
		p.chanStats.add(&c.stats)
		c.mu.Unlock()
	}
	g.written += p.written
	g.target.Store(0)
	if err == nil {
		err = g.firstErr()
	}
	return p, err
}

// lockAll takes every channel's lock, for a consistent look at the flows.
func (g *generator) lockAll() {
	for _, c := range g.ch {
		c.mu.Lock()
	}
}

func (g *generator) unlockAll() {
	for _, c := range g.ch {
		c.mu.Unlock()
	}
}

// drain waits until no op is in flight.
func (g *generator) drain(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for {
		busy := 0
		for _, c := range g.ch {
			c.mu.Lock()
			busy += len(c.inflight)
			c.mu.Unlock()
		}
		if busy == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// settleEvents waits for the kill events still collecting deletes, then
// reports the finished ones and how many never finished.
func (g *generator) settleEvents() (done []*revEvent, unfinished int) {
	deadline := time.Now().Add(opDeadline)
	for {
		done, unfinished = done[:0], 0
		g.evMu.Lock()
		events := append([]*revEvent(nil), g.events...)
		g.evMu.Unlock()
		g.lockAll() // remaining is written under the owning channel's lock
		for _, ev := range events {
			if ev.remaining > 0 {
				unfinished++
			} else if ev.flows > 0 {
				done = append(done, ev)
			}
		}
		g.unlockAll()
		if unfinished == 0 || time.Now().After(deadline) {
			return done, unfinished
		}
		time.Sleep(time.Millisecond)
	}
}

// stalePass counts flows whose owner is dead and whose switch entry still
// forwards: the safety property, checked on the generator's model of the
// two tables once everything has settled.
func (g *generator) stalePass() int {
	n := 0
	g.lockAll()
	defer g.unlockAll()
	for i := range g.flows {
		f := &g.u.flows[i]
		if g.flows[i].table == vPass && !g.r.procs[f.src][f.proc].alive.Load() {
			n++
		}
	}
	return n
}
