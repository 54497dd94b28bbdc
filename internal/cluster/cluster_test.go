package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/link"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// passTransport answers every endpoint query with name=skype, so the test
// policies admit or deny purely on what the policy text asks for.
type passTransport struct{}

func (passTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	r := wire.NewResponse(q.Flow)
	r.Add(wire.KeyName, "skype")
	return r, 0, nil
}

type hopTopo struct{ hops []core.Hop }

func (t hopTopo) Path(src, dst netaddr.IP) ([]core.Hop, error) { return t.hops, nil }

const passPolicy = `
block all
pass from any to any with eq(@src[name], skype) keep state
`

func testController(t *testing.T, name string, install bool, hops []core.Hop) *core.Controller {
	t.Helper()
	c := core.New(core.Config{
		Name:             name,
		Policy:           pf.MustCompile(name, passPolicy),
		Transport:        passTransport{},
		Topology:         hopTopo{hops: hops},
		InstallEntries:   install,
		ResponseCacheTTL: time.Hour,
		Revocation:       true,
	})
	if !install {
		// HandleEvent drops events from unknown datapaths; non-install
		// tests still need switch 1 registered.
		c.AddDatapath(&sinkDatapath{id: 1})
	}
	return c
}

// sinkDatapath is a datapath that accepts and discards everything.
type sinkDatapath struct{ id uint64 }

func (d *sinkDatapath) DatapathID() uint64           { return d.id }
func (d *sinkDatapath) Apply(openflow.FlowMod) error { return nil }
func (d *sinkDatapath) PacketOut(uint16, []byte)     {}
func (d *sinkDatapath) ReleaseBuffer(uint32)         {}

func testFive(srcPort netaddr.Port) flow.Five {
	return flow.Five{
		SrcIP: netaddr.MustParseIP("10.9.0.1"), DstIP: netaddr.MustParseIP("10.9.0.2"),
		Proto: netaddr.ProtoTCP, SrcPort: srcPort, DstPort: 5060,
	}
}

func testPacketIn(five flow.Five) openflow.PacketIn {
	return openflow.PacketIn{
		SwitchID: 1,
		BufferID: openflow.BufferNone,
		InPort:   1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   five.SrcIP, DstIP: five.DstIP, Proto: five.Proto,
			SrcPort: five.SrcPort, DstPort: five.DstPort,
		},
	}
}

// fiveOwnedBy scans source ports until it finds a flow whose owner under r
// matches want. Ownership is deterministic, so this always terminates fast.
func fiveOwnedBy(t *testing.T, r *Router, want bool) flow.Five {
	t.Helper()
	for p := netaddr.Port(20000); p < 21000; p++ {
		if f := testFive(p); r.Owns(f) == want {
			return f
		}
	}
	t.Fatal("no flow with requested ownership in 1000 ports")
	return flow.Five{}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOwnerHashDirectionAgnostic: both directions of a flow must land on
// the same owner, or reply packets of an admitted flow would punt to a
// replica holding no state for them.
func TestOwnerHashDirectionAgnostic(t *testing.T) {
	for p := netaddr.Port(1000); p < 1100; p++ {
		f := testFive(p)
		if ownerHash(f) != ownerHash(f.Reverse()) {
			t.Fatalf("ownerHash differs across directions for %v", f)
		}
	}
}

// TestOwnerIndependentOfMemberOrder: rendezvous ownership must be a
// function of the member set, not the order a replica happened to list it
// in — otherwise replicas with differently-ordered configs would disagree.
func TestOwnerIndependentOfMemberOrder(t *testing.T) {
	ms := []Member{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}}
	ra := NewRouter(testController(t, "a", false, nil), ms[0], Options{
		Dial: func(Member) (Link, error) { return nopLink{}, nil },
	})
	if err := ra.SetMembers(ms); err != nil {
		t.Fatal(err)
	}
	rb := NewRouter(testController(t, "c", false, nil), ms[2], Options{
		Dial: func(Member) (Link, error) { return nopLink{}, nil },
	})
	if err := rb.SetMembers([]Member{ms[3], ms[1], ms[2], ms[0]}); err != nil {
		t.Fatal(err)
	}
	for p := netaddr.Port(1000); p < 1200; p++ {
		f := testFive(p)
		if got, want := rb.Owner(f).ID, ra.Owner(f).ID; got != want {
			t.Fatalf("owner of %v differs by member order: %s vs %s", f, got, want)
		}
	}
}

// TestRingShareBalance: HRW should split the flow space roughly evenly.
func TestRingShareBalance(t *testing.T) {
	ms := []Member{{ID: "r1"}, {ID: "r2"}, {ID: "r3"}, {ID: "r4"}}
	r := NewRouter(testController(t, "r1", false, nil), ms[0], Options{
		Dial: func(Member) (Link, error) { return nopLink{}, nil },
	})
	if err := r.SetMembers(ms); err != nil {
		t.Fatal(err)
	}
	for _, st := range r.RingStats(16384) {
		if st.Share < 0.15 || st.Share > 0.35 {
			t.Errorf("member %s share %.3f, want ~0.25", st.Member.ID, st.Share)
		}
	}
}

// twoRouters builds an in-process two-replica cluster over Loopback links.
func twoRouters(t *testing.T, install bool, hops []core.Hop) (*Router, *Router) {
	t.Helper()
	ctlA := testController(t, "A", install, hops)
	ctlB := testController(t, "B", install, hops)
	var ra, rb *Router
	ra = NewRouter(ctlA, Member{ID: "A"}, Options{
		Dial: func(m Member) (Link, error) { return Loopback{Peer: rb}, nil },
	})
	rb = NewRouter(ctlB, Member{ID: "B"}, Options{
		Dial: func(m Member) (Link, error) { return Loopback{Peer: ra}, nil },
	})
	ms := []Member{{ID: "A"}, {ID: "B"}}
	if err := ra.SetMembers(ms); err != nil {
		t.Fatal(err)
	}
	if err := rb.SetMembers(ms); err != nil {
		t.Fatal(err)
	}
	return ra, rb
}

// TestLoopbackForwarding: events for flows owned by the peer are forwarded
// and decided there; owned events are decided locally.
func TestLoopbackForwarding(t *testing.T) {
	ra, rb := twoRouters(t, false, nil)

	mine := fiveOwnedBy(t, ra, true)
	theirs := fiveOwnedBy(t, ra, false)
	if !rb.Owns(theirs) {
		t.Fatal("routers disagree about ownership")
	}

	ra.HandleEvent(testPacketIn(mine))
	ra.HandleEvent(testPacketIn(theirs))

	if got := ra.Counters.Get("cluster_events_owned"); got != 1 {
		t.Errorf("A owned = %d, want 1", got)
	}
	if got := ra.Counters.Get("cluster_events_forwarded"); got != 1 {
		t.Errorf("A forwarded = %d, want 1", got)
	}
	if got := rb.Counters.Get("cluster_events_received"); got != 1 {
		t.Errorf("B received = %d, want 1", got)
	}
	if got := ra.Local().Counters.Get("flows_allowed"); got != 1 {
		t.Errorf("A decided %d flows, want 1", got)
	}
	if got := rb.Local().Counters.Get("flows_allowed"); got != 1 {
		t.Errorf("B decided %d flows, want 1", got)
	}
}

// TestSnapshotReplication: a policy write on one replica converges on the
// peer, epochs agree, and the peer enforces the new policy.
func TestSnapshotReplication(t *testing.T) {
	ra, rb := twoRouters(t, false, nil)

	if err := ra.SetPolicy("v2", "block all\n", false); err != nil {
		t.Fatal(err)
	}
	ea, oa := ra.Epoch()
	eb, ob := rb.Epoch()
	if ea != eb || oa != ob {
		t.Fatalf("epochs diverged: A=(%d,%s) B=(%d,%s)", ea, oa, eb, ob)
	}

	// The replicated block-all must now deny at B, for a flow B owns.
	f := fiveOwnedBy(t, rb, true)
	rb.HandleEvent(testPacketIn(f))
	if got := rb.Local().Counters.Get("flows_denied"); got != 1 {
		t.Errorf("B denied %d flows under replicated policy, want 1", got)
	}

	// Answer-on-behalf replication rides the same push.
	ip := netaddr.MustParseIP("10.9.0.7")
	ra.AnswerForHost(ip, wire.KV{Key: wire.KeyName, Value: "printer"})
	ea, _ = ra.Epoch()
	eb, _ = rb.Epoch()
	if ea != eb {
		t.Fatalf("epochs diverged after answer write: %d vs %d", ea, eb)
	}
}

// TestAddDatapathReplicatesNothing: a switch connection is per-replica —
// each replica registers its own — so a connect registers locally and
// moves no config epoch on either side, and the peer applies nothing.
func TestAddDatapathReplicatesNothing(t *testing.T) {
	ra, rb := twoRouters(t, false, nil)
	ea, _ := ra.Epoch()
	eb, _ := rb.Epoch()
	applied := rb.Counters.Get("cluster_snapshots_applied")
	before := ra.Local().DatapathCount()

	ra.AddDatapath(&sinkDatapath{id: 9})

	if got := ra.Local().DatapathCount(); got != before+1 {
		t.Errorf("A has %d datapaths, want %d", got, before+1)
	}
	if e, _ := ra.Epoch(); e != ea {
		t.Errorf("A's epoch moved %d -> %d on a switch connect", ea, e)
	}
	if e, _ := rb.Epoch(); e != eb {
		t.Errorf("B's epoch moved %d -> %d on A's switch connect", eb, e)
	}
	if got := rb.Counters.Get("cluster_snapshots_applied"); got != applied {
		t.Errorf("B applied %d snapshots on A's switch connect", got-applied)
	}
}

// TestSnapshotEpochFence: stale snapshots are rejected with ErrStaleEpoch,
// and a snapshot that fails to compile does not advance the epoch (a later
// good snapshot at the same epoch must still apply).
func TestSnapshotEpochFence(t *testing.T) {
	_, rb := twoRouters(t, false, nil)
	epoch, _ := rb.Epoch()
	staleBase := rb.Counters.Get("cluster_snapshots_stale")

	stale := &Snapshot{Epoch: epoch, Origin: "", PolicyName: "old", PolicySrc: "block all\n"}
	if err := rb.ApplySnapshot(stale); err != ErrStaleEpoch {
		t.Fatalf("stale snapshot: got %v, want ErrStaleEpoch", err)
	}
	if got := rb.Counters.Get("cluster_snapshots_stale"); got != staleBase+1 {
		t.Errorf("cluster_snapshots_stale = %d, want %d", got, staleBase+1)
	}

	bad := &Snapshot{Epoch: epoch + 10, Origin: "x", PolicyName: "bad", PolicySrc: "pass from syntax error\n"}
	if err := rb.ApplySnapshot(bad); err == nil || err == ErrStaleEpoch {
		t.Fatalf("uncompilable snapshot: got %v, want compile error", err)
	}
	if e, _ := rb.Epoch(); e != epoch {
		t.Fatalf("compile failure advanced epoch to %d", e)
	}
	good := &Snapshot{Epoch: epoch + 10, Origin: "x", PolicyName: "good", PolicySrc: "block all\n"}
	if err := rb.ApplySnapshot(good); err != nil {
		t.Fatalf("good snapshot at same epoch after compile failure: %v", err)
	}
}

// TestEventCodecRoundTrip: the forwarded packet-in survives the wire, its
// trace ID included.
func TestEventCodecRoundTrip(t *testing.T) {
	ev := openflow.PacketIn{
		TraceID:  0x0102030405060708,
		SwitchID: 0x1122334455667788,
		BufferID: 42,
		InPort:   7,
		Reason:   openflow.ReasonNoMatch,
		Tuple: flow.Ten{
			InPort: 7, MACSrc: 0xa1a2a3a4a5a6, MACDst: 0xb1b2b3b4b5b6,
			EthType: flow.EthTypeIPv4, VLAN: 12,
			SrcIP: netaddr.MustParseIP("10.0.0.1"), DstIP: netaddr.MustParseIP("10.0.0.2"),
			Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 443,
		},
		Frame: []byte{0xde, 0xad, 0xbe, 0xef},
	}
	got, err := decodeEvent(encodeEvent(ev))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ev) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}
}

// TestSnapshotCodecRoundTrip: config snapshots survive the wire, including
// answer values containing spaces and multi-line policy source.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := &Snapshot{
		Epoch: 9, Origin: "replica-2",
		PolicyName: "prod", PolicySrc: passPolicy,
		DefaultBlock: true,
		Answers: map[netaddr.IP][]wire.KV{
			netaddr.MustParseIP("10.0.0.9"): {
				{Key: wire.KeyName, Value: "laser printer 2"},
				{Key: "type", Value: "printer"},
			},
		},
	}
	got, err := decodeSnapshot(encodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

// TestTCPLinkForwardSnapshotReconnect: the real inter-controller link —
// forwarded events and snapshot pushes over TCP, stale mapped to
// ErrStaleEpoch, and transparent redial after the connection dies.
func TestTCPLinkForwardSnapshotReconnect(t *testing.T) {
	rb := NewRouter(testController(t, "B", false, nil), Member{ID: "B"}, Options{})
	addr := serveRouter(t, rb, listen(t)).String()

	l := DialTCP(addr)
	t.Cleanup(func() { l.Close() })

	if err := l.ForwardEvent(testPacketIn(testFive(31000))); err != nil {
		t.Fatalf("forward: %v", err)
	}
	if got := rb.Counters.Get("cluster_events_received"); got != 1 {
		t.Errorf("received = %d, want 1", got)
	}

	epoch, _ := rb.Epoch()
	snap := &Snapshot{Epoch: epoch + 1, Origin: "A", PolicyName: "p", PolicySrc: "block all\n"}
	if err := l.PushSnapshot(snap); err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := l.PushSnapshot(snap); err != ErrStaleEpoch {
		t.Fatalf("replayed push: got %v, want ErrStaleEpoch", err)
	}

	// The replica restarts, which drops the connection out from under the
	// link; the next forward must heal by redialing (immediately — working
	// connections don't back off).
	rb2 := restart(t, rb, addr, Options{})
	waitUntil(t, "link recovery", func() bool {
		return l.ForwardEvent(testPacketIn(testFive(31001))) == nil
	})
	if got := rb2.Counters.Get("cluster_events_received"); got < 1 {
		t.Errorf("received after recovery = %d, want the forward", got)
	}
}

// listen returns a loopback listener closed with the test. It counts what it
// accepts.
func listen(t *testing.T) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &countingListener{Listener: ln}
}

type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// serveRouter serves r on ln until the test ends (or r.Close).
func serveRouter(t *testing.T, r *Router, ln net.Listener) net.Addr {
	t.Helper()
	if err := r.Serve(ln); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return ln.Addr()
}

// restart closes r — listener and served connections, as a crashed replica
// drops them — and serves a fresh Router for the same controller on addr.
func restart(t *testing.T, r *Router, addr string, opts Options) *Router {
	t.Helper()
	r.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewRouter(r.Local(), r.Self(), opts)
	serveRouter(t, fresh, ln)
	return fresh
}

// TestTCPLinkLateAckFailsOneForward: an ack later than its deadline fails
// that forward only. The connection lives, the forward behind it succeeds
// with no redial, and the late ack is not taken for the second forward's.
func TestTCPLinkLateAckFailsOneForward(t *testing.T) {
	const timeout = 100 * time.Millisecond
	var events atomic.Int64
	ln := listen(t)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				br := bufio.NewReader(conn)
				for {
					if _, err := wire.ReadFrame(br); err != nil {
						return
					}
					status := byte(ackOK)
					if events.Add(1) == 1 {
						// The first ack is late, and says "rejected": taken
						// for the second forward's it would fail that one.
						time.Sleep(2 * timeout)
						status = ackError
					}
					if wire.WriteFrame(conn, wire.Frame{Type: wire.FrameAck, Payload: []byte{status}}) != nil {
						return
					}
				}
			}()
		}
	}()

	l := dialTCP(ln.Addr().String(), 10*timeout)
	t.Cleanup(func() { l.Close() })
	l.timeout = timeout
	if err := l.ForwardEvent(testPacketIn(testFive(34000))); !errors.Is(err, link.ErrDeadline) {
		t.Fatalf("forward acked late: %v, want the ack deadline", err)
	}
	l.timeout = 10 * timeout
	if err := l.ForwardEvent(testPacketIn(testFive(34001))); err != nil {
		t.Fatalf("forward behind a late ack: %v", err)
	}
	if c, e := ln.accepted.Load(), events.Load(); c != 1 || e != 2 {
		t.Errorf("%d connections, %d events; want 1 and 2 (a late ack must not cost the connection)", c, e)
	}
}

// TestTCPLinkClosedStaysClosed: a forward after Close fails at once and
// dials nothing.
func TestTCPLinkClosedStaysClosed(t *testing.T) {
	rb := NewRouter(testController(t, "B", false, nil), Member{ID: "B"}, Options{})
	ln := listen(t)
	serveRouter(t, rb, ln)

	l := DialTCP(ln.Addr().String())
	if err := l.ForwardEvent(testPacketIn(testFive(35000))); err != nil {
		t.Fatalf("forward: %v", err)
	}
	l.Close()
	for range 2 {
		if err := l.ForwardEvent(testPacketIn(testFive(35001))); !errors.Is(err, errLinkClosed) {
			t.Errorf("forward after Close: %v, want %v", err, errLinkClosed)
		}
	}
	if err := l.PushSnapshot(&Snapshot{Epoch: 1, Origin: "A"}); !errors.Is(err, errLinkClosed) {
		t.Errorf("push after Close: %v, want %v", err, errLinkClosed)
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Errorf("%d connections accepted, want 1: a closed link must not redial", n)
	}
	if got := rb.Counters.Get("cluster_events_received"); got != 1 {
		t.Errorf("received = %d, want 1", got)
	}
}

// parkingTransport is an asynchronous transport that answers like
// passTransport, but only when the test releases it: every decision that
// needs a query stays suspended until then.
type parkingTransport struct {
	passTransport
	mu     sync.Mutex
	parked []func()
}

func (p *parkingTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.parked = append(p.parked, func() { done(p.Query(host, q)) })
}

func (p *parkingTransport) release() {
	p.mu.Lock()
	parked := p.parked
	p.parked = nil
	p.mu.Unlock()
	for _, answer := range parked {
		answer()
	}
}

// frameRecorder is a datapath that keeps the frames it is told to send.
type frameRecorder struct {
	sinkDatapath
	mu   sync.Mutex
	sent [][]byte
}

func (d *frameRecorder) PacketOut(_ uint16, frame []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sent = append(d.sent, append([]byte(nil), frame...))
}

// TestTCPLinkForwardedFrameOutlivesTheNextFrame: the ack of a forwarded packet-in
// says the owner accepted it, not that it decided — the decision may be
// suspended on the owner's query plane, holding the packet to release, while
// the served connection reads the next frame into the same buffer. The packet
// the owner finally sends must be the one that was forwarded.
func TestTCPLinkForwardedFrameOutlivesTheNextFrame(t *testing.T) {
	tr := &parkingTransport{}
	dp := &frameRecorder{sinkDatapath: sinkDatapath{id: 1}}
	ctl := core.New(core.Config{
		Name:         "B",
		Policy:       pf.MustCompile("B", passPolicy),
		Transport:    tr,
		Topology:     hopTopo{hops: []core.Hop{{Datapath: 1, OutPort: 2}}},
		AsyncQueries: true,
	})
	ctl.AddDatapath(dp)
	rb := NewRouter(ctl, Member{ID: "B"}, Options{})
	l := DialTCP(serveRouter(t, rb, listen(t)).String())
	t.Cleanup(func() { l.Close() })

	var want [][]byte
	for i := range 3 {
		ev := testPacketIn(testFive(36000 + netaddr.Port(i)))
		ev.Frame = bytes.Repeat([]byte{0xA0 + byte(i)}, 64)
		want = append(want, ev.Frame)
		if err := l.ForwardEvent(ev); err != nil {
			t.Fatalf("forward %d: %v", i, err)
		}
	}
	sent := func() [][]byte {
		dp.mu.Lock()
		defer dp.mu.Unlock()
		return dp.sent
	}
	if n := len(sent()); n != 0 {
		t.Fatalf("%d packets sent with every decision suspended", n)
	}
	waitUntil(t, "the suspended decisions", func() bool {
		tr.release()
		return len(sent()) == len(want)
	})
	if got := sent(); !reflect.DeepEqual(got, want) {
		t.Errorf("packets released = %x, want the three forwarded, each intact: %x", got, want)
	}
}

// TestTakeoverSweep: a ring rebuild deletes, by installer tag, everything a
// departed member installed on the switches — the flow's next packet punts
// to its new owner and re-decides — and leaves the survivor's own entries
// alone. A stable rebuild and a join delete nothing.
func TestTakeoverSweep(t *testing.T) {
	sw := openflow.NewSwitch(1, "s1", 0)
	hops := []core.Hop{{Datapath: 1, OutPort: 2}}
	ra, rb := twoRouters(t, true, hops)
	ra.Local().AddDatapath(sw)
	rb.Local().AddDatapath(sw)
	// B's flow arrives at A and is forwarded; A decides its own.
	mine, theirs := fiveOwnedBy(t, rb, true), fiveOwnedBy(t, rb, false)
	ra.HandleEvent(testPacketIn(mine))
	ra.HandleEvent(testPacketIn(theirs))
	if sw.Table.Len() != 4 {
		t.Fatalf("setup: table len %d, want 4", sw.Table.Len())
	}
	entries := func(f flow.Five) int {
		n := 0
		for _, e := range sw.Table.Entries() {
			if m := e.Match.Tuple.Five(); m == f || m == f.Reverse() {
				n++
			}
		}
		return n
	}

	both := []Member{{ID: "A"}, {ID: "B"}}
	if err := rb.SetMembers(both); err != nil {
		t.Fatal(err)
	}
	if got := rb.Counters.Get("cluster_takeover_swept"); got != 0 || sw.Table.Len() != 4 {
		t.Fatalf("stable rebuild: %d deletes, table len %d; want 0/4", got, sw.Table.Len())
	}

	// A departs: its tag goes from the switch in one delete, B's stays.
	if err := rb.SetMembers([]Member{{ID: "B"}}); err != nil {
		t.Fatal(err)
	}
	if got := rb.Counters.Get("cluster_takeover_swept"); got != 1 {
		t.Errorf("cluster_takeover_swept = %d, want one delete for the one switch", got)
	}
	if entries(theirs) != 0 || entries(mine) != 2 {
		t.Errorf("after A departed: %d of A's entries and %d of B's left, want 0 and 2", entries(theirs), entries(mine))
	}

	// A re-joins: nothing is deleted.
	if err := rb.SetMembers(both); err != nil {
		t.Fatal(err)
	}
	if got := rb.Counters.Get("cluster_takeover_swept"); got != 1 || entries(mine) != 2 {
		t.Errorf("join: cluster_takeover_swept %d, B's entries %d; want 1 and 2", got, entries(mine))
	}
}

// TestForwardFallback: an unreachable owner must not blackhole flows — the
// event is decided locally and the violation counted.
func TestForwardFallback(t *testing.T) {
	ctlA := testController(t, "A", false, nil)
	ra := NewRouter(ctlA, Member{ID: "A"}, Options{
		Dial: func(m Member) (Link, error) { return failLink{}, nil },
	})
	if err := ra.SetMembers([]Member{{ID: "A"}, {ID: "B"}}); err != nil {
		t.Fatal(err)
	}
	f := fiveOwnedBy(t, ra, false)
	ra.HandleEvent(testPacketIn(f))
	if got := ra.Counters.Get("cluster_forward_fallbacks"); got != 1 {
		t.Errorf("cluster_forward_fallbacks = %d, want 1", got)
	}
	if got := ctlA.Counters.Get("flows_allowed"); got != 1 {
		t.Errorf("fallback did not decide locally: flows_allowed = %d", got)
	}
}

type failLink struct{}

func (failLink) ForwardEvent(openflow.PacketIn) error { return fmt.Errorf("down") }
func (failLink) PushSnapshot(*Snapshot) error         { return fmt.Errorf("down") }
func (failLink) Close() error                         { return nil }

// nopLink swallows everything: for tests exercising only the ownership
// function, where peers need not exist.
type nopLink struct{}

func (nopLink) ForwardEvent(openflow.PacketIn) error { return nil }
func (nopLink) PushSnapshot(*Snapshot) error         { return nil }
func (nopLink) Close() error                         { return nil }
