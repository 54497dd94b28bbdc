package daemon

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/netaddr"
	"identxx/internal/wire"
)

// pushHost builds a host with one user running one process that owns an
// outbound flow, plus the daemon serving it.
func pushHost(t *testing.T) (*hostinfo.Host, *Daemon, *hostinfo.Process, flow.Five) {
	t.Helper()
	h := hostinfo.New("pc", netaddr.MustParseIP("10.9.0.1"), 1)
	u := h.AddUser("alice", "staff")
	p := h.Exec(u, hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"})
	d := New(h)
	five, err := h.Connect(p.PID, flow.Five{
		DstIP: netaddr.MustParseIP("10.9.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060,
	})
	if err != nil {
		t.Fatal(err)
	}
	return h, d, p, five
}

// collector accumulates published updates.
type collector struct {
	mu   sync.Mutex
	got  []wire.Update
	cond *sync.Cond
}

func newCollector() *collector {
	c := &collector{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) fn(u wire.Update) {
	c.mu.Lock()
	c.got = append(c.got, u)
	c.cond.Broadcast()
	c.mu.Unlock()
}

func (c *collector) all() []wire.Update {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]wire.Update(nil), c.got...)
}

func TestSubscribeHelloCarriesSerial(t *testing.T) {
	_, d, _, _ := pushHost(t)
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()
	got := c.all()
	if len(got) != 1 || !got[0].Hello {
		t.Fatalf("want exactly one hello, got %+v", got)
	}
	if got[0].Serial != d.UpdateSerial() {
		t.Errorf("hello serial %d != daemon serial %d", got[0].Serial, d.UpdateSerial())
	}
}

func TestProcessExitPublishesFlowUpdate(t *testing.T) {
	h, d, p, five := pushHost(t)
	// The daemon must have asserted facts for the flow first.
	resp := d.HandleQuery(wire.Query{Flow: five})
	if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
		t.Fatalf("setup: userID = %q", v)
	}
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	h.Kill(p.PID)

	got := c.all()
	if len(got) != 2 { // hello + the change
		t.Fatalf("updates = %+v, want hello + one change", got)
	}
	u := got[1]
	if u.Flow != five {
		t.Errorf("update flow = %v, want %v", u.Flow, five)
	}
	if u.Serial != got[0].Serial+1 {
		t.Errorf("serial %d does not follow hello %d", u.Serial, got[0].Serial)
	}
	if u.Hello || u.Key == "" {
		t.Errorf("update should name a changed key: %+v", u)
	}
}

// TestChangeBetweenAnswerAndMemo: a host change that lands after the daemon
// built an answer and before it memoized the answer is still published. The
// change's rescan finds the flow not yet memoized; the answer on the wire
// names a process that is gone, and the subscriber must hear so.
func TestChangeBetweenAnswerAndMemo(t *testing.T) {
	h, d, p, five := pushHost(t)
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()
	// The hook runs between the answer and the memo. The process exits there
	// once: the exit's rescan runs the hook again (so no sync.Once, which
	// would deadlock on itself).
	var killed atomic.Bool
	d.SetForge(func(q wire.Query, honest *wire.Response) *wire.Response {
		if killed.CompareAndSwap(false, true) {
			h.Kill(p.PID)
		}
		return honest
	})

	resp := d.HandleQuery(wire.Query{Flow: five})
	if v, _ := resp.Latest(wire.KeyUserID); v != "alice" {
		t.Fatalf("setup: answer keys %v, want the process's facts built before it exited", resp.Keys())
	}
	got := c.all()
	if len(got) != 2 || got[1].Flow != five || got[1].Key == "" {
		t.Fatalf("updates = %+v, want the hello, then the flow's changed fact", got)
	}
}

func TestLogoutAndGroupChangePublish(t *testing.T) {
	h, d, _, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	if !h.SetUserGroups("alice", "contractors") {
		t.Fatal("SetUserGroups failed")
	}
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after group change: updates = %+v", got)
	}
	if got[1].Key != wire.KeyGroupID {
		t.Errorf("changed key = %q, want groupID", got[1].Key)
	}
	if got[1].Old != "staff" || got[1].New != "contractors" {
		t.Errorf("old/new = %q/%q", got[1].Old, got[1].New)
	}

	h.Logout("alice")
	got = c.all()
	if len(got) != 3 {
		t.Fatalf("after logout: updates = %+v", got)
	}
	if got[2].Flow != five {
		t.Errorf("logout update flow = %v", got[2].Flow)
	}
}

func TestConfigInstallPublishes(t *testing.T) {
	_, d, _, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	d.InstallConfig(&ConfigFile{Apps: []*AppConfig{{
		Path:  "/usr/bin/skype",
		Pairs: []wire.KV{{Key: "vendor", Value: "skype-inc"}},
	}}}, true)
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after config install: updates = %+v", got)
	}
	if got[1].Key != "vendor" || got[1].New != "skype-inc" {
		t.Errorf("update = %+v, want vendor change", got[1])
	}
}

func TestClearFlowPairsPublishes(t *testing.T) {
	_, d, _, five := pushHost(t)
	d.ProvideFlowPairs(five, wire.KV{Key: "initiated-by", Value: "user"})
	d.HandleQuery(wire.Query{Flow: five})
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	d.ClearFlowPairs(five)
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after ClearFlowPairs: updates = %+v", got)
	}
	if got[1].Key != "initiated-by" || got[1].Old != "user" || got[1].New != "" {
		t.Errorf("update = %+v, want initiated-by removed", got[1])
	}
}

func TestAnsweredMemoBoundedAndEvictionPublished(t *testing.T) {
	h, d, p, _ := pushHost(t)
	d.SetAnsweredCap(4)
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	for i := 0; i < 8; i++ {
		f, err := h.Connect(p.PID, flow.Five{
			DstIP: netaddr.MustParseIP("10.9.0.2"), Proto: netaddr.ProtoTCP,
			SrcPort: netaddr.Port(20000 + i), DstPort: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.HandleQuery(wire.Query{Flow: f})
	}
	entries, evictions := d.AnsweredStats()
	if entries > 4 {
		t.Errorf("memo holds %d entries, cap is 4", entries)
	}
	if evictions != 4 {
		t.Errorf("evictions = %d, want 4", evictions)
	}
	// Each eviction is published as a flow-scoped keyless update.
	evictedUpdates := 0
	for _, u := range c.all() {
		if !u.Hello && u.FlowScoped() && u.Key == "" {
			evictedUpdates++
		}
	}
	if evictedUpdates != 4 {
		t.Errorf("eviction updates = %d, want 4", evictedUpdates)
	}
}

func TestDynamicFlowPairsBounded(t *testing.T) {
	_, d, _, _ := pushHost(t)
	d.SetDynamicCap(4)
	for i := 0; i < 10; i++ {
		f := flow.Five{
			SrcIP: netaddr.MustParseIP("10.9.0.1"), DstIP: netaddr.MustParseIP("10.9.0.2"),
			Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(30000 + i), DstPort: 80,
		}
		d.ProvideFlowPairs(f, wire.KV{Key: "k", Value: "v"})
	}
	entries, evictions := d.FlowPairStats()
	if entries > 4 {
		t.Errorf("dynamic map holds %d entries, cap is 4", entries)
	}
	if evictions != 6 {
		t.Errorf("evictions = %d, want 6", evictions)
	}
}

func TestNoUserToOwnedTransitionPublishes(t *testing.T) {
	// A flow answered NO-USER (destination not yet accepted) whose owner
	// appears later is also a fact change worth publishing.
	h := hostinfo.New("srv", netaddr.MustParseIP("10.9.1.1"), 1)
	u := h.AddSystemUser("httpd", "daemons")
	p := h.Exec(u, hostinfo.Executable{Path: "/usr/sbin/httpd", Name: "httpd"})
	d := New(h)
	five := flow.Five{
		SrcIP: netaddr.MustParseIP("10.9.1.2"), DstIP: h.IP,
		Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: 80,
	}
	resp := d.HandleQuery(wire.Query{Flow: five})
	if v, _ := resp.Latest(wire.KeyError); v != "NO-USER" {
		t.Fatalf("setup: expected NO-USER, got %v", resp.Keys())
	}
	c := newCollector()
	cancel := d.Subscribe(c.fn)
	defer cancel()

	if err := h.Listen(p.PID, netaddr.ProtoTCP, 80); err != nil {
		t.Fatal(err)
	}
	got := c.all()
	if len(got) != 2 {
		t.Fatalf("after Listen: updates = %+v", got)
	}
	if got[1].Flow != five {
		t.Errorf("update flow = %v, want %v", got[1].Flow, five)
	}
}

// TestServerPushesUpdatesOverTCP drives the full server path: subscribe,
// hello, interleaved query, then a host change pushed as an update frame.
func TestServerPushesUpdatesOverTCP(t *testing.T) {
	h, d, p, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if err := wire.WriteSubscribe(conn); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := wire.DecodeUpdateFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if !hello.Hello {
		t.Fatalf("first frame after subscribe = %+v, want hello", hello)
	}

	// A query on the same connection still round-trips.
	if err := wire.WriteQuery(conn, wire.Query{Flow: five, Keys: []string{wire.KeyUserID}}); err != nil {
		t.Fatal(err)
	}
	f, err = wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameResponse {
		t.Fatalf("expected response frame, got %#02x", f.Type)
	}

	// Mutate the host: the change must arrive as a pushed update frame.
	h.Kill(p.PID)
	f, err = wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	u, err := wire.DecodeUpdateFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if u.Flow != five {
		t.Errorf("pushed update flow = %v, want %v", u.Flow, five)
	}
	if u.Serial != hello.Serial+1 {
		t.Errorf("pushed serial = %d, want %d", u.Serial, hello.Serial+1)
	}
}

// TestServerUnsubscribedNeverPushed pins the back-compat contract: a
// connection that never subscribes sees only response frames, whatever the
// host does.
func TestServerUnsubscribedNeverPushed(t *testing.T) {
	h, d, p, five := pushHost(t)
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A second, subscribed connection proves updates are flowing at all.
	sub, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteSubscribe(sub); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(sub); err != nil { // hello
		t.Fatal(err)
	}

	legacy, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	legacy.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteQuery(legacy, wire.Query{Flow: five}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadResponse(legacy); err != nil {
		t.Fatal(err)
	}

	h.Kill(p.PID)
	if _, err := wire.ReadFrame(sub); err != nil { // the update, on the subscriber
		t.Fatal(err)
	}

	// The legacy connection gets exactly its response to a fresh query —
	// no update frame is interleaved ahead of it.
	if err := wire.WriteQuery(legacy, wire.Query{Flow: five}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameResponse {
		t.Fatalf("legacy connection received frame %#02x, want response only", f.Type)
	}
}

// TestChangesWhileUnsubscribedForceResync: facts changing while no one is
// subscribed cannot be published; the next Subscribe must advertise a
// serial that does not match what a previous subscriber last saw, so its
// transport synthesizes a resync instead of silently keeping stale grants.
func TestChangesWhileUnsubscribedForceResync(t *testing.T) {
	h, d, p, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})

	c1 := newCollector()
	cancel := d.Subscribe(c1.fn)
	before := c1.all()[0].Serial // hello

	// The subscriber goes away (connection lost), then the world changes.
	cancel()
	h.Kill(p.PID)

	// Resubscribe: the hello's serial must have moved past `before`.
	c2 := newCollector()
	cancel2 := d.Subscribe(c2.fn)
	defer cancel2()
	after := c2.all()[0].Serial
	if after == before {
		t.Fatalf("hello serial unchanged (%d) across an unsubscribed fact change: reconnecting controllers would never resync", after)
	}

	// Without any intervening change, resubscribing does not burn serials.
	cancel2()
	c3 := newCollector()
	cancel3 := d.Subscribe(c3.fn)
	defer cancel3()
	if got := c3.all()[0].Serial; got != after {
		t.Errorf("idle resubscribe moved the serial %d -> %d", after, got)
	}
}
