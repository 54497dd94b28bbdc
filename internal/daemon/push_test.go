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
	"identxx/internal/query"
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

// TestAnsweredMemoBoundedAndEvictionPublished asks about more flows, or more
// listeners, than the memo holds: the memo stays within DefaultAnsweredCap
// and each eviction is published as the evicted entry's lapse.
func TestAnsweredMemoBoundedAndEvictionPublished(t *testing.T) {
	for _, tc := range []struct {
		name string
		// ask answers the i-th distinct query of the kind; want is the
		// scope it must be answered at.
		ask func(t *testing.T, h *hostinfo.Host, p *hostinfo.Process, i int) (q wire.Query, want wire.Scope)
		// lapse reports whether u is the lapse of an entry the test asked
		// about.
		lapse func(u wire.Update) bool
	}{
		{
			name: "flows",
			ask: func(t *testing.T, h *hostinfo.Host, p *hostinfo.Process, i int) (wire.Query, wire.Scope) {
				f, err := h.Connect(p.PID, flow.Five{
					DstIP: netaddr.MustParseIP("10.9.0.2"), Proto: netaddr.ProtoTCP,
					SrcPort: netaddr.Port(20000 + i), DstPort: 80,
				})
				if err != nil {
					t.Fatal(err)
				}
				return wire.Query{Flow: f}, wire.Scope{}
			},
			// A flow-scoped update with no key.
			lapse: func(u wire.Update) bool { return u.FlowScoped() && u.Key == "" },
		},
		{
			name: "listeners",
			ask: func(t *testing.T, h *hostinfo.Host, p *hostinfo.Process, i int) (wire.Query, wire.Scope) {
				port := netaddr.Port(20000 + i)
				if err := h.Listen(p.PID, netaddr.ProtoTCP, port); err != nil {
					t.Fatal(err)
				}
				f := flow.Five{SrcIP: netaddr.MustParseIP("10.9.0.2"), DstIP: h.IP, Proto: netaddr.ProtoTCP, SrcPort: 40000, DstPort: port}
				return wire.Query{Flow: f}, wire.ListenerScope(netaddr.ProtoTCP, port)
			},
			// An update at a scope the test was answered at, and nothing more.
			lapse: func(u wire.Update) bool {
				return u.Scope.Listener() && u.Scope.Port >= 20000 && !u.FlowScoped() && u.Key == ""
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, d, p, _ := pushHost(t)
			c := newCollector()
			cancel := d.Subscribe(c.fn)
			defer cancel()

			for i := 0; i < DefaultAnsweredCap+4; i++ {
				q, want := tc.ask(t, h, p, i)
				if got := d.HandleQuery(q).Scope; got != want {
					t.Fatalf("query %d answered at %v, want %v", i, got, want)
				}
				if entries, _ := d.AnsweredStats(); entries > DefaultAnsweredCap {
					t.Fatalf("after query %d the memo holds %d entries, cap is %d", i, entries, DefaultAnsweredCap)
				}
			}
			if _, evictions := d.AnsweredStats(); evictions != 4 {
				t.Errorf("evictions = %d, want 4", evictions)
			}
			lapses := 0
			for _, u := range c.all() {
				if !u.Hello && tc.lapse(u) {
					lapses++
				}
			}
			if lapses != 4 {
				t.Errorf("eviction updates = %d, want 4", lapses)
			}
		})
	}
}

func TestDynamicFlowPairsBounded(t *testing.T) {
	_, d, _, _ := pushHost(t)
	for i := 0; i < DefaultDynamicCap+6; i++ {
		f := flow.Five{
			SrcIP: netaddr.MustParseIP("10.9.0.1"), DstIP: netaddr.MustParseIP("10.9.0.2"),
			Proto: netaddr.ProtoTCP, SrcPort: netaddr.Port(30000 + i), DstPort: 80,
		}
		d.ProvideFlowPairs(f, wire.KV{Key: "k", Value: "v"})
	}
	entries, evictions := d.FlowPairStats()
	if entries > DefaultDynamicCap {
		t.Errorf("dynamic map holds %d entries, cap is %d", entries, DefaultDynamicCap)
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

// TestListenElsewherePublishesNothing: a listener bound on a port no answer
// was given for changes no answer — nothing is published and the
// per-process answers survive it (a bind used to be a host-wide change that
// dropped them all and rescanned the whole memo).
func TestListenElsewherePublishesNothing(t *testing.T) {
	h, d, p, five := pushHost(t)
	d.HandleQuery(wire.Query{Flow: five})
	d.mu.RLock()
	before := d.procAnswers[p]
	d.mu.RUnlock()
	if before == nil {
		t.Fatal("no per-process answer after the query")
	}
	col := newCollector()
	cancel := d.Subscribe(col.fn)
	defer cancel()

	u, _ := h.UserByName("alice")
	sshd := h.Exec(u, hostinfo.Executable{Path: "/usr/sbin/sshd", Name: "sshd"})
	if err := h.Listen(sshd.PID, netaddr.ProtoTCP, 2222); err != nil {
		t.Fatal(err)
	}
	if got := col.all(); len(got) != 1 {
		t.Errorf("updates %+v, want the hello only", got)
	}
	d.mu.RLock()
	after := d.procAnswers[p]
	d.mu.RUnlock()
	if after != before {
		t.Error("the bind dropped the per-process answers")
	}
}

// TestListenerUpdateComesFirst holds a listener scope and two flows to the
// listener remembered at flow scope, then changes the listener's answer,
// through the listener (its owner exits) and host-wide (a patch): whichever
// walk finds them, the update at the scope is published before the updates
// for the flows to it.
func TestListenerUpdateComesFirst(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(w *world)
	}{
		{"owner exits", func(w *world) { w.h.Kill(w.p.PID) }},
		{"patch", func(w *world) { w.h.InstallPatch("KB-1") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newListenerWorld(t)
			scope := wire.ListenerScope(w.five.Proto, w.five.DstPort)
			a, b := w.five, w.five
			a.SrcPort, b.SrcPort = 40001, 40002
			// b's pairs narrow the listener: both flows are answered, and
			// remembered, at flow scope.
			w.providePairs(b, wire.KV{Key: "k", Value: "v"})
			for _, f := range []flow.Five{a, b} {
				if s := w.d.HandleQuery(wire.Query{Flow: f}).Scope; s.Listener() {
					t.Fatalf("narrowed flow %v answered at %v", f, s)
				}
			}
			// With the pairs gone, the listener's next flow is answered at
			// its scope.
			w.clearPairs(b)
			if s := w.d.HandleQuery(wire.Query{Flow: w.five}).Scope; s != scope {
				t.Fatalf("answered at %v, want %v", s, scope)
			}
			c := newCollector()
			cancel := w.d.Subscribe(c.fn)
			defer cancel()

			tc.change(w)
			got := c.all()[1:]
			if len(got) != 3 {
				t.Fatalf("updates = %+v, want the scope's and one per flow", got)
			}
			if got[0] != (wire.Update{Scope: scope, Serial: got[0].Serial}) {
				t.Errorf("first update = %+v, want the lapse of %v", got[0], scope)
			}
			for _, u := range got[1:] {
				if (u.Flow != a && u.Flow != b) || u.Key == "" {
					t.Errorf("update = %+v, want a changed key of a flow to the listener", u)
				}
			}
		})
	}
}

// TestProcessExitReachesAPoolSubscriberInOrder drives a process exit over 64
// memoized flows through a real daemon.Server into a real query.Pool
// subscriber: 64 updates, serials consecutive from the hello, no resync; the
// revival's 64 connects follow behind them in the order they were made.
func TestProcessExitReachesAPoolSubscriberInOrder(t *testing.T) {
	const flows = 64
	h := hostinfo.New("pc", netaddr.MustParseIP("10.9.0.1"), 1)
	alice := h.AddUser("alice", "staff")
	skype := hostinfo.Executable{Path: "/usr/bin/skype", Name: "skype", Version: "210"}
	p := h.Exec(alice, skype)
	d := New(h)
	srv := NewServer(d)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := query.NewPool(query.PoolConfig{Resolver: query.FixedResolver(addr.String())})
	defer pool.Close()
	got := make(chan wire.Update, 2*flows+2)
	pool.SetUpdateHandler(func(_ netaddr.IP, u wire.Update) { got <- u })

	var fives []flow.Five
	for range flows {
		five, err := h.Connect(p.PID, flow.Five{DstIP: netaddr.MustParseIP("10.9.0.2"), Proto: netaddr.ProtoTCP, DstPort: 5060})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := pool.Query(h.IP, wire.Query{Flow: five}); err != nil {
			t.Fatal(err)
		}
		fives = append(fives, five)
	}
	next := func() wire.Update {
		t.Helper()
		select {
		case u := <-got:
			return u
		case <-time.After(5 * time.Second):
			t.Fatal("an update the daemon published never reached the pool")
			return wire.Update{}
		}
	}
	hello := next()
	if !hello.Hello {
		t.Fatalf("first update %+v, want the hello", hello)
	}

	h.Kill(p.PID)
	revived := h.Exec(alice, skype)
	for _, five := range fives {
		if _, err := h.Connect(revived.PID, five); err != nil {
			t.Fatal(err)
		}
	}
	exited := map[flow.Five]bool{}
	for i := range 2 * flows {
		u := next()
		if u.Serial != hello.Serial+uint64(i)+1 || u.Hello || u.Key == "" {
			t.Fatalf("update %d: %+v, want serial %d naming a changed key", i, u, hello.Serial+uint64(i)+1)
		}
		if i < flows {
			exited[u.Flow] = true
		} else if want := fives[i-flows]; u.Flow != want {
			t.Fatalf("revival update %d names %v, want %v: the connects' order", i-flows, u.Flow, want)
		}
	}
	if len(exited) != flows {
		t.Errorf("the exit's %d updates named %d distinct flows", flows, len(exited))
	}
	for _, f := range fives {
		if !exited[f] {
			t.Errorf("the exit published nothing for %v", f)
		}
	}
	if n := pool.Counters.Get("pool_update_resyncs"); n != 0 {
		t.Errorf("%d resyncs, want none", n)
	}
}
