package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/revoke"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// listenerTransport is skypeFacts whose destination host answers every
// query at the flow's listener scope, as a daemon does for a flow its
// listener owns. onSrc, when set, runs after each source query is answered;
// streamDown says every host's update stream is down. With lend, a response
// is lent as a Pool's connection reader lends it: one wrapper per host,
// rewritten — here to poison — as soon as the completion returns.
type listenerTransport struct {
	*fakeTransport
	onSrc      func()
	streamDown bool
	lend       bool
	lent       map[netaddr.IP]*wire.Response
}

func (t *listenerTransport) QueryAsyncTraced(host netaddr.IP, q wire.Query, tb *trace.Buffer, ep uint16, done func(*wire.Response, time.Duration, error)) {
	plain{t}.QueryAsyncTraced(host, q, tb, ep, done)
}
func (t *listenerTransport) Standing(netaddr.IP) Standing {
	return Standing{Authorized: true, Streaming: !t.streamDown}
}

func (t *listenerTransport) Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error) {
	resp, rtt, err := t.fakeTransport.Query(host, q)
	if host == hostB && resp != nil {
		resp.Scope = wire.ListenerScope(q.Flow.Proto, q.Flow.DstPort)
	}
	if host == hostA && t.onSrc != nil {
		t.onSrc()
	}
	return resp, rtt, err
}

func (t *listenerTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	resp, rtt, err := t.Query(host, q)
	if !t.lend || resp == nil {
		done(resp, rtt, err)
		return
	}
	if t.lent == nil {
		t.lent = make(map[netaddr.IP]*wire.Response)
	}
	w := t.lent[host]
	if w == nil {
		w = new(wire.Response)
		t.lent[host] = w
	}
	*w = *resp
	done(w, rtt, err)
	*w = wire.Response{Sections: []wire.Section{{Pairs: []wire.KV{{Key: wire.KeyName, Value: "poison"}}}}}
}

func newListenerController(t *testing.T) (*Controller, *listenerTransport, *fakeDatapath) {
	t.Helper()
	tr := &listenerTransport{fakeTransport: skypeFacts()}
	dp := &fakeDatapath{id: 1}
	c := New(Config{
		Name:      "scope",
		Policy:    pf.MustCompile("scope", revPolicy),
		Transport: tr,
		Topology:  &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
	})
	c.AddDatapath(dp)
	return c, tr, dp
}

var listener5060 = wire.ListenerScope(netaddr.ProtoTCP, 5060)

// heldFacts is the facts of the answer held for hostB's listener on 5060,
// nil when none is.
func heldFacts(c *Controller) *wire.Response {
	h := c.held.get(heldKey{hostB, listener5060})
	if h == nil {
		return nil
	}
	return &h.resp
}

// TestHeldAnswerServesListener: a destination answered at its listener's
// scope serves the listener's next flows while its daemon pushes; not before
// the daemon said hello, not while its update stream is down, and not past an
// update that bumps its host's fence.
func TestHeldAnswerServesListener(t *testing.T) {
	t.Run("no hello", func(t *testing.T) {
		c, tr, _ := newListenerController(t)
		for i := 0; i < 3; i++ {
			c.HandleEvent(sampleEvent(revFlow(49000+i), 1))
		}
		checkCounters(t, c, map[string]int64{"flows_allowed": 3, "scope_hits": 0, "scope_learned": 0})
		if q := tr.queryCount(); q != 6 {
			t.Errorf("queries = %d, want 6", q)
		}
	})
	t.Run("stream down", func(t *testing.T) {
		c, tr, _ := newListenerController(t)
		c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
		c.HandleEvent(sampleEvent(revFlow(49000), 1))
		tr.streamDown = true
		c.HandleEvent(sampleEvent(revFlow(49001), 1))
		checkCounters(t, c, map[string]int64{"flows_allowed": 2, "scope_hits": 0})
		if q := tr.queryCount(); q != 4 {
			t.Errorf("queries = %d, want 4: no held answer while the stream is down", q)
		}
	})
	t.Run("pushing", func(t *testing.T) {
		c, tr, _ := newListenerController(t)
		c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
		for i := 0; i < 3; i++ {
			c.HandleEvent(sampleEvent(revFlow(49000+i), 1))
		}
		checkCounters(t, c, map[string]int64{"flows_allowed": 3, "scope_hits": 2, "scope_learned": 1})
		if q := tr.queryCount(); q != 4 {
			t.Errorf("queries = %d, want 4: both ends once, then the sources", q)
		}
		// Every verdict, learned or held, stands on the listener fact.
		if keys := c.revoker.Resolve(hostB, revoke.ListenerKey(netaddr.ProtoTCP, 5060), nil); len(keys) != 3 {
			t.Errorf("%d verdicts stand on the listener fact, want 3", len(keys))
		}
		// A key-scoped update bumps hostB's fence: the held answer is dead.
		c.HandleUpdate(hostB, wire.Update{Key: "name", Serial: 2})
		c.HandleEvent(sampleEvent(revFlow(49003), 1))
		if q := tr.queryCount(); q != 6 {
			t.Errorf("queries = %d after the fence moved, want 6", q)
		}
		// A flow to another port is another listener.
		other := revFlow(49004)
		other.DstPort = 5061
		c.HandleEvent(sampleEvent(other, 1))
		if q := tr.queryCount(); q != 8 {
			t.Errorf("queries = %d, want 8", q)
		}
	})
}

// credListener is listenerTransport on a credential-enforcing plane: the
// destination's standing is what the test sets, every other host's a
// verified session with no expiry.
type credListener struct {
	*listenerTransport
	mu  sync.Mutex
	dst Standing
}

func (t *credListener) Standing(host netaddr.IP) Standing {
	t.mu.Lock()
	defer t.mu.Unlock()
	if host != hostB {
		return Standing{Authorized: true, Streaming: true}
	}
	return t.dst
}

// TestHeldAnswerNeedsAStandingCredential: on a credential-enforcing plane a
// held answer serves only while its host is authorized and, by the
// controller's clock, its credential has not expired. After either lapse the
// listener's next flow asks its destination again, and no hit is counted.
func TestHeldAnswerNeedsAStandingCredential(t *testing.T) {
	start := time.Unix(1000, 0)
	expiry := start.Add(time.Minute)
	lapses := []struct {
		name  string
		lapse func(tr *credListener, now *time.Time)
	}{
		{"not authorized", func(tr *credListener, _ *time.Time) { tr.dst = Standing{Streaming: true} }},
		{"expired", func(_ *credListener, now *time.Time) { *now = expiry }},
	}
	for _, l := range lapses {
		t.Run(l.name, func(t *testing.T) {
			var mu sync.Mutex
			now := start
			tr := &credListener{
				listenerTransport: &listenerTransport{fakeTransport: skypeFacts()},
				dst:               Standing{Authorized: true, Streaming: true, Expiry: expiry},
			}
			c := New(Config{
				Name:      "scope-cred",
				Policy:    pf.MustCompile("scope-cred", revPolicy),
				Transport: tr,
				Topology:  &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}}},
				Clock:     func() time.Time { mu.Lock(); defer mu.Unlock(); return now },
			})
			c.AddDatapath(&fakeDatapath{id: 1})
			c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
			c.HandleEvent(sampleEvent(revFlow(49200), 1))
			c.HandleEvent(sampleEvent(revFlow(49201), 1))
			checkCounters(t, c, map[string]int64{"flows_allowed": 2, "scope_learned": 1, "scope_hits": 1})
			if q := tr.queryCount(); q != 3 {
				t.Fatalf("queries = %d, want 3: both ends, then the source", q)
			}

			mu.Lock()
			tr.mu.Lock()
			l.lapse(tr, &now)
			tr.mu.Unlock()
			mu.Unlock()
			c.HandleEvent(sampleEvent(revFlow(49202), 1))
			if got := c.Counters.Get("scope_hits"); got != 1 {
				t.Errorf("scope_hits = %d, want 1: a held answer served past the lapse", got)
			}
			if q := tr.queryCount(); q != 5 {
				t.Errorf("queries = %d, want 5: the destination asked again", q)
			}
		})
	}
}

// TestHeldAnswerOutlivesTheLentResponse: a transport lends a response for
// its completion only. The gather reads a copy, and the held listener answer
// is a copy of its own: it stays byte-identical while 1,000 later responses
// pass through the same host's wrapper, and every answer held meanwhile keeps
// serving its listener's flows.
func TestHeldAnswerOutlivesTheLentResponse(t *testing.T) {
	c, tr, _ := newListenerController(t)
	tr.lend = true
	c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
	c.HandleEvent(sampleEvent(revFlow(40000), 1))
	held := heldFacts(c)
	if held == nil {
		t.Fatal("no answer held for the listener")
	}
	want := string(wire.EncodeResponse(held))
	const later, listeners = 1000, 8
	for i := 1; i <= later+listeners; i++ { // every listener once, then its held answer
		f := revFlow(40000 + i)
		f.DstPort = 6000 + netaddr.Port(i%listeners)
		c.HandleEvent(sampleEvent(f, 1))
	}
	if got := string(wire.EncodeResponse(heldFacts(c))); got != want || heldFacts(c) != held {
		t.Fatalf("held answer is now %q, was %q", got, want)
	}
	c.HandleEvent(sampleEvent(revFlow(39999), 1))
	checkCounters(t, c, map[string]int64{
		"flows_allowed": later + listeners + 2, "scope_learned": listeners + 1, "scope_hits": later + 1,
	})
}

// TestHeldAnswerRacingScopeUpdate: an update at the listener's scope lands
// after a decision took the held answer and before it publishes. The attempt
// is fenced and re-decided on what the daemon says now, the verdict that
// stood on the old answer falls, and neither a record nor a held answer is
// left on it.
func TestHeldAnswerRacingScopeUpdate(t *testing.T) {
	c, tr, dp := newListenerController(t)
	c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
	warm := revFlow(49100)
	c.HandleEvent(sampleEvent(warm, 1))
	if heldFacts(c) == nil {
		t.Fatal("nothing held after the first decision")
	}

	raced := revFlow(49101)
	var once sync.Once
	tr.onSrc = func() {
		once.Do(func() {
			// The listener's owner exits and another executable binds the
			// port; its daemon says so at the listener's scope.
			tr.set(hostB, "name", "other")
			c.HandleUpdate(hostB, wire.Update{Scope: listener5060, Serial: 2})
		})
	}
	c.HandleEvent(sampleEvent(raced, 1))

	checkCounters(t, c, map[string]int64{
		"scope_hits": 1, "revocations_scope_updates": 1, "revocations_flows": 1,
		"revocations_inflight": 1, "revocations_redecided": 1,
		"flows_allowed": 1, "flows_denied": 1,
	})
	if q := tr.queryCount(); q != 5 {
		t.Errorf("queries = %d, want 5: the warm-up's two, the held attempt's one, the re-decision's two", q)
	}
	if v, _ := heldFacts(c).Latest("name"); v != "other" {
		t.Errorf("held answer says name=%q, want the new listener's", v)
	}
	keys := c.revoker.Resolve(hostB, revoke.ListenerKey(netaddr.ProtoTCP, 5060), nil)
	if len(keys) != 1 || keys[0].Flow != raced {
		t.Errorf("verdicts on the listener fact %v, want only the re-decided %v", keys, raced)
	}
	if live := livePasses(dp); len(live) != 0 {
		t.Errorf("pass entries %v outlived the update", live)
	}
}

// livePasses lists the flows whose pass entry dp was sent and not deleted.
func livePasses(dp *fakeDatapath) []flow.Five {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	live := map[flow.Five]bool{}
	for _, m := range dp.mods {
		five := m.Match.Tuple.Five()
		switch {
		case m.Delete:
			delete(live, five)
		case len(m.Actions) > 0 && m.Actions[0].Type == openflow.ActionOutput:
			live[five] = true
		}
	}
	var out []flow.Five
	for f := range live {
		out = append(out, f)
	}
	return out
}

// TestHeldAnswerConcurrentScopeUpdates: deciders race a daemon whose
// listener flips between passing and failing answers and says so at the
// listener's scope each time. Once the last update is handled and every
// decision is done, no pass verdict stands and nothing holds the old answer.
func TestHeldAnswerConcurrentScopeUpdates(t *testing.T) {
	const deciders, flowsEach, flips = 4, 60, 40
	c, tr, dp := newListenerController(t)
	c.HandleUpdate(hostB, wire.Update{Hello: true, Serial: 1})
	var wg sync.WaitGroup
	for g := 0; g < deciders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < flowsEach; i++ {
				c.HandleEvent(sampleEvent(revFlow(50000+g*flowsEach+i), 1))
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < flips; i++ {
			name := "skype"
			if i%2 == 1 || i == flips-1 {
				name = fmt.Sprintf("other%d", i)
			}
			tr.set(hostB, "name", name)
			c.HandleUpdate(hostB, wire.Update{Scope: listener5060, Serial: uint64(2 + i)})
		}
	}()
	wg.Wait()

	checkOutcomes(t, c, deciders*flowsEach)
	if live := livePasses(dp); len(live) != 0 {
		t.Errorf("%d pass entries outlived the last update, e.g. %v", len(live), live[0])
	}
	if h := c.held.get(heldKey{hostB, listener5060}); h != nil && h.gen == c.hosts.load(hostB) {
		if v, _ := h.resp.Latest("name"); v == "skype" {
			t.Error("a live held answer still says skype")
		}
	}
}
