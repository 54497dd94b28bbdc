package core

import (
	"testing"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/wire"
)

// These tests pin the response-view lifecycle: the verdict cache keeps
// verdicts, not responses, so every controller-built (pooled) answer-on-
// behalf view goes back to the pf pool when the decision that built it
// finishes — whatever later happens to the verdict it produced, and
// whether or not that verdict was cached at all. The seed's response cache
// leaked views on three eviction paths; pf.ResponseViewStats is the
// regression oracle.

func viewDelta(t *testing.T, f func()) (acquired, released int64) {
	t.Helper()
	a0, r0 := pf.ResponseViewStats()
	f()
	a1, r1 := pf.ResponseViewStats()
	return a1 - a0, r1 - r0
}

// newViewController answers for both (daemon-less) ends itself, so every
// full decision builds two pooled views.
func newViewController(cacheTTL time.Duration, clock func() time.Time) *Controller {
	c := New(Config{
		Name:             "leak",
		Policy:           pf.MustCompile("leak", revPolicy),
		Transport:        &fakeTransport{responses: map[netaddr.IP]map[string]string{}}, // no daemons anywhere
		Topology:         &fakeTopo{hops: []Hop{{Datapath: 1, OutPort: 2}, {Datapath: 2, OutPort: 3}}},
		ResponseCacheTTL: cacheTTL,
		Shards:           1,
		Clock:            clock,
	})
	c.AddDatapath(&fakeDatapath{id: 1})
	c.AddDatapath(&fakeDatapath{id: 2})
	c.AnswerForHost(hostA, wire.KV{Key: "name", Value: "skype"})
	c.AnswerForHost(hostB, wire.KV{Key: "name", Value: "skype"})
	return c
}

// TestShardEvictionReleasesViews: one subtest per way a cached verdict
// leaves its table shard. In each, the decisions' views are all home
// before the eviction and the eviction has none to release.
func TestShardEvictionReleasesViews(t *testing.T) {
	const ttl = time.Minute
	fc := &fakeClock{now: time.Unix(1000, 0)}
	cases := []struct {
		name      string
		decisions int64 // full decisions run, two built views each
		retired   int64 // entries counted out of the table (a flush counts none)
		evict     func(c *Controller)
	}{
		{"drop", 2, 2, func(c *Controller) {
			pushFlowUpdate(c, revFlow(40000))
			c.HandleFlowRemoved(openflow.FlowRemoved{Match: flow.FiveMatch(revFlow(40001))})
		}},
		{"overwrite", 3, 2, func(c *Controller) {
			// The same flow decided again past its TTL displaces its own
			// expired entry.
			fc.Advance(2 * ttl)
			c.HandleEvent(sampleEvent(revFlow(40000), 1))
		}},
		{"sweep", 3, 2, func(c *Controller) {
			// Another flow's insert one TTL later runs the shard's
			// opportunistic sweep over both expired entries.
			fc.Advance(2 * ttl)
			c.HandleEvent(sampleEvent(revFlow(40002), 1))
		}},
		{"flushAll", 2, 0, func(c *Controller) {
			c.SetPolicy(pf.MustCompile("leak2", revPolicy))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newViewController(ttl, fc.Now)
			acq, rel := viewDelta(t, func() {
				c.HandleEvent(sampleEvent(revFlow(40000), 1))
				c.HandleEvent(sampleEvent(revFlow(40001), 1))
				if cachedVerdicts(c) != 2 {
					t.Fatalf("setup: cached = %d, want 2", cachedVerdicts(c))
				}
				tc.evict(c)
			})
			if acq != 2*tc.decisions || rel != acq {
				t.Errorf("acquired=%d released=%d, want %d/%d", acq, rel, 2*tc.decisions, 2*tc.decisions)
			}
			_, _, _, teardowns := c.MegaflowStats()
			if gone := teardowns + c.Counters.Get("megaflow_expired"); gone != tc.retired {
				t.Errorf("%d entries retired or expired, want %d", gone, tc.retired)
			}
		})
	}
}

// TestControllerEvictionReleasesBuiltViews is the pool-balance check over
// the real decision path: answer-on-behalf views acquired == released
// after cached decisions, hits on them (which build nothing), uncached
// decisions (no cache configured), per-flow revocation and a policy swap.
func TestControllerEvictionReleasesBuiltViews(t *testing.T) {
	cached := newViewController(time.Hour, nil)
	uncached := newViewController(0, nil)

	const n = 8
	acq, rel := viewDelta(t, func() {
		for round := 0; round < 2; round++ { // second round: hits / re-decisions
			for i := 0; i < n; i++ {
				cached.HandleEvent(sampleEvent(revFlow(40000+i), 1))
				uncached.HandleEvent(sampleEvent(revFlow(40000+i), 1))
			}
		}
		// Half the cached flows leave through per-flow revocation…
		for i := 0; i < n/2; i++ {
			pushFlowUpdate(cached, revFlow(40000+i))
		}
		// …the rest through the policy-swap flush.
		cached.SetPolicy(pf.MustCompile("leak2", revPolicy))
	})
	if hits := cached.Counters.Get("megaflow_hits"); hits != n {
		t.Fatalf("cached controller served %d hits, want %d", hits, n)
	}
	// n cached misses + 2n uncached decisions, two views each; hits none.
	if want := int64(2 * 3 * n); acq != want {
		t.Fatalf("acquired %d views, want %d (answer-on-behalf path not exercised as planned)", acq, want)
	}
	if acq != rel {
		t.Fatalf("view leak: acquired %d, released %d", acq, rel)
	}
}
