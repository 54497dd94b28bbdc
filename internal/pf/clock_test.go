package pf

import (
	"fmt"
	"testing"
)

// TestRuleCacheClockRetainsHotEntries pins the CLOCK eviction contract:
// an attacker (or a buggy fleet) churning cold `requirements` strings
// through the embedded-rules memo cannot evict an entry that stays in
// active use. The previous map-iteration eviction picked victims
// arbitrarily, so sustained churn would eventually evict the hot entry
// and put a full parse+lower back on the decision path.
func TestRuleCacheClockRetainsHotEntries(t *testing.T) {
	p := MustCompile("t", `
block all
pass from any to any with allowed(@src[requirements])
`)
	f := tcp("1.1.1.1", 1, "2.2.2.2", 443)
	eval := func(req string) Decision {
		return evaluate(t, p, Input{Flow: f, Src: resp(f, "requirements", req)})
	}

	// Warm the clock past its first full revolution: when the cache first
	// overflows, every reference bit is set, so the hand's initial sweep
	// clears them all and evicts the ring's head regardless of hotness —
	// a one-time degeneracy inherent to CLOCK. The retention guarantee is
	// a steady-state property, so the hot entry is established after it.
	next := 0
	cold := func() string {
		next++
		return fmt.Sprintf("block all pass from any to any port %d", 1+next%60000)
	}
	for i := 0; i < maxRuleCacheEntries+100; i++ {
		eval(cold())
	}

	const hot = "block all pass from any to any port 443"
	if d := eval(hot); d.Action != Pass {
		t.Fatalf("hot requirements = %v, want pass", d.Action)
	}
	hotEntry, ok := p.ruleCache.Load(hot)
	if !ok {
		t.Fatal("hot entry not memoized")
	}

	// Churn three cache capacities of cold keys while touching the hot
	// entry often enough to count as "in use" (every 64th evaluation —
	// far sparser than the hand's revisit period).
	for i := 0; i < 3*maxRuleCacheEntries; i++ {
		eval(cold())
		if i%64 == 0 {
			eval(hot)
		}
	}

	cur, ok := p.ruleCache.Load(hot)
	if !ok {
		t.Fatal("hot entry evicted by cold churn")
	}
	if cur != hotEntry {
		t.Error("hot entry was evicted and re-admitted (reparsed) during churn")
	}
	entries, evictions := p.RuleCacheStats()
	if entries > maxRuleCacheEntries {
		t.Errorf("cache holds %d entries, cap is %d", entries, maxRuleCacheEntries)
	}
	if evictions == 0 {
		t.Error("expected cold-entry evictions during churn")
	}
	if d := eval(hot); d.Action != Pass {
		t.Errorf("post-churn hot evaluation = %v, want pass", d.Action)
	}
}
