package core

import (
	"slices"
	"sync"

	"identxx/internal/netaddr"
	"identxx/internal/revoke"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// A destination that has yet to accept a connection is answered for by its
// listener (§3.5), and a daemon that resolved a flow that way says so: it
// gives the answer at the listener's scope (wire.Scope). The controller keeps
// such answers in a table keyed by (host, listener), and a later miss to that
// listener takes its destination answer from there instead of asking: one
// query, the source's, where the miss sent two.
//
// A held answer serves a decision only while it is known to be current:
//
//   - the host's daemon pushes updates (it said hello) and its update
//     stream is up right now (Standing.Streaming): a change made while the
//     connection is down reaches the controller only when a query
//     reconnects, and a held answer sends none;
//   - its generation is the host fence's current one (shard.go). Every
//     resync, key-scoped update, RevokeHost and update at a listener's scope
//     for the host bumps the fence, so each of them retires every answer
//     held for the host without a scan;
//   - the host is authorized and its credential, where one is enforced,
//     has not expired (Standing);
//   - it was asked with every key hint this flow's destination needs.
//
// An answer is stored only by a decision that passed its fence, with the
// generation that decision captured at claim: an update that landed since
// the claim leaves it dead on arrival. Every verdict that took a listener's
// answer, learned or held, stands on the listener fact (revoke.ListenerKey)
// beside its host marker and key facts, and the daemon's update at that
// scope resolves it.

// heldKey names one listener of one host.
type heldKey struct {
	host  netaddr.IP
	scope wire.Scope
}

// heldAnswer is a listener-scoped answer as the controller keeps it. Nothing
// in it is written after it is stored: the response, a copy of the one the
// transport lent, is read by every decision it serves and never pooled.
type heldAnswer struct {
	resp wire.Response
	keys []string // the destination key hints it was asked with
	fact string   // the listener fact's key
	gen  uint64   // the host fence's generation when its decision claimed
}

// heldCap bounds the table: a listener per entry, so a deployment's
// services, not its flows. Past it an arbitrary entry is evicted, and its
// listener's next miss asks again.
const heldCap = 4096

// heldTable is the controller's listener-scoped answers.
type heldTable struct {
	mu sync.Mutex
	m  map[heldKey]*heldAnswer
}

func (t *heldTable) get(k heldKey) *heldAnswer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.m[k]
}

func (t *heldTable) put(k heldKey, h *heldAnswer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[heldKey]*heldAnswer)
	}
	if _, ok := t.m[k]; !ok && len(t.m) >= heldCap {
		for victim := range t.m {
			delete(t.m, victim)
			break
		}
	}
	t.m[k] = h
}

// destinationKey is the table key of the listener s's flow is to.
func destinationKey(s *decisionScratch) heldKey {
	return heldKey{s.five.DstIP, wire.ListenerScope(s.five.Proto, s.five.DstPort)}
}

// heldFor returns the live held answer that can serve the destination end
// of the attempt's flow, nil when there is none. A flow between two sockets
// of one host is not a listener's: its daemon answers both ends from the
// connection.
func (c *Controller) heldFor(s *decisionScratch) *heldAnswer {
	if s.five.SrcIP == s.five.DstIP {
		return nil
	}
	h := c.held.get(destinationKey(s))
	if h == nil || h.gen != s.dstGen || !covers(h.keys, s.dstKeys) || !c.current(s.five.DstIP) {
		return nil
	}
	return h
}

// current reports whether what a held answer rests on still holds of host:
// its daemon pushes and its update stream is up, and its credential, where
// one is enforced, authorizes it and has not expired.
func (c *Controller) current(host netaddr.IP) bool {
	if !c.revoker.PushCapable(host) {
		return false
	}
	st := c.plane.Standing(host)
	return st.Authorized && st.Streaming && (st.Expiry.IsZero() || c.clock().Before(st.Expiry))
}

// covers reports whether every key in want is in have.
func covers(have, want []string) bool {
	for _, k := range want {
		if !slices.Contains(have, k) {
			return false
		}
	}
	return true
}

// useHeld completes the destination end of the attempt from h: no query, no
// RTT sample, a hit in the flight recorder.
func (c *Controller) useHeld(s *decisionScratch, h *heldAnswer) {
	g := &s.gather
	g.dst, g.dstFact = &h.resp, h.fact
	s.bd.DstHeld = true
	c.hot.scopeHits.Add(1)
	s.tb.Rec(trace.StageQueryDone, trace.FlagDst|trace.FlagHit, 0)
}

// learn keeps the destination answer the attempt got at its listener's
// scope. It runs once the attempt has passed its fence; the answer is stored
// under the generation the attempt claimed at, so an update since then
// leaves it dead. The listener fact is the attempt's to register whether or
// not the answer could be kept.
func (c *Controller) learn(s *decisionScratch) {
	g := &s.gather
	g.dstFact = revoke.ListenerKey(g.dst.Scope.Proto, g.dst.Scope.Port)
	if !c.current(s.five.DstIP) {
		return
	}
	c.held.put(destinationKey(s), &heldAnswer{resp: *g.dst, keys: slices.Clone(g.qd.Keys), fact: g.dstFact, gen: s.dstGen})
	c.hot.scopeLearned.Add(1)
}
