package core

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/revoke"
	"identxx/internal/wire"
)

// This file is the controller half of the revocation plane: endpoint-state
// updates pushed by daemons (or synthesized by the transport on serial
// gaps) resolve through the fact-dependency index to the exact flows whose
// verdicts depended on the changed facts, and each is torn down live —
// cached verdict retired, flow-table entries deleted along the full
// installed path, audit record emitted. The deletes are issued in turn on
// the goroutine that called in: when HandleUpdate, RevokeHost or
// SweepLeases returns, every datapath on every torn verdict's recorded
// path has been handed all of that verdict's deletes. The next packet of a
// torn-down flow punts, re-queries, and re-decides under current endpoint
// state; no controller restart, policy reload, or switch idle-timeout is
// involved.

// HandleUpdate consumes one daemon-pushed endpoint-state update for host.
// query.Engine.Controller installs it as the engine's update sink; it is
// safe for concurrent use.
//
// Scope resolution (see wire.Update): a hello marks the host push-capable
// (its facts need no lease); a flow-scoped update revokes that flow; an
// update at a listener's scope revokes every verdict that took the host's
// answer at that scope (its listener fact); a key-scoped update revokes
// every flow whose verdict read (host, key); a bare update is a resync and
// revokes everything depending on the host. All but the flow-scoped kind
// bump the host fence first, which also retires every answer held for the
// host (scope.go).
func (c *Controller) HandleUpdate(host netaddr.IP, u wire.Update) {
	if u.Hello {
		c.revoker.MarkPush(host)
		c.Counters.Add("revocations_hellos", 1)
		return
	}
	c.hot.revUpdates.Add(1)
	lbl := c.updateLabels.of(u)
	if u.Scope.Listener() {
		c.Counters.Add("revocations_scope_updates", 1)
		c.revokeHost(host, revoke.ListenerKey(u.Scope.Proto, u.Scope.Port), lbl)
		return
	}
	if u.FlowScoped() {
		// Revoke unconditionally rather than checking registration first:
		// even when no decision state exists yet, the flow fence voids a
		// decision in flight for this flow, whose gathered responses predate
		// the change. Nothing else is fenced: the update names one flow.
		c.revokeResolved(u.Flow, lbl)
		return
	}
	if u.Resync() {
		c.Counters.Add("revocations_resyncs", 1)
	}
	c.revokeHost(host, u.Key, lbl)
}

// teardownLabel is what a teardown writes in the audit trail: the rule of a
// revoked flow's record, "(revoked: <reason>)", and of a revoked class's,
// "(megaflow revoked: <reason>)". One is built per reason, not per verdict.
type teardownLabel struct {
	flowRule, classRule string
}

func newTeardownLabel(reason string) *teardownLabel {
	return &teardownLabel{flowRule: "(revoked: " + reason + ")", classRule: "(megaflow revoked: " + reason + ")"}
}

var (
	leaseExpiredLabel  = newTeardownLabel("lease-expired")
	racedDecisionLabel = newTeardownLabel("raced-decision")
)

// maxUpdateLabels bounds the labels an updateLabels holds. A daemon names a
// handful of fact keys; a label past the bound is built for its update.
const maxUpdateLabels = 256

// updateLabels holds the teardown label of each kind of update seen, reason
// "update:<key>" — "update:resync" for a resync, "update:flow" for a flow-
// scoped update that names no key, "update:listener <proto>/<port>" at a
// listener's scope — so that an update builds no string, whether it tears
// anything down or not. Lookups take no lock: a new label replaces the map
// with a copy holding it.
type updateLabels struct {
	mu     sync.Mutex
	labels atomic.Pointer[map[updateLabelKey]*teardownLabel]
}

type updateLabelKey struct {
	key   string
	scope wire.Scope
}

// of returns the teardown label of u.
func (l *updateLabels) of(u wire.Update) *teardownLabel {
	k := updateLabelKey{scope: u.Scope}
	switch {
	case u.Scope.Listener():
	case u.Key != "":
		k.key = u.Key
	case u.Resync():
		k.key = "resync"
	default:
		k.key = "flow"
	}
	if m := l.labels.Load(); m != nil {
		if lbl, ok := (*m)[k]; ok {
			return lbl
		}
	}
	reason := "update:" + k.key
	if k.scope.Listener() {
		reason = "update:" + k.scope.String()
	}
	lbl := newTeardownLabel(reason)
	l.mu.Lock()
	defer l.mu.Unlock()
	var old map[updateLabelKey]*teardownLabel
	if m := l.labels.Load(); m != nil {
		old = *m
	}
	if held, ok := old[k]; ok {
		return held
	}
	if len(old) < maxUpdateLabels {
		m := make(map[updateLabelKey]*teardownLabel, len(old)+1)
		maps.Copy(m, old)
		m[k] = lbl
		l.labels.Store(&m)
	}
	return lbl
}

// RevokeHost is the operator-initiated form (identctl revoke): it tears
// down every flow whose verdict depended on the named fact — or, with an
// empty key, on any fact — of host, and returns how many flows were torn
// down.
func (c *Controller) RevokeHost(host netaddr.IP, key string) int {
	n, _ := c.revokeHost(host, key, newTeardownLabel("operator:"+host.String()))
	return n
}

// revokeHost tears down what depends on a fact of host (any fact, with an
// empty key). The host fence moves first, before the index is resolved: a
// decision in flight with host at either end has not registered yet, so the
// resolve cannot find it, and it must not publish what it gathered; and no
// answer held for the host serves a decision again.
func (c *Controller) revokeHost(host netaddr.IP, key string, lbl *teardownLabel) (n, classes int) {
	c.hosts.bump(host)
	return c.revokeKeys(c.revoker.Resolve(host, key, nil), lbl)
}

// SweepLeases tears down every verdict whose lease has expired — the
// fallback revocation for hosts whose daemons never push. Callers own the
// cadence (identctl runs it on a ticker; the simulator in virtual time;
// tests directly): the controller spawns no goroutine of its own. Returns
// the number of verdicts torn down.
func (c *Controller) SweepLeases() int {
	n, classes := c.revokeKeys(c.revoker.Expired(c.clock(), nil), leaseExpiredLabel)
	c.Counters.Add("revocations_lease_expired", int64(n-classes))
	c.Counters.Add("revocations_wide_lease_expired", int64(classes))
	return n
}

// revokeKeys tears down what one resolve of the index returned — flow
// records and class records alike, each verdict having exactly one — under
// one configuration snapshot. It reports how many verdicts fell, and how
// many of those were classes.
func (c *Controller) revokeKeys(keys []revoke.Key, lbl *teardownLabel) (n, classes int) {
	if len(keys) == 0 {
		return 0, 0
	}
	st := c.state.Load()
	for _, k := range keys {
		if k.Class == 0 {
			c.revokeFlow(st, k.Flow, lbl)
			n++
		} else if e := c.mega.get(k.Class); e != nil {
			// The founder is fenced as a revoked flow is: its re-decision in
			// flight on facts gathered before this voids itself instead of
			// re-founding the class on them. A member in flight is a hit,
			// which the dead entry's addPaths refusal settles.
			c.flows.shardFor(e.founder).void(e.founder)
			// One teardown deletes the entries of every member of the class.
			if c.teardownMega(st, e, lbl) {
				n++
				classes++
			}
		}
	}
	return n, classes
}

// revokeResolved tears one flow down on the current configuration.
func (c *Controller) revokeResolved(five flow.Five, lbl *teardownLabel) {
	c.revokeFlow(c.state.Load(), five, lbl)
}

// revokeFlow tears one flow down: flow fence, covering-verdict teardown,
// dependency-record drop, switch deletes along the registered path, audit
// record. A flow whose verdict is cached has no record of its own: the
// covering class's teardown is its teardown, reported by the class's audit
// record. A flow with neither a covering class nor a record has no entries
// to delete — the index is trusted — and only its fence trips. lbl names
// the teardown in the audit trail.
func (c *Controller) revokeFlow(st *ctlState, five flow.Five, lbl *teardownLabel) {
	// Order matters: trip the flow's fence before probing the cache, so a
	// decision that read a cached verdict (or gathered responses) before
	// this cannot publish after the teardown without noticing.
	c.flows.shardFor(five).void(five)
	classFell := false
	if c.mega != nil {
		// Every cached verdict covering this flow falls with it: the class
		// verdict may rest on the same facts this revocation invalidates (a
		// daemon flow-scoped update names a member, not the class), and the
		// flow's installed entries carry the class cookie, reachable only
		// through the class. Tearing the whole class down is conservative
		// and correct — members re-decide and re-found it. The probe runs
		// after the fence above, completing the install handshake: an
		// entry inserted before this probe is found here; one inserted
		// after will see the fence at its publication re-check and tear
		// itself down.
		var buf [4]*megaEntry // a flow is covered by one class per mask in use
		for _, e := range c.mega.covering(five, buf[:0]) {
			if c.teardownMega(st, e, lbl) {
				classFell = true
			}
		}
	}
	reg, ok := c.revoker.Drop(five)
	if !ok {
		// No record of its own: a class's teardown above was this flow's,
		// and reached everything installed for it. With no class either,
		// nothing is known about the flow — the fence above still voids
		// its in-flight decision.
		if !classFell {
			c.hot.revNoop.Add(1)
		}
		return
	}
	c.deleteFlowAt(st, five, reg.Paths)
	c.hot.revFlows.Add(1)
	c.auditRevoked(five, &lbl.flowRule)
}

// auditRevoked records a teardown under rule, a label's text, which the
// audit ring keeps by pointer.
func (c *Controller) auditRevoked(five flow.Five, rule *string) {
	c.Audit.record(AuditEntry{Time: c.clock(), Flow: five, Action: pf.Block, Rule: *rule, Revoked: true}, rule)
}

// deleteFlowAt issues the flow's two cookie-scoped deletes (forward and
// reverse match) along paths and counts them in revocations_entries. At a
// datapath in evicted the forward entry is already gone, and only the
// reverse delete goes there.
func (c *Controller) deleteFlowAt(st *ctlState, five flow.Five, paths []uint64, evicted ...uint64) {
	fwd := openflow.FlowMod{Delete: true, Cookie: c.cookies.flow(five), CookieMask: ^uint64(0), Match: flow.FiveMatch(five), BufferID: openflow.BufferNone}
	rev := fwd
	rev.Match = flow.FiveMatch(five.Reverse())
	mods := [2]openflow.FlowMod{fwd, rev}
	issued := 0
	for i, id := range paths {
		at := mods[:]
		if slices.Contains(evicted, id) {
			at = mods[1:]
		}
		issued += c.applyAt(st, paths[i:i+1], at...)
	}
	c.hot.revEntries.Add(int64(issued))
}

// deleteMegaAt deletes a class's installed entries along paths: by the
// class's cookie under an all-fields wildcard, one delete mod per datapath
// covers every member tuple.
func (c *Controller) deleteMegaAt(st *ctlState, e *megaEntry, paths []uint64) {
	c.applyAt(st, paths, openflow.FlowMod{Delete: true, Cookie: c.cookies.class(e.id), CookieMask: ^uint64(0), Match: flow.MatchAll(), BufferID: openflow.BufferNone})
}

// applyAt applies mods at every registered datapath in paths, in order, on
// the calling goroutine, and returns how many mods that was.
func (c *Controller) applyAt(st *ctlState, paths []uint64, mods ...openflow.FlowMod) (issued int) {
	for _, id := range paths {
		if dp := st.datapaths[id]; dp != nil {
			for _, m := range mods {
				c.apply(dp, m)
			}
			issued += len(mods)
		}
	}
	return issued
}

// registerDeps records an uncached verdict's dependencies under its flow,
// with the datapaths its entries went to. Nothing says which ends an
// untraced evaluation read, so both count.
func (c *Controller) registerDeps(s *decisionScratch) {
	reg := c.deps(s, true, true)
	reg.Flow = s.five
	reg.Paths = s.pathIDs
	c.revoker.Register(reg)
}

// deps builds what a flow record and a class record share: per end the
// verdict read, the host-scope marker plus each key it could have read there
// (the query hints — the compiled policy's per-flow static key analysis),
// the listener fact when the destination's answer was a listener's, and the
// earliest lease any read end imposes: RevocationLeaseTTL from now for a
// host that has not proven it pushes updates and, on a credential-enforcing
// plane, the expiry of the credential its facts were admitted under
// (Standing.Expiry) — if the live lapse-resync is missed, the lease sweep
// still tears the verdict down at expiry. Records keep the expiry they were
// admitted under; a rotation refreshes subsequent decisions. The facts are built in
// the scratch's buffer: Register keeps none of the registration's slices.
func (c *Controller) deps(s *decisionScratch, srcRead, dstRead bool) revoke.Registration {
	g := &s.gather
	reg := revoke.Registration{Facts: s.facts[:0]}
	end := func(host netaddr.IP, keys []string) {
		reg.Facts = append(reg.Facts, revoke.Fact{Host: host})
		for _, k := range keys {
			reg.Facts = append(reg.Facts, revoke.Fact{Host: host, Key: k})
		}
		if c.leaseTTL > 0 && !c.revoker.PushCapable(host) {
			reg.Lease = earlier(reg.Lease, c.clock().Add(c.leaseTTL))
		}
		reg.Lease = earlier(reg.Lease, c.plane.Standing(host).Expiry)
	}
	if srcRead {
		end(s.five.SrcIP, g.qs.Keys)
	}
	if dstRead {
		end(s.five.DstIP, g.qd.Keys)
		if g.dstFact != "" {
			reg.Facts = append(reg.Facts, revoke.Fact{Host: s.five.DstIP, Key: g.dstFact})
		}
	}
	s.facts = reg.Facts
	return reg
}

// earlier returns the earlier of two lease deadlines, zero meaning none.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || (!b.IsZero() && b.Before(a)) {
		return b
	}
	return a
}

// RevocationIndexStats exposes the index's occupancy for operators and
// tests: live registrations plus lifetime register/drop totals.
func (c *Controller) RevocationIndexStats() (live int, registered, dropped int64) {
	return c.revoker.Stats()
}

// appendPathID appends id if absent (paths are short; linear scan wins).
func appendPathID(ids []uint64, id uint64) []uint64 {
	for _, x := range ids {
		if x == id {
			return ids
		}
	}
	return append(ids, id)
}
