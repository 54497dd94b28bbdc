package core

import (
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
// SweepLeases returns, every datapath on every torn flow's registered path
// has been handed both of that flow's deletes. The next packet of a
// torn-down flow punts, re-queries, and re-decides under current endpoint
// state; no controller restart, policy reload, or switch idle-timeout is
// involved.

// HandleUpdate consumes one daemon-pushed endpoint-state update for host.
// It is the intended sink for query.Engine.SetUpdateHandler and is safe
// for concurrent use. With revocation disabled it is a no-op.
//
// Scope resolution (see wire.Update): a hello marks the host push-capable
// (its facts need no lease); a flow-scoped update revokes that flow; a
// key-scoped update revokes every flow whose verdict read (host, key); a
// bare update is a resync and revokes everything depending on the host.
func (c *Controller) HandleUpdate(host netaddr.IP, u wire.Update) {
	if c.revoker == nil {
		return
	}
	if u.Hello {
		c.revoker.MarkPush(host)
		c.Counters.Add("revocations_hellos", 1)
		return
	}
	c.hot.revUpdates.Add(1)
	if u.FlowScoped() {
		// Revoke unconditionally rather than checking registration first:
		// even when no decision state exists yet, bumping the shard's
		// revocation sequence voids a decision in flight for this flow,
		// whose gathered responses predate the change.
		c.revokeResolved(u.Flow, "update:"+updateKeyLabel(u), false)
		return
	}
	if u.Resync() {
		c.Counters.Add("revocations_resyncs", 1)
	}
	c.revokeHostFact(host, u.Key, "update:"+updateKeyLabel(u))
}

func updateKeyLabel(u wire.Update) string {
	if u.Key != "" {
		return u.Key
	}
	if u.Resync() {
		return "resync"
	}
	return "flow"
}

// RevokeHost is the operator-initiated form (identctl revoke): it tears
// down every flow whose verdict depended on the named fact — or, with an
// empty key, on any fact — of host, and returns how many flows were torn
// down. It requires Config.Revocation.
func (c *Controller) RevokeHost(host netaddr.IP, key string) int {
	if c.revoker == nil {
		return 0
	}
	return c.revokeHostFact(host, key, "operator:"+host.String())
}

func (c *Controller) revokeHostFact(host netaddr.IP, key, reason string) int {
	flows := c.revoker.ResolveFact(host, key, nil)
	n := len(flows)
	if n > 0 {
		// The audit rule string is built once for the whole fan-in.
		st := c.state.Load()
		rule := "(revoked: " + reason + ")"
		for _, f := range flows {
			c.revokeFlow(st, f, reason, rule, false)
		}
	}
	if c.mega != nil {
		// Wide side: every cached verdict that read the fact and was not
		// already retired with its founder above goes too — one teardown
		// deletes the entries of every member of the class.
		st := c.state.Load()
		for _, id := range c.revoker.ResolveFactWide(host, key, nil) {
			if e := c.mega.get(id); e != nil && c.teardownMega(st, e, reason) {
				n++
			}
		}
	}
	return n
}

// SweepLeases tears down every flow whose lease has expired — the fallback
// revocation for hosts whose daemons never push. Callers own the cadence
// (identctl runs it on a ticker; the simulator in virtual time; tests
// directly): the controller spawns no goroutine of its own. Returns the
// number of flows torn down.
func (c *Controller) SweepLeases() int {
	if c.revoker == nil {
		return 0
	}
	expired := c.revoker.ExpiredLeases(c.clock(), nil)
	n := len(expired)
	if n > 0 {
		st := c.state.Load()
		for _, f := range expired {
			c.revokeFlow(st, f, "lease-expired", "(revoked: lease-expired)", false)
		}
		c.Counters.Add("revocations_lease_expired", int64(n))
	}
	if c.mega != nil {
		st := c.state.Load()
		wide := 0
		for _, id := range c.revoker.ExpiredWideLeases(c.clock(), nil) {
			if e := c.mega.get(id); e != nil && c.teardownMega(st, e, "lease-expired") {
				wide++
			}
		}
		if wide > 0 {
			c.Counters.Add("revocations_wide_lease_expired", int64(wide))
			n += wide
		}
	}
	return n
}

// revokeResolved tears one flow down. broadcast controls the no-
// registration fallback: RevokeFlow (which predates the index and promises
// "everywhere") deletes at every datapath when the flow is unknown, while
// update-driven teardown trusts the index — an unregistered flow has no
// entries to delete. broadcast also suppresses the audit record: RevokeFlow
// kept its pre-plane contract (counter only), whereas plane-driven
// teardowns are audited with their reason.
func (c *Controller) revokeResolved(five flow.Five, reason string, broadcast bool) {
	c.revokeFlow(c.state.Load(), five, reason, "(revoked: "+reason+")", broadcast)
}

// revokeFlow tears one flow down: sequence bump, covering-verdict teardown,
// dependency-index drop, switch deletes along the registered path, audit
// record. rule is the pre-decorated audit string ("(revoked: <reason>)"),
// built once by the caller so a fan-in tearing N flows does not concatenate
// it N times.
func (c *Controller) revokeFlow(st *ctlState, five flow.Five, reason, rule string, broadcast bool) {
	// Order matters: bump the sequence before probing the cache, so a
	// decision that read a cached verdict (or gathered responses) before
	// the bump cannot publish after the teardown without noticing.
	c.flows.shardFor(five).rev.Add(1)
	exactTorn, megaTorn := false, 0
	if c.mega != nil {
		// Every cached verdict covering this flow falls with it: the class
		// verdict may rest on the same facts this revocation invalidates (a
		// daemon flow-scoped update names a member, not the class), and the
		// member's installed entries carry the class cookie, unreachable
		// by the exact-cookie deletes below. Tearing the whole class down
		// is conservative and correct — members re-decide and re-widen.
		// The probe runs after the rev bump above, completing the install
		// handshake: an entry inserted before this probe is found here;
		// one inserted after will see the bump at its publication re-check
		// and tear itself down.
		for _, e := range c.mega.covering(five, nil) {
			if e.mask == pf.TraceAllFields {
				// The class is this one flow; its record is the flow's own.
				exactTorn = c.retireMega(st, e)
			} else if c.teardownMega(st, e, reason) {
				megaTorn++
			}
		}
	}
	var paths []uint64
	haveReg := false
	if c.revoker != nil {
		var reg revoke.Registration
		if reg, haveReg = c.revoker.Drop(five); haveReg {
			paths = reg.Paths
		}
	}
	if !haveReg && broadcast {
		for id := range st.datapaths {
			paths = append(paths, id)
		}
	}
	if !haveReg && !broadcast && !exactTorn {
		// Nothing known about this flow: no verdict of its own cached, no
		// registration. The sequence bump above still voids any in-flight
		// decision.
		if megaTorn == 0 {
			c.Counters.Add("revocations_noop", 1)
		}
		return
	}
	c.deleteFlowAt(st, five, paths)
	c.hot.revFlows.Add(1)
	if !broadcast {
		c.Audit.Record(AuditEntry{
			Time:    c.clock(),
			Flow:    five,
			Action:  pf.Block,
			Rule:    rule,
			Revoked: true,
		})
	}
}

// deleteFlowAt issues the flow's two cookie-scoped deletes (forward and
// reverse match) at every registered datapath in paths, in order, on the
// calling goroutine, and counts them in revocations_entries.
func (c *Controller) deleteFlowAt(st *ctlState, five flow.Five, paths []uint64) {
	fwd := openflow.FlowMod{Delete: true, Cookie: five.Hash() | 1, Match: flow.FiveMatch(five), BufferID: openflow.BufferNone}
	rev := fwd
	rev.Match = flow.FiveMatch(five.Reverse())
	issued := 0
	for _, id := range paths {
		dp := st.datapaths[id]
		if dp == nil {
			continue
		}
		c.apply(dp, fwd)
		c.apply(dp, rev)
		issued += 2
	}
	c.hot.revEntries.Add(int64(issued))
}

// registerDeps records the decision's fact dependencies in the index: the
// host-scope markers for both ends plus each key the verdict could have
// read at each end (the query hints — the compiled policy's per-flow
// static key analysis). Facts from hosts that have not proven they push
// updates carry a lease when leases are configured.
func (c *Controller) registerDeps(s *decisionScratch) {
	five := s.five
	g := &s.gather
	facts := make([]revoke.Fact, 0, 2+len(g.qs.Keys)+len(g.qd.Keys))
	facts = append(facts, revoke.Fact{Host: five.SrcIP}, revoke.Fact{Host: five.DstIP})
	for _, k := range g.qs.Keys {
		facts = append(facts, revoke.Fact{Host: five.SrcIP, Key: k})
	}
	for _, k := range g.qd.Keys {
		facts = append(facts, revoke.Fact{Host: five.DstIP, Key: k})
	}
	var lease time.Time
	if c.leaseTTL > 0 && (!c.revoker.PushCapable(five.SrcIP) || !c.revoker.PushCapable(five.DstIP)) {
		lease = c.clock().Add(c.leaseTTL)
	}
	if c.credTr != nil {
		// Expiry-as-lease: facts admitted under a credential are leased no
		// longer than that credential's remaining lifetime, so even if the
		// live lapse-resync were missed the lease sweep still tears the
		// flow down at expiry. A rotation refreshes subsequent decisions;
		// existing registrations keep the expiry they were admitted under.
		for _, h := range [2]netaddr.IP{five.SrcIP, five.DstIP} {
			if exp, ok := c.credTr.CredentialExpiry(h); ok && (lease.IsZero() || exp.Before(lease)) {
				lease = exp
			}
		}
	}
	c.revoker.Register(revoke.Registration{
		Flow:  five,
		Facts: facts,
		Paths: append([]uint64(nil), s.pathIDs...),
		Lease: lease,
	})
}

// RevocationIndexStats exposes the index's occupancy for operators and
// tests: live registrations plus lifetime register/drop totals. Zeros when
// revocation is disabled.
func (c *Controller) RevocationIndexStats() (live int, registered, dropped int64) {
	if c.revoker == nil {
		return 0, 0, 0
	}
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
