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
// SweepLeases returns, every datapath on every torn verdict's recorded
// path has been handed all of that verdict's deletes. The next packet of a
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
		// even when no decision state exists yet, the flow fence voids a
		// decision in flight for this flow, whose gathered responses predate
		// the change. Nothing else is fenced: the update names one flow.
		c.revokeResolved(u.Flow, "update:"+updateKeyLabel(u))
		return
	}
	if u.Resync() {
		c.Counters.Add("revocations_resyncs", 1)
	}
	c.revokeHost(host, u.Key, "update:"+updateKeyLabel(u))
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
	n, _ := c.revokeHost(host, key, "operator:"+host.String())
	return n
}

// revokeHost tears down what depends on a fact of host (any fact, with an
// empty key). The host fence moves first, before the index is resolved: a
// decision in flight with host at either end has not registered yet, so the
// resolve cannot find it, and it must not publish what it gathered.
func (c *Controller) revokeHost(host netaddr.IP, key, reason string) (n, classes int) {
	c.hosts.bump(host)
	return c.revokeKeys(c.revoker.Resolve(host, key, nil), reason)
}

// SweepLeases tears down every verdict whose lease has expired — the
// fallback revocation for hosts whose daemons never push. Callers own the
// cadence (identctl runs it on a ticker; the simulator in virtual time;
// tests directly): the controller spawns no goroutine of its own. Returns
// the number of verdicts torn down.
func (c *Controller) SweepLeases() int {
	if c.revoker == nil {
		return 0
	}
	n, classes := c.revokeKeys(c.revoker.Expired(c.clock(), nil), "lease-expired")
	c.Counters.Add("revocations_lease_expired", int64(n-classes))
	c.Counters.Add("revocations_wide_lease_expired", int64(classes))
	return n
}

// revokeKeys tears down what one resolve of the index returned — flow
// records and class records alike, each verdict having exactly one — under
// one configuration snapshot. It reports how many verdicts fell, and how
// many of those were classes.
func (c *Controller) revokeKeys(keys []revoke.Key, reason string) (n, classes int) {
	if len(keys) == 0 {
		return 0, 0
	}
	st := c.state.Load()
	// The audit rule string is built once for the whole fan-in.
	rule := "(revoked: " + reason + ")"
	for _, k := range keys {
		if k.Class == 0 {
			c.revokeFlow(st, k.Flow, reason, rule)
			n++
		} else if e := c.mega.get(k.Class); e != nil {
			// The founder is fenced as a revoked flow is: its re-decision in
			// flight on facts gathered before this voids itself instead of
			// re-founding the class on them. A member in flight is a hit,
			// which the dead entry's addPaths refusal settles.
			c.flows.shardFor(e.founder).void(e.founder)
			// One teardown deletes the entries of every member of the class.
			if c.teardownMega(st, e, reason) {
				n++
				classes++
			}
		}
	}
	return n, classes
}

// revokeResolved tears one flow down on the current configuration.
func (c *Controller) revokeResolved(five flow.Five, reason string) {
	c.revokeFlow(c.state.Load(), five, reason, "(revoked: "+reason+")")
}

// revokeFlow tears one flow down: flow fence, covering-verdict teardown,
// dependency-record drop, switch deletes along the registered path, audit
// record. A flow whose verdict is cached has no record of its own: the
// covering class's teardown is its teardown, reported by the class's audit
// record. A flow with neither a covering class nor a record has no entries
// to delete — the index is trusted — and only its fence trips. rule is the
// pre-decorated audit string ("(revoked: <reason>)"), built once by the
// caller so a fan-in tearing N flows does not concatenate it N times.
func (c *Controller) revokeFlow(st *ctlState, five flow.Five, reason, rule string) {
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
		for _, e := range c.mega.covering(five, nil) {
			if c.teardownMega(st, e, reason) {
				classFell = true
			}
		}
	}
	var reg revoke.Registration
	haveReg := false
	if c.revoker != nil {
		reg, haveReg = c.revoker.Drop(five)
	}
	if !haveReg {
		// No record of its own: a class's teardown above was this flow's,
		// and reached everything installed for it. With no class either,
		// nothing is known about the flow — the fence above still voids
		// its in-flight decision.
		if !classFell {
			c.Counters.Add("revocations_noop", 1)
		}
		return
	}
	c.deleteFlowAt(st, five, reg.Paths)
	c.hot.revFlows.Add(1)
	c.auditRevoked(five, rule)
}

func (c *Controller) auditRevoked(five flow.Five, rule string) {
	c.Audit.Record(AuditEntry{Time: c.clock(), Flow: five, Action: pf.Block, Rule: rule, Revoked: true})
}

// deleteFlowAt issues the flow's two cookie-scoped deletes (forward and
// reverse match) along paths and counts them in revocations_entries.
func (c *Controller) deleteFlowAt(st *ctlState, five flow.Five, paths []uint64) {
	fwd := openflow.FlowMod{Delete: true, Cookie: c.cookies.flow(five), CookieMask: ^uint64(0), Match: flow.FiveMatch(five), BufferID: openflow.BufferNone}
	rev := fwd
	rev.Match = flow.FiveMatch(five.Reverse())
	c.hot.revEntries.Add(int64(c.applyAt(st, paths, fwd, rev)))
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
// and the earliest lease any read end imposes: RevocationLeaseTTL from now
// for a host that has not proven it pushes updates and, on a credential-
// enforcing transport, the expiry of the credential its facts were admitted
// under — if the live lapse-resync is missed, the lease sweep still tears
// the verdict down at expiry. Records keep the expiry they were admitted
// under; a rotation refreshes subsequent decisions. The facts are built in
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
		if c.credTr != nil {
			if exp, ok := c.credTr.CredentialExpiry(host); ok {
				reg.Lease = earlier(reg.Lease, exp)
			}
		}
	}
	if srcRead {
		end(s.five.SrcIP, g.qs.Keys)
	}
	if dstRead {
		end(s.five.DstIP, g.qd.Keys)
	}
	s.facts = reg.Facts
	return reg
}

// earlier returns the earlier of two lease deadlines, zero meaning none.
func earlier(a, b time.Time) time.Time {
	if a.IsZero() || b.Before(a) {
		return b
	}
	return a
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
