package core

import (
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/wire"
)

// This file is the controller's side of multi-replica operation
// (internal/cluster): the takeover sweep that reclaims switch state after
// an ownership change, and the replace-form config setters snapshot
// replication needs to be idempotent.

// FlowEnumerator is the optional Datapath capability the takeover sweep
// uses: switches that can list their flow-granularity entries. The
// in-process openflow.Switch implements it; remote datapaths do not, and
// their orphaned entries age out by idle timeout instead of being swept.
type FlowEnumerator interface {
	FlowTuples(dst []flow.Five) []flow.Five
}

// TakeoverSweep deletes, at every enumerable datapath, the entries of
// flows that owned() claims for this replica but that this controller
// holds no decision state for — no cached verdict covering the flow (a
// cache hit's entries carry the class cookie and have no registration of
// their own; the live class is what vouches for them) and no
// revocation-index registration, in either direction. After a cluster ring
// rebuild those are exactly the entries installed by a replica that no
// longer owns the flow (typically a dead one): left alone they would keep
// forwarding under the departed owner's verdict, unreachable by this
// replica's revocation plane. Deleting them makes the flow's next packet
// punt here and re-decide under current endpoint state — the cluster's
// "failover = resubscribe" invariant. Returns the number of entries
// deleted.
//
// Deletes are issued without a cookie: replicas derive flow-mod cookies
// from a per-process hash seed, so the departed owner's cookies are
// unknowable here, and the flows swept are by construction ones this
// replica has no competing entries for.
func (c *Controller) TakeoverSweep(owned func(flow.Five) bool) int {
	st := c.state.Load()
	var tuples []flow.Five
	var covering []*megaEntry
	swept := 0
	for _, dp := range st.datapaths {
		en, ok := dp.(FlowEnumerator)
		if !ok {
			continue
		}
		tuples = en.FlowTuples(tuples[:0])
		for _, f := range tuples {
			if !owned(f) {
				continue
			}
			rev := f.Reverse()
			if c.mega != nil {
				covering = c.mega.covering(f, covering[:0])
				covering = c.mega.covering(rev, covering)
				if len(covering) > 0 {
					continue
				}
			}
			if c.revoker != nil && (c.revoker.Registered(f) || c.revoker.Registered(rev)) {
				continue
			}
			if err := dp.Apply(openflow.FlowMod{
				Delete:   true,
				Match:    flow.FiveMatch(f),
				BufferID: openflow.BufferNone,
			}); err != nil {
				c.hot.installErrors.Add(1)
				continue
			}
			swept++
		}
	}
	return swept
}

// ReplaceAnswers swaps the entire answer-on-behalf table in one snapshot
// edit. AnswerForHost merges and so cannot be replayed; cluster snapshot
// application needs the replace form to converge on exactly the pushed
// state no matter how many times or in what order snapshots arrive.
func (c *Controller) ReplaceAnswers(answers map[netaddr.IP][]wire.KV) {
	c.mutate(func(st *ctlState) {
		m := make(map[netaddr.IP][]wire.KV, len(answers))
		for ip, kvs := range answers {
			m[ip] = append([]wire.KV(nil), kvs...)
		}
		st.answers = m
	})
}
