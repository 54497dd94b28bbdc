package core

import (
	"identxx/internal/flow"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/wire"
)

// This file is the controller's side of multi-replica operation
// (internal/cluster): the takeover that reclaims a departed replica's
// switch state, and the replace-form config setters snapshot replication
// needs to be idempotent.

// TakeOver deletes, at every registered datapath, every entry the
// controller named replica installed: one match-all delete scoped to that
// name's installer tag (cookie.go), on in-process and remote switches
// alike. After a replica leaves the cluster ring nothing supervises those
// entries — left alone they would keep forwarding under the departed
// owner's verdicts, unreachable by any survivor's revocation plane.
// Deleting them makes each flow's next packet punt to its new owner and
// re-decide under current endpoint state — the cluster's "failover =
// resubscribe" invariant. This controller's own entries carry its own tag
// and are untouched. Returns the number of deletes the datapaths accepted.
func (c *Controller) TakeOver(replica string) int { return c.deleteTagged(installerTag(replica)) }

// deleteTagged sends every registered datapath one match-all delete under
// tag's mask, and returns how many the datapaths accepted.
func (c *Controller) deleteTagged(tag uint64) int {
	mod := openflow.FlowMod{Delete: true, Match: flow.MatchAll(), Cookie: tag, CookieMask: tagMask, BufferID: openflow.BufferNone}
	n := 0
	for _, dp := range c.state.Load().datapaths {
		if c.apply(dp, mod) {
			n++
		}
	}
	return n
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
