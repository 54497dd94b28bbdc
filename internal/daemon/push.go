package daemon

import (
	"sort"

	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/wire"
)

// This file is the daemon half of the revocation plane: the daemon
// remembers what it has asserted (which facts, for which flows), watches
// its host's OS state, and pushes wire.Update messages to subscribers when
// a previously-asserted fact stops being true. The controller's verdicts
// are computed from flow-setup-time answers; without this channel a user
// logging out or a process exiting keeps its allowed flows until switch
// idle-timeout, and the verdict cache re-grants them without asking again.
//
// The answered-facts memo is bounded (answeredCap): a daemon on a busy
// server must not grow per-flow state without limit just because it was
// queried. Evicting a memo entry means the daemon can no longer tell
// subscribers when that flow's facts change, so eviction itself is
// published as a flow-scoped update — the controller conservatively
// revokes, the next packet re-queries, and the memo re-learns the flow.

// DefaultAnsweredCap bounds the answered-facts memo.
const DefaultAnsweredCap = 4096

// DefaultDynamicCap bounds the application-supplied flow-pair map
// (ProvideFlowPairs), which previously grew without limit unless the
// application called ClearFlowPairs.
const DefaultDynamicCap = 4096

// Subscribe registers fn to receive every future update, and synchronously
// delivers a hello update carrying the daemon's current serial before
// Subscribe returns — the subscriber's proof that this daemon pushes at
// all, and its serial baseline for gap detection. fn is invoked with the
// publication lock held: updates arrive in serial order, exactly once, and
// fn must not call back into the daemon's publication side (Subscribe,
// ProvideFlowPairs, ...). The returned cancel removes the subscription.
//
// Changes that happened while nobody was subscribed could not be
// published; they mark the stream dirty, and Subscribe burns one serial
// for them before saying hello — so a reconnecting controller's
// last-known serial no longer matches, its transport synthesizes a
// resync, and nothing that changed during the disconnect is silently
// kept.
func (d *Daemon) Subscribe(fn func(wire.Update)) (cancel func()) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	if d.subs == nil {
		d.subs = make(map[int]func(wire.Update))
	}
	if d.dirty {
		d.serial++
		d.dirty = false
	}
	id := d.nextSub
	d.nextSub++
	d.subs[id] = fn
	d.Counters.Add("daemon_subscribes", 1)
	fn(d.helloLocked())
	return func() {
		d.pubMu.Lock()
		delete(d.subs, id)
		d.pubMu.Unlock()
	}
}

// UpdateSerial returns the serial of the most recently published update.
func (d *Daemon) UpdateSerial() uint64 {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	return d.serial
}

// AnsweredStats reports the answered-facts memo's resident entries and
// lifetime evictions (the RuleCacheStats shape).
func (d *Daemon) AnsweredStats() (entries, evictions int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.answered)), d.answeredEvicted
}

// FlowPairStats reports the dynamic flow-pair map's resident entries and
// lifetime evictions.
func (d *Daemon) FlowPairStats() (entries, evictions int64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.dynamic)), d.dynamicEvicted
}

// emitLocked publishes one update to every subscriber. d.pubMu must be
// held: it owns the serial sequence and the delivery order.
func (d *Daemon) emitLocked(u wire.Update) {
	d.serial++
	u.Serial = d.serial
	if len(d.subs) > 0 {
		d.Counters.Add("daemon_updates_pushed", int64(len(d.subs)))
	}
	for _, fn := range d.subs {
		fn(u)
	}
}

// flatten reduces a response to its effective facts: for each key, the
// Latest value (§3.3's "the latest value is the most trusted").
func flatten(resp *wire.Response) map[string]string {
	facts := make(map[string]string)
	for _, s := range resp.Sections {
		for _, p := range s.Pairs {
			facts[p.Key] = p.Value
		}
	}
	return facts
}

// remember memoizes the facts just asserted for a flow, evicting (and
// publishing) an arbitrary other flow when the memo is over capacity. seq is
// d.changes as read before the answer was built: a change counted since may
// have rescanned the flow before this answer was memoized — finding it
// untracked, or tracked with an older answer — so the answer is re-derived
// here and any difference published. Callers must not hold d.mu or d.pubMu.
func (d *Daemon) remember(f flow.Five, resp *wire.Response, seq uint64) {
	facts := flatten(resp)
	d.mu.Lock()
	if d.answered == nil {
		d.answered = make(map[flow.Five]map[string]string)
	}
	limit := d.answeredCap
	if limit <= 0 {
		limit = DefaultAnsweredCap
	}
	_, existed := d.answered[f]
	var evicted flow.Five
	var haveEvicted bool
	if !existed && len(d.answered) >= limit {
		for victim := range d.answered {
			if victim != f {
				delete(d.answered, victim)
				d.answeredEvicted++
				evicted, haveEvicted = victim, true
				break
			}
		}
	}
	d.answered[f] = facts
	d.mu.Unlock()
	if haveEvicted {
		d.pubMu.Lock()
		if len(d.subs) > 0 {
			// The daemon stops tracking the evicted flow: a flow-scoped
			// update with no key tells the controller to drop everything it
			// derived from this daemon's answers for that flow.
			d.emitLocked(wire.Update{Flow: evicted})
		} else {
			d.dirty = true
		}
		d.pubMu.Unlock()
	}
	// Read after the memo write: a change counted after this read rescans
	// with the flow memoized.
	if d.changes.Load() != seq {
		d.rescanFlow(f)
	}
}

// diffFacts returns whether the fact maps differ and, if so, the first
// changed key (sorted, for determinism) with its old and new values.
func diffFacts(old, cur map[string]string) (key, oldV, newV string, changed bool) {
	var keys []string
	for k := range old {
		if cur[k] != old[k] {
			keys = append(keys, k)
		}
	}
	for k := range cur {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return "", "", "", false
	}
	sort.Strings(keys)
	k := keys[0]
	return k, old[k], cur[k], true
}

// onHostChange is the hostinfo change listener: it re-derives assertions
// for exactly the flows the mutation touched (connection churn, process
// exit), falling back to the full memo walk only for mutations whose
// blast radius the host cannot enumerate (listener binds, patch
// installs, configuration changes).
func (d *Daemon) onHostChange(ch hostinfo.Change) {
	d.changes.Add(1)
	if ch.All {
		d.rescan()
		return
	}
	for _, f := range ch.Flows {
		d.rescanFlow(f)
	}
}

// rescan re-derives the facts for every memoized flow and publishes an
// update for each flow whose assertion changed. It runs after changes of
// unknowable scope (see onHostChange) and configuration installs; cost is
// bounded by the memo cap. With no subscribers nothing can be published:
// the stream is marked dirty so the next Subscribe forces a resync.
func (d *Daemon) rescan() {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	d.mu.RLock()
	flows := make([]flow.Five, 0, len(d.answered))
	for f := range d.answered {
		flows = append(flows, f)
	}
	d.mu.RUnlock()
	if len(d.subs) == 0 {
		if len(flows) > 0 {
			d.dirty = true
		}
		return
	}
	for _, f := range flows {
		d.rescanFlowLocked(f)
	}
}

// rescanFlow re-derives one flow's facts and publishes if they changed.
func (d *Daemon) rescanFlow(f flow.Five) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	if len(d.subs) == 0 {
		// Nothing can be published; if the flow was being tracked, its
		// assertion may now be stale — force a resync at next subscribe.
		d.mu.RLock()
		_, tracked := d.answered[f]
		d.mu.RUnlock()
		if tracked {
			d.dirty = true
		}
		return
	}
	d.rescanFlowLocked(f)
}

// rescanFlowLocked does the per-flow diff-and-publish. d.pubMu must be
// held; d.mu must not be.
func (d *Daemon) rescanFlowLocked(f flow.Five) {
	cur := flatten(d.buildResponse(wire.Query{Flow: f}))
	d.mu.Lock()
	old, ok := d.answered[f]
	if !ok {
		d.mu.Unlock()
		return
	}
	key, oldV, newV, changed := diffFacts(old, cur)
	if changed {
		d.answered[f] = cur
	}
	d.mu.Unlock()
	if changed {
		d.emitLocked(wire.Update{Flow: f, Key: key, Old: oldV, New: newV})
	}
}
