package daemon

import (
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
// The memo is one table (memoKey) holding an entry per flow answered at
// flow scope and one per listener answered at listener scope: every flow to
// a listener that got its answer shares the listener's entry, and a change
// to that answer is one update at the listener's scope, not one per flow.
// Both kinds are remembered, rescanned and evicted by the same code.
//
// The memo is bounded (DefaultAnsweredCap entries of both kinds together): a
// daemon on a busy server must not grow per-flow state without limit just
// because it was queried. Evicting a memo entry means the daemon can no
// longer tell subscribers when its facts change, so eviction itself is
// published as an update at the entry's scope — the controller
// conservatively revokes, the next packet re-queries, and the memo re-learns
// the entry.

// DefaultAnsweredCap bounds the answered-facts memo: flows and listener
// scopes together.
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

// AnsweredStats reports the answered-facts memo's resident entries — flows
// and listener scopes — and lifetime evictions (the RuleCacheStats shape).
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

// publishLocked publishes u, or with nobody subscribed marks the stream
// dirty, so the next subscriber resyncs. d.pubMu must be held.
func (d *Daemon) publishLocked(u wire.Update) {
	if len(d.subs) > 0 {
		d.emitLocked(u)
	} else {
		d.dirty = true
	}
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

// memoKey is what a memo entry is remembered under: a flow answered at flow
// scope (zero scope), or a listener scope (zero flow) whose answer every flow
// to the listener shares.
type memoKey struct {
	flow  flow.Five
	scope wire.Scope
}

// lapsed is the update that withdraws everything derived from k's entry: a
// flow-scoped update with no key, or one at the listener's scope.
func (k memoKey) lapsed() wire.Update { return wire.Update{Flow: k.flow, Scope: k.scope} }

// remember memoizes the answer just given under k, evicting an arbitrary
// other entry, and publishing its lapse, when the memo is full; an answer
// already held under k costs a read lock. seq is d.changes as read before
// the answer was built: a change counted since may have rescanned k before
// this answer was memoized — finding it untracked, or tracked with an older
// answer — so k is re-derived here and any difference published. Callers
// must not hold d.mu or d.pubMu.
func (d *Daemon) remember(k memoKey, a *answer, seq uint64) {
	d.mu.RLock()
	held := d.answered[k] == a
	d.mu.RUnlock()
	if !held {
		d.mu.Lock()
		var evicted memoKey
		haveEvicted := false
		if _, existed := d.answered[k]; !existed && len(d.answered) >= DefaultAnsweredCap {
			for victim := range d.answered {
				delete(d.answered, victim)
				d.answeredEvicted++
				evicted, haveEvicted = victim, true
				break
			}
		}
		d.answered[k] = a
		d.mu.Unlock()
		if haveEvicted {
			// The daemon stops tracking the evicted entry: its lapse tells
			// the controller to drop everything it derived from it.
			d.pubMu.Lock()
			d.publishLocked(evicted.lapsed())
			d.pubMu.Unlock()
		}
	}
	// Read after the memo write: a change counted after this read rescans
	// with k memoized.
	if d.changes.Load() != seq {
		d.rescanKeys(k)
	}
}

// diffFacts returns whether the fact maps differ and, if so, the first
// changed key (the least, for determinism) with its old and new values.
func diffFacts(old, cur map[string]string) (key, oldV, newV string, changed bool) {
	for k, v := range old {
		if cur[k] != v && (!changed || k < key) {
			key, changed = k, true
		}
	}
	for k := range cur {
		if _, ok := old[k]; !ok && (!changed || k < key) {
			key, changed = k, true
		}
	}
	if !changed {
		return "", "", "", false
	}
	return key, old[key], cur[key], true
}

// onHostChange is the hostinfo change listener: it re-derives assertions
// for exactly what the mutation touched — the flows it names, and the
// listener scopes it names with the flows to them remembered at flow scope —
// falling back to the full memo walk only for mutations whose blast radius
// the host cannot enumerate (patch installs). A scoped change leaves the
// per-process answers alone but for the processes it names as gone; a
// host-wide one can change what every process's answer says, so it drops
// them — before it is counted: an answer to a query that read the count
// after it must not come from the table as it was.
func (d *Daemon) onHostChange(ch hostinfo.Change) {
	if ch.All {
		d.mu.Lock()
		d.dropProcessAnswersLocked()
		d.mu.Unlock()
		d.changes.Add(1)
		d.rescan()
		return
	}
	if len(ch.Gone) > 0 {
		d.mu.Lock()
		for _, p := range ch.Gone {
			delete(d.procAnswers, p)
		}
		d.mu.Unlock()
	}
	d.changes.Add(1)
	for _, f := range ch.Flows {
		d.rescanKeys(memoKey{flow: f})
	}
	for _, l := range ch.Listeners {
		d.rescanListener(wire.ListenerScope(l.Proto, l.Port))
	}
}

// rescan re-derives every memo entry, flows and listener scopes, and
// publishes an update for each whose assertion changed. It runs after
// host-wide changes (see onHostChange) and configuration installs; cost is
// bounded by the memo cap.
func (d *Daemon) rescan() {
	d.rescanWhere(func(memoKey) bool { return true })
}

// rescanListener re-derives what a change to the listener at s can have
// changed: the scope's entry, and the entries of flows to it the daemon
// answered at flow scope (while the scope was narrowed, or before the
// listener was bound).
func (d *Daemon) rescanListener(s wire.Scope) {
	d.rescanWhere(func(k memoKey) bool {
		to, inbound := d.listenerScopeOf(k.flow)
		return k.scope == s || inbound && to == s
	})
}

// rescanWhere is the memo walk: it re-derives every entry whose key match
// accepts, listener scopes first, so a listener's update comes ahead of the
// updates for flows to it.
func (d *Daemon) rescanWhere(match func(memoKey) bool) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	var scopes, flows []memoKey
	d.mu.RLock()
	for k := range d.answered {
		switch {
		case !match(k):
		case k.scope.Listener():
			scopes = append(scopes, k)
		default:
			flows = append(flows, k)
		}
	}
	d.mu.RUnlock()
	d.rescanKeysLocked(append(scopes, flows...))
}

// rescanKeys re-derives the entries under keys and publishes an update for
// each whose answer changed.
func (d *Daemon) rescanKeys(keys ...memoKey) {
	d.pubMu.Lock()
	defer d.pubMu.Unlock()
	d.rescanKeysLocked(keys)
}

// rescanKeysLocked is rescanKeys with d.pubMu held. With no subscribers
// nothing can be published: if one of the keys is tracked its assertion may
// now be stale, so the stream is marked dirty and the next Subscribe forces
// a resync.
func (d *Daemon) rescanKeysLocked(keys []memoKey) {
	if len(d.subs) == 0 {
		d.mu.RLock()
		for _, k := range keys {
			if _, tracked := d.answered[k]; tracked {
				d.dirty = true
			}
		}
		d.mu.RUnlock()
		return
	}
	for _, k := range keys {
		d.rescanLocked(k)
	}
}

// rescanLocked re-derives k's entry and publishes if its answer changed. A
// flow keeps its entry, now the new answer, and its update names the least
// changed key (diffFacts). A listener scope whose answer changed or lapsed —
// different facts, no listener, or narrowed to flow scope — loses its entry,
// and its update is its lapse: the receiver drops everything it derived from
// the old answer, so there is nothing left to track until it asks again. An
// answer with the same facts replaces the entry silently. d.pubMu must be
// held; d.mu must not be.
func (d *Daemon) rescanLocked(k memoKey) {
	var cur *answer
	if k.scope.Listener() {
		cur = d.deriveScope(k.scope)
	} else {
		cur, _, _ = d.derive(wire.Query{Flow: k.flow})
	}
	d.mu.Lock()
	old, held := d.answered[k]
	if !held || old == cur {
		d.mu.Unlock()
		return
	}
	u := wire.Update{Flow: k.flow}
	changed := cur == nil
	if !changed {
		u.Key, u.Old, u.New, changed = diffFacts(old.facts, cur.facts)
	}
	if changed && k.scope.Listener() {
		delete(d.answered, k)
		u = k.lapsed()
	} else {
		d.answered[k] = cur
	}
	d.mu.Unlock()
	if changed {
		d.emitLocked(u)
	}
}
