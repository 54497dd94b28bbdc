package daemon

import (
	"sync"
	"sync/atomic"

	"identxx/internal/cred"
	"identxx/internal/flow"
	"identxx/internal/hostinfo"
	"identxx/internal/metrics"
	"identxx/internal/wire"
)

// ForgeFunc lets tests and the §5 security experiments model a compromised
// end-host: it receives the query and the honest response the daemon would
// have sent and returns what actually goes on the wire. "The attacker would
// gain control of the ident++ daemon and can send false ident++ responses"
// (§5.3).
type ForgeFunc func(q wire.Query, honest *wire.Response) *wire.Response

// Daemon answers ident++ queries for one host. It is safe for concurrent
// use; controllers may query while applications register flow pairs.
//
// Beyond answering, the daemon participates in the revocation plane (see
// push.go): it remembers the answer it gave, in one memo bounded by
// DefaultAnsweredCap — per answered flow, and per listener for an answer
// given at listener scope — listens for its host's OS-state changes, and
// publishes wire.Update messages to subscribers when a previously-given
// answer stops being true.
type Daemon struct {
	host *hostinfo.Host

	// Counters is the daemon's observability surface (queries answered,
	// updates pushed, subscriber churn), exported by internal/telemetry's
	// daemon collector. Always non-nil after New.
	Counters *metrics.Counter

	// hot caches the cells of the counters every query bumps.
	hot struct{ answered, traced *atomic.Int64 }

	mu              sync.RWMutex
	userApps        map[string]*AppConfig // user-writable config, by exe path
	sysApps         map[string]*AppConfig // system config (/etc/identxx), by exe path
	hostPairs       []wire.KV             // host-level static pairs (system)
	dynamic         map[flow.Five][]wire.KV
	dynamicEvicted  int64 // lifetime dynamic evictions
	forge           ForgeFunc
	answered        map[memoKey]*answer // the answer each flow or listener scope was last given
	answeredEvicted int64               // lifetime memo evictions

	// What narrows a listener's answers to flow scope (answer.go): narrowed
	// counts, per listener, the flows to it with application pairs; unscoped
	// is set from the moment a forge hook is being installed until it is
	// removed. pairMu serializes the application-pair calls, which publish
	// a narrowing before they change an answer.
	narrowed map[wire.Scope]int
	unscoped bool
	pairMu   sync.Mutex

	// Per-process answers (answer.go), bounded by procAnswersCap. procGen
	// moves with every invalidation, so an answer built from inputs read
	// before one is not entered after it.
	procAnswers map[*hostinfo.Process]*answer
	procGen     uint64
	noUser      *answer // the answer about a flow no process owns

	// changes counts the changes that can alter an answer (host state,
	// configuration, application pairs), each counted before its rescan
	// reads the memo and after the per-process answers it outdates are
	// dropped. An answer built across one is re-derived once it is memoized
	// (remember): that rescan may have read the memo first.
	changes atomic.Uint64

	// Publication side (push.go). pubMu owns the serial sequence and the
	// subscriber set; it is never held while d.mu is taken for writing by
	// the same goroutine's caller, and subscribers run under it so updates
	// are delivered in serial order.
	pubMu   sync.Mutex
	serial  uint64
	subs    map[int]func(wire.Update)
	nextSub int
	// dirty records that assertions may have changed while nobody was
	// subscribed; the next Subscribe burns a serial so the subscriber's
	// transport detects the lapse and resyncs.
	dirty bool
	// credential, when set, rides every hello (cred.go); pubMu guards it
	// because hellos are built under pubMu.
	credential *cred.Issued
}

// New creates a daemon serving queries about h. The daemon registers
// itself as a change listener on the host, so OS-state mutations
// re-derive the facts it has asserted and publish updates to subscribers.
func New(h *hostinfo.Host) *Daemon {
	d := &Daemon{
		host:     h,
		Counters: metrics.NewCounter(),
		userApps: make(map[string]*AppConfig),
		sysApps:  make(map[string]*AppConfig),
		dynamic:  make(map[flow.Five][]wire.KV),
		answered: make(map[memoKey]*answer),
		narrowed: make(map[wire.Scope]int),
		noUser:   noUserAnswer(h),
	}
	d.hot.answered = d.Counters.Cell("daemon_queries_answered")
	d.hot.traced = d.Counters.Cell("daemon_queries_traced")
	h.AddChangeListener(d.onHostChange)
	return d
}

// Host returns the host this daemon serves.
func (d *Daemon) Host() *hostinfo.Host { return d.host }

// InstallConfig merges a parsed configuration file. system marks files from
// the system configuration directory, "only modifiable by the local
// end-host administrator" (§3.5); their pairs are emitted after (and thus
// override) user-writable configuration.
func (d *Daemon) InstallConfig(cf *ConfigFile, system bool) {
	d.mu.Lock()
	for _, app := range cf.Apps {
		if system {
			d.sysApps[app.Path] = app
		} else {
			d.userApps[app.Path] = app
		}
	}
	if system {
		d.hostPairs = append(d.hostPairs, cf.HostPairs...)
	}
	d.dropProcessAnswersLocked()
	d.changes.Add(1)
	d.mu.Unlock()
	// New configuration changes what the daemon asserts for flows of the
	// affected applications; re-derive and publish.
	d.rescan()
}

// ProvideFlowPairs registers application-supplied pairs for a flow — the
// run-time channel the paper routes over a Unix domain socket, used e.g. by
// a browser to distinguish user-initiated flows (§3.5). The map is bounded
// (DefaultDynamicCap): past the cap an arbitrary other flow's pairs are
// evicted, counted in FlowPairStats, and — since eviction changes what the
// daemon would answer — published like any other change.
//
// Pairs for a flow to one of this host's ports give that flow an answer of
// its own, so they narrow the port's listener scope to flow scope for as
// long as they last: the scope's update is published first, before the
// flow's answer changes, so no controller keeps serving the flow from the
// listener's answer once it is different.
func (d *Daemon) ProvideFlowPairs(f flow.Five, pairs ...wire.KV) {
	d.pairMu.Lock()
	defer d.pairMu.Unlock()
	s, toListener := d.listenerScopeOf(f)
	d.mu.Lock()
	_, existed := d.dynamic[f]
	if toListener && !existed {
		d.narrowed[s]++
		d.changes.Add(1)
		d.mu.Unlock()
		d.rescanKeys(memoKey{scope: s})
		d.mu.Lock()
	}
	var evicted flow.Five
	haveEvicted := false
	if !existed && len(d.dynamic) >= DefaultDynamicCap {
		for victim := range d.dynamic {
			if victim != f {
				d.dropPairsLocked(victim)
				d.dynamicEvicted++
				evicted, haveEvicted = victim, true
				break
			}
		}
	}
	d.dynamic[f] = append(d.dynamic[f], pairs...)
	d.changes.Add(1)
	d.mu.Unlock()
	if haveEvicted {
		d.rescanKeys(memoKey{flow: evicted})
	}
	d.rescanKeys(memoKey{flow: f})
}

// ClearFlowPairs drops the dynamic pairs for a flow (connection closed).
func (d *Daemon) ClearFlowPairs(f flow.Five) {
	d.pairMu.Lock()
	defer d.pairMu.Unlock()
	d.mu.Lock()
	d.dropPairsLocked(f)
	d.changes.Add(1)
	d.mu.Unlock()
	d.rescanKeys(memoKey{flow: f})
}

// dropPairsLocked removes f's pairs and the narrowing they held. d.mu must
// be held for writing.
func (d *Daemon) dropPairsLocked(f flow.Five) {
	if _, ok := d.dynamic[f]; !ok {
		return
	}
	delete(d.dynamic, f)
	if s, ok := d.listenerScopeOf(f); ok {
		if d.narrowed[s]--; d.narrowed[s] <= 0 {
			delete(d.narrowed, s)
		}
	}
}

// listenerScopeOf returns the listener scope a flow to this host falls
// under, ok false for a flow this host is not the destination of.
func (d *Daemon) listenerScopeOf(f flow.Five) (wire.Scope, bool) {
	ip := d.host.IP
	if f.DstIP != ip || f.SrcIP == ip {
		return wire.Scope{}, false
	}
	return wire.ListenerScope(f.Proto, f.DstPort), true
}

// SetForge installs (or, with nil, removes) a compromise hook. While one is
// installed every answer is the hook's and flow-scoped: the listener scopes
// the daemon has answered at are withdrawn, and their updates published,
// before the hook answers anything.
func (d *Daemon) SetForge(f ForgeFunc) {
	d.mu.Lock()
	if f == nil {
		d.forge, d.unscoped = nil, false
		d.mu.Unlock()
		return
	}
	d.unscoped = true
	d.changes.Add(1)
	d.mu.Unlock()
	d.rescan()
	d.mu.Lock()
	d.forge = f
	d.mu.Unlock()
}

// HandleQuery produces the response for a query. The response always has
// the daemon's kernel-derived section last, so `Latest` semantics prefer
// ground truth over application- or user-supplied values; an intercepting
// controller augmenting later still overrides everything, as §3.3 intends.
//
// Section order:
//  1. application — dynamic per-flow pairs, least trusted
//  2. user-config — pairs from user-writable configuration files
//  3. system-config — pairs from the administrator's configuration
//  4. daemon — kernel-derived ground truth (userID, exe-hash, ...)
//
// Empty sections are elided. A query about a flow the host knows nothing
// about yields a single section carrying an error pair, like the ident
// protocol's NO-USER.
//
// The response is the one allocation of an answer to a known process: its
// sections are that process's answer, shared with every other response about
// its flows, and are never written afterwards. A holder that adds pairs adds
// them in a section of its own (Response.Augment copies the array); it must
// not write into the sections it was given.
func (d *Daemon) HandleQuery(q wire.Query) *wire.Response {
	a, scope, forged := d.respond(q)
	if forged != nil {
		return forged
	}
	return a.response(q.Flow, scope)
}

// respond answers q and memoizes the answer: HandleQuery without building a
// response, for the server, which frames the answer's encoded body. scope is
// the scope the answer is given at; forged is the forge hook's response, nil
// without a hook.
func (d *Daemon) respond(q wire.Query) (a *answer, scope wire.Scope, forged *wire.Response) {
	d.hot.answered.Add(1)
	if q.TraceID != 0 {
		// The controller is flight-recording this decision; count the
		// daemon's share so the operator can confirm trace IDs survive the
		// query wire end to end (they otherwise only surface in traces).
		d.hot.traced.Add(1)
	}
	seq := d.changes.Load()
	a, scope, forged = d.derive(q)
	// Remember what was asserted (post-forge: the memo tracks what went on
	// the wire) so a later OS change can be mapped back to this flow, or to
	// its listener, and published as an update.
	k := memoKey{scope: scope}
	if !scope.Listener() {
		k.flow = q.Flow
	}
	d.remember(k, a, seq)
	return a, scope, forged
}
