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
// push.go): it remembers the answer it gave per answered flow (bounded by
// answeredCap), listens for its host's OS-state changes, and publishes
// wire.Update messages to subscribers when a previously-given answer stops
// being true.
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
	dynamicCap      int   // bound on dynamic (0 = DefaultDynamicCap)
	dynamicEvicted  int64 // lifetime dynamic evictions
	forge           ForgeFunc
	answered        map[flow.Five]*answer // the answer each flow was last given
	answeredCap     int                   // bound on answered (0 = DefaultAnsweredCap)
	answeredEvicted int64                 // lifetime memo evictions

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
		noUser:   noUserAnswer(h),
	}
	d.hot.answered = d.Counters.Cell("daemon_queries_answered")
	d.hot.traced = d.Counters.Cell("daemon_queries_traced")
	h.AddChangeListener(d.onHostChange)
	return d
}

// SetAnsweredCap overrides the answered-facts memo bound (0 restores the
// default). Intended for tests and small-footprint deployments.
func (d *Daemon) SetAnsweredCap(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.answeredCap = n
}

// SetDynamicCap overrides the dynamic flow-pair bound (0 restores the
// default).
func (d *Daemon) SetDynamicCap(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dynamicCap = n
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
// (SetDynamicCap / DefaultDynamicCap): past the cap an arbitrary other
// flow's pairs are evicted, counted in FlowPairStats, and — since eviction
// changes what the daemon would answer — published like any other change.
func (d *Daemon) ProvideFlowPairs(f flow.Five, pairs ...wire.KV) {
	d.mu.Lock()
	limit := d.dynamicCap
	if limit <= 0 {
		limit = DefaultDynamicCap
	}
	_, existed := d.dynamic[f]
	var evicted flow.Five
	haveEvicted := false
	if !existed && len(d.dynamic) >= limit {
		for victim := range d.dynamic {
			if victim != f {
				delete(d.dynamic, victim)
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
		d.rescanFlow(evicted)
	}
	d.rescanFlow(f)
}

// ClearFlowPairs drops the dynamic pairs for a flow (connection closed).
func (d *Daemon) ClearFlowPairs(f flow.Five) {
	d.mu.Lock()
	delete(d.dynamic, f)
	d.changes.Add(1)
	d.mu.Unlock()
	d.rescanFlow(f)
}

// SetForge installs (or, with nil, removes) a compromise hook.
func (d *Daemon) SetForge(f ForgeFunc) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.forge = f
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
	a, forged := d.respond(q)
	if forged != nil {
		return forged
	}
	return a.response(q.Flow)
}

// respond answers q and memoizes the answer: HandleQuery without building a
// response, for the server, which frames the answer's encoded body. forged is
// the forge hook's response, nil without a hook.
func (d *Daemon) respond(q wire.Query) (a *answer, forged *wire.Response) {
	d.hot.answered.Add(1)
	if q.TraceID != 0 {
		// The controller is flight-recording this decision; count the
		// daemon's share so the operator can confirm trace IDs survive the
		// query wire end to end (they otherwise only surface in traces).
		d.hot.traced.Add(1)
	}
	seq := d.changes.Load()
	a, forged = d.derive(q)
	// Remember what was asserted (post-forge: the memo tracks what went on
	// the wire) so a later OS change can be mapped back to this flow and
	// published as an update.
	d.remember(q.Flow, a, seq)
	return a, forged
}
