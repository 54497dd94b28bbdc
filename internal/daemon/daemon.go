package daemon

import (
	"path"
	"strings"
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
// push.go): it remembers the facts it asserted per answered flow (bounded
// by answeredCap), listens for its host's OS-state changes, and publishes
// wire.Update messages to subscribers when a previously-given answer stops
// being true.
type Daemon struct {
	host *hostinfo.Host

	// Counters is the daemon's observability surface (queries answered,
	// updates pushed, subscriber churn), exported by internal/telemetry's
	// daemon collector. Always non-nil after New.
	Counters *metrics.Counter

	mu              sync.RWMutex
	userApps        map[string]*AppConfig // user-writable config, by exe path
	sysApps         map[string]*AppConfig // system config (/etc/identxx), by exe path
	hostPairs       []wire.KV             // host-level static pairs (system)
	dynamic         map[flow.Five][]wire.KV
	dynamicCap      int   // bound on dynamic (0 = DefaultDynamicCap)
	dynamicEvicted  int64 // lifetime dynamic evictions
	forge           ForgeFunc
	answered        map[flow.Five]map[string]string // facts asserted per flow
	answeredCap     int                             // bound on answered (0 = DefaultAnsweredCap)
	answeredEvicted int64                           // lifetime memo evictions

	// changes counts the changes that can alter an answer (host state,
	// configuration, application pairs), each counted before its rescan
	// reads the memo. An answer built across one is re-derived once it is
	// memoized (remember): that rescan may have read the memo first.
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
	}
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
func (d *Daemon) HandleQuery(q wire.Query) *wire.Response {
	d.Counters.Add("daemon_queries_answered", 1)
	if q.TraceID != 0 {
		// The controller is flight-recording this decision; count the
		// daemon's share so the operator can confirm trace IDs survive the
		// query wire end to end (they otherwise only surface in traces).
		d.Counters.Add("daemon_queries_traced", 1)
	}
	seq := d.changes.Load()
	resp := d.buildResponse(q)
	// Remember what was asserted (post-forge: the memo tracks what went on
	// the wire) so a later OS change can be mapped back to this flow and
	// published as an update.
	d.remember(q.Flow, resp, seq)
	return resp
}

// buildResponse is HandleQuery without the answered-facts memo: the honest
// response, passed through the compromise hook when one is installed. The
// rescan path uses it to re-derive assertions without self-memoizing.
func (d *Daemon) buildResponse(q wire.Query) *wire.Response {
	honest := d.buildHonest(q)
	d.mu.RLock()
	forge := d.forge
	d.mu.RUnlock()
	if forge != nil {
		return forge(q, honest)
	}
	return honest
}

func (d *Daemon) buildHonest(q wire.Query) *wire.Response {
	resp := &wire.Response{Flow: q.Flow}

	proc, ok := d.host.OwnerOf(q.Flow, hostinfo.RoleAuto)
	if !ok {
		s := wire.Section{Source: "daemon"}
		s.Add(wire.KeyError, "NO-USER")
		s.Add(wire.KeyHost, d.host.Name)
		resp.Sections = append(resp.Sections, s)
		return resp
	}

	d.mu.RLock()
	defer d.mu.RUnlock()

	if pairs, ok := d.dynamic[q.Flow]; ok && len(pairs) > 0 {
		resp.Sections = append(resp.Sections, wire.Section{
			Source: "application",
			Pairs:  append([]wire.KV(nil), pairs...),
		})
	}
	if app, ok := d.userApps[proc.Exe.Path]; ok && len(app.Pairs) > 0 {
		resp.Sections = append(resp.Sections, wire.Section{
			Source: "user-config",
			Pairs:  append([]wire.KV(nil), app.Pairs...),
		})
	}
	sys := wire.Section{Source: "system-config", Pairs: append([]wire.KV(nil), d.hostPairs...)}
	if app, ok := d.sysApps[proc.Exe.Path]; ok {
		sys.Pairs = append(sys.Pairs, app.Pairs...)
	}
	if len(sys.Pairs) > 0 {
		resp.Sections = append(resp.Sections, sys)
	}

	ground := wire.Section{Source: "daemon"}
	ground.Add(wire.KeyUserID, proc.User.Name)
	if len(proc.User.Groups) > 0 {
		ground.Add(wire.KeyGroupID, strings.Join(proc.User.Groups, " "))
	}
	name := proc.Exe.Name
	if name == "" {
		name = path.Base(proc.Exe.Path)
	}
	ground.Add(wire.KeyName, name)
	ground.Add(wire.KeyAppName, name)
	ground.Add(wire.KeyExeHash, proc.Exe.Hash())
	if proc.Exe.Version != "" {
		ground.Add(wire.KeyVersion, proc.Exe.Version)
	}
	if proc.Exe.Vendor != "" {
		ground.Add(wire.KeyVendor, proc.Exe.Vendor)
	}
	if proc.Exe.Type != "" {
		ground.Add(wire.KeyType, proc.Exe.Type)
	}
	if patches := d.host.Patches(); patches != "" {
		ground.Add(wire.KeyOSPatch, patches)
	}
	ground.Add(wire.KeyHost, d.host.Name)
	resp.Sections = append(resp.Sections, ground)
	return resp
}
