// Package core implements the ident++ controller, the paper's primary
// contribution (§3.4): an OpenFlow controller that, on a flow's first
// packet, queries the ident++ daemons at both ends for additional
// information, evaluates the administrator's PF+=2 policy over the flow's
// 5-tuple plus the returned key-value dictionaries, and caches the verdict
// as flow entries along the path (Figure 1). It also implements the
// interception roles of §3.4: answering queries on behalf of hosts and
// augmenting responses that transit its network.
//
// Concurrency model: the packet-in fast path takes zero global locks.
// Read-mostly configuration (policy, query keys, datapaths, answer-on-
// behalf table, augmenter) lives in an immutable snapshot behind an
// atomic.Pointer; mutators copy-on-write and swap. Per-flow in-flight
// state (the pending set) is sharded by the flow's maphash (see shard.go),
// so packet-ins for different flows contend only when they hash to the
// same shard; cached verdicts live in one class-sharded table
// (megaflow.go). Duplicate packet-ins for an in-flight flow park on its
// decision and are resolved by the first verdict instead of being dropped
// and re-punted.
package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"identxx/internal/flow"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/revoke"
	"identxx/internal/trace"
	"identxx/internal/wire"
)

// ErrNoDaemon is returned by a QueryTransport when the target host does not
// run an ident++ daemon — the §4 "Incremental Benefit" case. The controller
// proceeds with a nil response (or its own answer-on-behalf data) and lets
// the policy fail closed or open as written.
var ErrNoDaemon = errors.New("core: host has no ident++ daemon")

// noDaemonError lets transports outside core (the baselines, which core's
// tests import) mark their errors as the daemon-less case without
// importing this package.
type noDaemonError interface{ NoDaemon() bool }

// IsNoDaemon reports whether err means the queried host authoritatively
// runs no ident++ daemon — ErrNoDaemon anywhere in the chain, or an error
// self-identifying through NoDaemon() bool. This is the only failure mode
// in which the controller may answer on the host's behalf (§3.4, §4);
// timeouts and resets against a host that does run a daemon are transport
// trouble, not an invitation to impersonate it.
func IsNoDaemon(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrNoDaemon) {
		return true
	}
	var nd noDaemonError
	return errors.As(err, &nd) && nd.NoDaemon()
}

// IsTimeout mirrors the net.Error convention without importing net:
// deadline-style failures (context.DeadlineExceeded, net timeouts, the
// query plane's ErrDeadline) all report Timeout() true.
func IsTimeout(err error) bool {
	var t interface{ Timeout() bool }
	return errors.As(err, &t) && t.Timeout()
}

// unauthorizedErr marks query failures caused by the credential plane
// (internal/query's session verification) without importing it: the
// daemon answered, but its credential was forged, expired, missing, or
// its answer exceeded the credential's key scope. Such errors also
// satisfy IsNoDaemon — an unauthorized daemon gets the daemon-less
// fallback — but are counted apart (cred_unauthorized vs query_errors)
// so operators can tell "daemon down" from "daemon unauthorized".
type unauthorizedErr interface{ Unauthorized() bool }

// isUnauthorized walks the Unwrap chain by hand: errors.As would heap-
// allocate its target on every call, and this sits on the miss path of
// every daemon-less flow setup (the M8 zero-alloc budget).
func isUnauthorized(err error) bool {
	for err != nil {
		if ue, ok := err.(unauthorizedErr); ok {
			return ue.Unauthorized()
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// CredentialChecker is the credential face of a transport
// (internal/query.Engine implements it). When the Transport has one and it
// reports Credentialed — a query plane with an authority key — the credential
// plane's controller half is on: facts from unauthorized hosts are refused
// at ingestion (HostAuthorized) and fall back to answer-on-behalf/no-info,
// and registered facts are leased no longer than the asserting credential's
// remaining lifetime (CredentialExpiry), so credential expiry tears dependent
// flows down through the revocation index. Netsim and experiments have no
// such transport: the insecure mode.
type CredentialChecker interface {
	Credentialed() bool
	HostAuthorized(host netaddr.IP) bool
	CredentialExpiry(host netaddr.IP) (time.Time, bool)
}

// QueryTransport delivers an ident++ query to a host's daemon and returns
// its response plus the round-trip latency (virtual in simulation, wall on
// TCP). Under Config.AsyncQueries the transport must also have a
// completion-style face, which New finds by its method: QueryAsyncTraced
// (queryFunc's signature; internal/query.Engine) or the 3-argument
// QueryAsync(host, q, done).
type QueryTransport interface {
	Query(host netaddr.IP, q wire.Query) (*wire.Response, time.Duration, error)
}

// queryFunc is the one face the decision path asks a transport through. done
// is invoked exactly once — inline on the caller (a blocking transport, the
// query plane's fast-path failures and caches), or later on whichever
// goroutine learns the outcome (over the query plane's Pool, the daemon
// connection's reader). The response it delivers is a read-only borrow. tb
// is the decision's flight-recorder buffer and epFlag its endpoint
// (trace.FlagSrc or trace.FlagDst), OR'd into every event recorded for the
// exchange: one StageQueryEnqueue when the query is accepted or rejected, one
// StageQueryDone before done runs. A nil tb records nothing.
type queryFunc func(host netaddr.IP, q wire.Query, tb *trace.Buffer, epFlag uint16, done func(resp *wire.Response, rtt time.Duration, err error))

// resolveTransport picks the transport's one face, once. internal/query.Engine
// has queryFunc's shape itself and records richer span events than the
// controller could (breaker, negative cache, attempts); a transport with only
// the 3-argument QueryAsync, and — without AsyncQueries — any transport's
// blocking Query, completed inline on the caller, are wrapped by selfTracing.
func resolveTransport(tr QueryTransport, async bool) queryFunc {
	if !async {
		return selfTracing(func(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
			done(tr.Query(host, q))
		})
	}
	switch t := tr.(type) {
	case interface {
		QueryAsyncTraced(netaddr.IP, wire.Query, *trace.Buffer, uint16, func(*wire.Response, time.Duration, error))
	}:
		return t.QueryAsyncTraced
	case interface {
		QueryAsync(netaddr.IP, wire.Query, func(*wire.Response, time.Duration, error))
	}:
		return selfTracing(t.QueryAsync)
	}
	panic("core: Config.AsyncQueries requires a Transport with QueryAsync or QueryAsyncTraced")
}

// selfTracing adapts a transport that knows nothing of the flight recorder:
// the adapter records the enqueue/done pair itself, the done event before the
// caller's completion runs (which may finish the decision and re-pool tb). An
// untraced decision passes straight through, allocating nothing.
func selfTracing(issue func(netaddr.IP, wire.Query, func(*wire.Response, time.Duration, error))) queryFunc {
	return func(host netaddr.IP, q wire.Query, tb *trace.Buffer, epFlag uint16, done func(*wire.Response, time.Duration, error)) {
		if tb != nil {
			tb.Rec(trace.StageQueryEnqueue, epFlag, 0)
			inner := done
			done = func(resp *wire.Response, rtt time.Duration, err error) {
				flags := epFlag
				if err != nil {
					flags |= trace.FlagErr
				}
				tb.Rec(trace.StageQueryDone, flags, int64(rtt))
				inner(resp, rtt, err)
			}
		}
		issue(host, q, done)
	}
}

// Hop is one switch traversal on a flow's path.
type Hop struct {
	Datapath uint64
	OutPort  uint16
}

// Topology answers path queries so the controller can "insert entries in
// switches across the network preemptively" (§3.1). The controller only
// reads a path it is given, so a topology may hand every caller one slice.
type Topology interface {
	Path(src, dst netaddr.IP) ([]Hop, error)
}

// Config parameterizes a Controller.
type Config struct {
	// Name names the controller in the responses it augments (§3.4) and in
	// the cookie of every entry it installs (the installer tag, cookie.go):
	// keep it across restarts. A cluster replica's is its member id.
	Name      string
	Policy    *pf.Policy
	Transport QueryTransport
	Topology  Topology

	// IdleTimeout is applied to installed entries (default 60s); they get
	// no hard timeout (Ethane-style).
	IdleTimeout time.Duration

	// InstallEntries caches verdicts in switch flow tables. Disabling it is
	// the M5 ablation: every packet of every flow punts to the controller.
	InstallEntries bool

	// AsyncQueries lets a cache-missing decision outlive HandleEvent: the two
	// endpoint queries go out through the transport's completion-style face
	// (see QueryTransport), HandleEvent returns once both are enqueued, and
	// the completion that delivers the second response finishes the decision
	// (evaluation, install, waiter resolution) wherever the transport runs it
	// — over the query plane, the daemon connection's reader. Off, the
	// transport's blocking Query is asked for one end, then the other, and
	// HandleEvent returns with the decision finished.
	AsyncQueries bool

	// ResponseCacheTTL turns on the verdict cache (megaflow.go): each full
	// decision's verdict is kept for this long, pinned to the policy epoch,
	// so retransmissions during slow installs and repeated short flows
	// resolve in one table probe — no daemon query, no evaluation. Zero
	// disables the cache.
	ResponseCacheTTL time.Duration

	// Megaflow chooses the mask a verdict is cached under. Off, it is the
	// whole tuple: an entry serves repeats of the decided flow only. On,
	// it is the decision's field-use trace: the verdict is widened to the
	// traffic equivalence class that shares the header fields the decision
	// actually consumed, so a new flow in a decided class resolves from
	// the cache too. Requires ResponseCacheTTL.
	Megaflow bool

	// Revocation enables the revocation plane: every cache-missing decision
	// registers the (host, key) facts its verdict read in a fact-dependency
	// index — one record, under its cache entry when the verdict is cached,
	// under its flow otherwise — and HandleUpdate — fed daemon-pushed
	// endpoint-state updates by the query plane — tears affected verdicts
	// down live (cache entry dropped, flow-table entries deleted along the
	// installed path, audit record emitted). The cache-hit fast path is
	// untouched: it neither registers nor consults the index.
	Revocation bool

	// RevocationLeaseTTL is the fallback for daemons that never push (the
	// honest-but-legacy case): facts from hosts that have not said hello
	// are leased for this long, and SweepLeases tears expired flows down,
	// forcing a fresh query — short-lived credentials where no revocation
	// channel exists. Zero disables leases. Requires Revocation.
	RevocationLeaseTTL time.Duration

	// Shards sets the number of flow-state shards, rounded up to a power
	// of two. Zero picks a hardware-sized default (≥ GOMAXPROCS).
	Shards int

	// Clock for cache expiry; defaults to time.Now.
	Clock func() time.Time

	// Trace is the per-decision flight recorder (internal/trace). Nil — the
	// default — disables tracing entirely: every instrument point on the
	// decision path degenerates to a nil-receiver call and the ≤2 allocs/op
	// budgets hold unchanged. When set, each decision records stage-boundary
	// span events into a pooled buffer, sampled/slow traces are retained in
	// the recorder's ring, and the trace ID propagates on the query wire
	// (and, via the cluster router, across replica hand-offs).
	Trace *trace.Recorder
}

// ctlState is the immutable configuration snapshot the fast path reads.
// Mutators never modify a published snapshot: they clone, edit the clone,
// and atomically swap it in under writeMu.
type ctlState struct {
	epoch  uint64 // bumped by SetPolicy; pins cached verdicts to a policy
	policy *pf.Policy
	// prog is the policy's compiled decision program, captured in the
	// snapshot so the fast path reaches the header-only pre-pass and the
	// per-rule key analysis without re-deriving anything per event.
	prog      *pf.Program
	datapaths map[uint64]openflow.Datapath
	answers   map[netaddr.IP][]wire.KV // answer-on-behalf data (§3.4, §4)
	augment   func(q wire.Query, resp *wire.Response)
}

// clone copies the snapshot's maps so the edit never aliases a published
// state. Slice values (answers) are replaced wholesale by mutators, never
// appended to in place, so sharing them here is safe.
func (st *ctlState) clone() *ctlState {
	c := *st
	c.datapaths = make(map[uint64]openflow.Datapath, len(st.datapaths)+1)
	for k, v := range st.datapaths {
		c.datapaths[k] = v
	}
	c.answers = make(map[netaddr.IP][]wire.KV, len(st.answers)+1)
	for k, v := range st.answers {
		c.answers[k] = v
	}
	return &c
}

// Controller is an ident++-enabled OpenFlow controller.
type Controller struct {
	name      string
	sourceTag string  // "controller:<name>", the §3.4 augmentation source, built once
	cookies   cookies // the cookie layout under the name's installer tag (cookie.go)
	// query is Config.Transport's one face (resolveTransport): every miss
	// asks both ends through it and is finished by the second completion.
	query queryFunc
	// tr is the flight recorder; nil = tracing disabled (the common case).
	tr       *trace.Recorder
	topo     Topology
	idle     time.Duration
	install  bool
	cacheTTL time.Duration
	clock    func() time.Time

	state   atomic.Pointer[ctlState] // read-mostly snapshot; fast path loads once
	writeMu sync.Mutex               // serializes snapshot writers only
	flows   *shardTable              // sharded in-flight flow state (shard.go)
	hosts   hostGens                 // the host fence (shard.go)
	mega    *megaTable               // the verdict cache (nil unless ResponseCacheTTL > 0)
	widen   bool                     // Config.Megaflow: cache under the trace's mask, not the full one

	// revoker is the revocation plane's fact-dependency index (nil unless
	// Config.Revocation); leaseTTL the legacy-daemon lease fallback.
	revoker  *revoke.Index
	leaseTTL time.Duration

	// credTr is the transport's credential face (nil unless it enforces
	// credentials): consulted at fact ingestion and when leasing registered
	// facts.
	credTr CredentialChecker

	// Counters and latency recorder are exported for the harness.
	Counters *metrics.Counter
	Setup    *metrics.SetupRecorder
	Audit    *AuditLog

	// hot caches the counter cells the decision path bumps on every event,
	// so the fast path pays one atomic add per counter instead of a map
	// lookup plus the add.
	hot struct {
		packetIns, dupPacketIns             *atomic.Int64
		waitersResolved, waitersForwarded   *atomic.Int64
		flowsAllowed, flowsDenied, installs *atomic.Int64
		evalDiags, installErrors            *atomic.Int64
		queryErrors, queryTimeouts          *atomic.Int64
		credUnauthorized                    *atomic.Int64
		answeredOnBehalf, headerOnly        *atomic.Int64
		revUpdates, revFlows, revInflight   *atomic.Int64
		revRedecided, revVoidDropped        *atomic.Int64
		revEntries                          *atomic.Int64
		megaHits, megaInstalls              *atomic.Int64
		megaTeardowns                       *atomic.Int64
	}
}

// New creates a controller. Config.Policy, Transport and Topology are
// required; the rest default sensibly.
func New(cfg Config) *Controller {
	if cfg.Policy == nil {
		panic("core: Config.Policy is required")
	}
	if cfg.Transport == nil {
		panic("core: Config.Transport is required")
	}
	if cfg.Topology == nil {
		panic("core: Config.Topology is required")
	}
	idle := cfg.IdleTimeout
	if idle == 0 {
		idle = 60 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = defaultShards()
	}
	c := &Controller{
		name:      cfg.Name,
		sourceTag: "controller:" + cfg.Name,
		cookies:   cookies{tag: installerTag(cfg.Name)},
		query:     resolveTransport(cfg.Transport, cfg.AsyncQueries),
		tr:        cfg.Trace,
		topo:      cfg.Topology,
		idle:      idle,
		install:   cfg.InstallEntries,
		cacheTTL:  cfg.ResponseCacheTTL,
		clock:     clock,
		flows:     newShardTable(shards),
		Counters:  metrics.NewCounter(),
		Setup:     metrics.NewSetupRecorder(),
		Audit:     NewAuditLog(0),
	}
	c.hot.packetIns = c.Counters.Cell("packet_ins")
	c.hot.dupPacketIns = c.Counters.Cell("duplicate_packet_ins")
	c.hot.waitersResolved = c.Counters.Cell("waiters_resolved")
	c.hot.waitersForwarded = c.Counters.Cell("waiters_forwarded")
	c.hot.flowsAllowed = c.Counters.Cell("flows_allowed")
	c.hot.flowsDenied = c.Counters.Cell("flows_denied")
	c.hot.installs = c.Counters.Cell("entries_installed")
	c.hot.evalDiags = c.Counters.Cell("eval_diags")
	c.hot.installErrors = c.Counters.Cell("install_errors")
	c.hot.queryErrors = c.Counters.Cell("query_errors")
	c.hot.queryTimeouts = c.Counters.Cell("query_timeouts")
	c.hot.credUnauthorized = c.Counters.Cell("cred_unauthorized")
	c.hot.answeredOnBehalf = c.Counters.Cell("answered_on_behalf")
	c.hot.headerOnly = c.Counters.Cell("decisions_headeronly")
	c.hot.revUpdates = c.Counters.Cell("revocations_updates")
	c.hot.revFlows = c.Counters.Cell("revocations_flows")
	c.hot.revInflight = c.Counters.Cell("revocations_inflight")
	c.hot.revRedecided = c.Counters.Cell("revocations_redecided")
	c.hot.revVoidDropped = c.Counters.Cell("revocations_void_dropped")
	c.hot.revEntries = c.Counters.Cell("revocations_entries")
	c.hot.megaHits = c.Counters.Cell("megaflow_hits")
	c.hot.megaInstalls = c.Counters.Cell("megaflow_installs")
	c.hot.megaTeardowns = c.Counters.Cell("megaflow_teardowns")
	if cfg.Megaflow && cfg.ResponseCacheTTL <= 0 {
		panic("core: Config.Megaflow requires ResponseCacheTTL > 0 (widened entries share the cache TTL)")
	}
	if cfg.ResponseCacheTTL > 0 {
		c.mega = newMegaTable(shards)
		c.widen = cfg.Megaflow
	}
	if cfg.Revocation {
		c.revoker = revoke.NewIndex(shards)
		c.leaseTTL = cfg.RevocationLeaseTTL
	}
	if ct, ok := cfg.Transport.(CredentialChecker); ok && ct.Credentialed() {
		c.credTr = ct
	}
	c.state.Store(&ctlState{
		policy:    cfg.Policy,
		prog:      cfg.Policy.Program(),
		datapaths: make(map[uint64]openflow.Datapath),
		answers:   make(map[netaddr.IP][]wire.KV),
	})
	return c
}

// Name returns the controller's name (used in augmentation sections).
func (c *Controller) Name() string { return c.name }

// Shards returns the shard count of the flow-state table.
func (c *Controller) Shards() int { return len(c.flows.shards) }

// Epoch returns the current policy epoch: 0 at construction, bumped by
// every SetPolicy. Exported as a gauge so operators can confirm a policy
// push actually swapped the snapshot (the health/metrics surface's
// "epoch advancing" signal).
func (c *Controller) Epoch() uint64 {
	return c.state.Load().epoch
}

// DatapathCount returns the number of registered switches in the current
// snapshot — the readiness signal a controller with no network should
// report before claiming it can enforce anything.
func (c *Controller) DatapathCount() int {
	return len(c.state.Load().datapaths)
}

// ShardStat is one flow-state shard's occupancy snapshot: in-flight
// decisions and the parked duplicate packet-ins across them.
type ShardStat struct {
	Pending int
	Waiters int
}

// ShardStats snapshots every shard for the per-shard drill-down
// (the `/shards` operator view). Each shard is locked briefly in turn; the
// result is a consistent per-shard view, not a cross-shard atomic one.
func (c *Controller) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.flows.shards))
	for i := range c.flows.shards {
		s := &c.flows.shards[i]
		s.mu.Lock()
		stat := ShardStat{Pending: len(s.pending)}
		for _, d := range s.pending {
			stat.Waiters += len(d.waiters)
		}
		s.mu.Unlock()
		out[i] = stat
	}
	return out
}

// ClassRecordStats reports the revocation index's class records — one per
// cached verdict: resident count plus lifetime register/drop totals. Zeros
// when revocation is disabled.
func (c *Controller) ClassRecordStats() (live int, registered, dropped int64) {
	if c.revoker == nil {
		return 0, 0, 0
	}
	return c.revoker.ClassStats()
}

// PolicyRuleCacheStats reports the current policy's embedded-rules memo
// occupancy and lifetime evictions (pf.Policy.RuleCacheStats, surfaced
// here so operators reach it through the same snapshot the fast path
// reads).
func (c *Controller) PolicyRuleCacheStats() (entries, evictions int64) {
	return c.state.Load().policy.RuleCacheStats()
}

// PolicyScanStats reports the compiled policy's size and the most rules
// one decision's scan can have to look at under its dispatch index
// (pf.Program.ScanWorstCase), from the snapshot the fast path reads — so
// the figures follow every SetPolicy.
func (c *Controller) PolicyScanStats() (rules, worstCase int) {
	prog := c.state.Load().prog
	return prog.NumRules(), prog.ScanWorstCase()
}

// HostDependencies snapshots the revocation index's per-host view (flows
// and megaflow classes depending on each host's facts, push-capability) —
// the per-host drill-down. Nil when revocation is disabled.
func (c *Controller) HostDependencies() []revoke.HostStat {
	if c.revoker == nil {
		return nil
	}
	return c.revoker.Hosts(nil)
}

// mutate applies edit to a private clone of the current snapshot and
// publishes the result. Concurrent readers see either the old or the new
// snapshot, never a partial edit.
func (c *Controller) mutate(edit func(st *ctlState)) *ctlState {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	st := c.state.Load().clone()
	edit(st)
	c.state.Store(st)
	return st
}

// AddDatapath registers a switch the controller programs.
func (c *Controller) AddDatapath(dp openflow.Datapath) {
	c.mutate(func(st *ctlState) {
		st.datapaths[dp.DatapathID()] = dp
	})
}

// RemoveDatapath deregisters dp when its connection is gone, so installs
// stop being attempted (and counted as install_errors) on a dead handle. It
// is guarded by identity: when a reconnect has already registered a new
// handle under the same datapath ID, the old connection's late disconnect
// removes nothing. It reports whether dp was the registered handle.
func (c *Controller) RemoveDatapath(dp openflow.Datapath) bool {
	removed := false
	c.mutate(func(st *ctlState) {
		if st.datapaths[dp.DatapathID()] == dp {
			delete(st.datapaths, dp.DatapathID())
			removed = true
		}
	})
	return removed
}

// SetPolicy atomically replaces the policy and flushes every cached verdict
// from the switches — the revocation path: a delegation withdrawn in the
// policy takes effect for the next packet of every flow. The snapshot swap
// bumps the policy epoch, so verdicts cached by decisions racing this call
// are stale-on-arrival; the verdict cache is then emptied and one flush
// under this controller's installer tag issued per switch, in turn on this
// goroutine — other replicas' entries stay (each replica applies a
// replicated policy through its own SetPolicy). A flush is an append to the
// switch's channel, so the reload costs their sum only when a switch has
// stopped reading — at most the channel's 5 s write deadline each, after
// which that switch is cut off and deregistered.
func (c *Controller) SetPolicy(p *pf.Policy) {
	c.mutate(func(st *ctlState) {
		st.epoch++
		st.policy = p
		st.prog = p.Program()
	})

	if c.mega != nil {
		// Correctness never depended on the flush (the epoch bump already
		// invalidated every entry), but it also kills each entry, so hits
		// in flight self-clean instead of appending paths to an
		// unreachable entry.
		c.mega.flushAll()
	}
	if c.revoker != nil {
		// Every registration described a decision of the old policy; the
		// table flush below removes the entries wholesale.
		c.revoker.FlushAll()
	}
	c.deleteTagged(c.cookies.tag)
	c.Counters.Add("policy_reloads", 1)
}

// AnswerForHost registers static pairs the controller serves on behalf of a
// host without a daemon (§3.4 "the controller spoofs the IP address of the
// end-host, sends a response itself"; §4 incremental deployment).
func (c *Controller) AnswerForHost(ip netaddr.IP, pairs ...wire.KV) {
	c.mutate(func(st *ctlState) {
		// Replace, don't append in place: the old slice may be shared with
		// published snapshots still being read.
		merged := make([]wire.KV, 0, len(st.answers[ip])+len(pairs))
		merged = append(merged, st.answers[ip]...)
		merged = append(merged, pairs...)
		st.answers[ip] = merged
	})
}

// SetAugmenter installs the response-augmentation hook used when this
// controller intercepts ident++ responses transiting its network (§3.4).
func (c *Controller) SetAugmenter(f func(q wire.Query, resp *wire.Response)) {
	c.mutate(func(st *ctlState) {
		st.augment = f
	})
}

// HandlePacketIn implements openflow.Controller for in-process switches.
func (c *Controller) HandlePacketIn(sw *openflow.Switch, ev openflow.PacketIn) {
	c.HandleEvent(ev)
}

// HandleFlowRemoved implements openflow.Controller. The ingress entry is
// the only one installed with NotifyRemoved, so its eviction means the
// flow's forward path is gone from the network's point of view, and a
// verdict that is the flow's alone goes with it: the cached verdict whose
// class is exactly that flow is retired — or a flow that idle-timed-out
// would be re-admitted from cache without re-querying though the daemon
// might now answer differently (stale-grant-on-reuse) — or the uncached
// flow's record is dropped; and whatever entries remain along the installed
// path are deleted, so no orphan state lingers on non-ingress switches. A
// wider class (Config.Megaflow) answers for its other members too: it
// stays, and with it the flow's remaining entries, which idle out or fall
// with the class.
func (c *Controller) HandleFlowRemoved(sw *openflow.Switch, ev openflow.FlowRemoved) {
	c.Counters.Add("flow_removed", 1)
	five := ev.Match.Tuple.Five()
	st := c.state.Load()
	if c.mega != nil {
		if e := c.mega.exact(five); e != nil {
			if paths, ok := c.retireMega(e); ok {
				c.deleteMegaAt(st, e, paths)
				if !e.aged {
					c.hot.megaTeardowns.Add(1)
				}
			}
		}
	}
	if c.revoker == nil {
		return
	}
	reg, ok := c.revoker.Drop(five)
	if !ok {
		return
	}
	// The notifying switch is included on purpose: only the flow's forward
	// entry was evicted there — a keep-state reverse entry at the same
	// switch must go too (deleting the already-gone forward entry is a
	// no-op).
	c.deleteFlowAt(st, five, reg.Paths)
}

// HandleEvent is the Figure 1 pipeline. It is safe for concurrent calls and
// takes no global locks: configuration comes from one atomic snapshot load,
// per-flow state from the flow's shard, and the decision's working set from
// a pooled scratch — the steady-state path allocates nothing (see
// decisionScratch and the M8 allocation budget).
//
// On a verdict-cache hit or a header-only verdict the decision completes
// right here. On a miss the two endpoint queries are issued and the second
// completion runs finishDecision — before HandleEvent returns when the
// transport completes inline (every blocking transport; the query plane's
// fast-path rejections), otherwise wherever the transport completes: under
// AsyncQueries over the query plane HandleEvent returns as soon as both
// queries are enqueued, the event loop is free for the next packet-in, and
// the decision finishes on the reader of the daemon connection whose
// response arrived second.
func (c *Controller) HandleEvent(ev openflow.PacketIn) {
	c.hot.packetIns.Add(1)
	st := c.state.Load()
	dp := st.datapaths[ev.SwitchID]
	if dp == nil {
		c.Counters.Add("unknown_datapath", 1)
		return
	}
	if ev.Tuple.EthType != flow.EthTypeIPv4 {
		// Policy is written over IP flows; other ether types are dropped at
		// the edge (a deployment would run a learning-switch app besides).
		dp.ReleaseBuffer(ev.BufferID)
		c.Counters.Add("non_ip_dropped", 1)
		return
	}
	five := ev.Tuple.Five()
	sh := c.flows.shardFor(five)

	// Duplicate packet-ins for a flow whose verdict is being computed park
	// on the in-flight decision's waiter list; its verdict resolves them.
	// A full waiter list (slow verdict at line rate) degrades to the
	// release-now path so one flow cannot pin unbounded switch buffers.
	s, parkedOK := sh.begin(five, dp, ev)
	if s == nil {
		c.hot.dupPacketIns.Add(1)
		if !parkedOK {
			dp.ReleaseBuffer(ev.BufferID)
			c.Counters.Add("waiters_overflowed", 1)
		}
		return
	}

	// The decision owns the flow from here until finishDecision resolves
	// it; capture the continuation context in the scratch so a suspended
	// decision survives this goroutine. The frame is the one part of the
	// event that may not: a switch channel reads every message into one
	// buffer, so the decision keeps a copy in the scratch's own.
	s.frame = append(s.frame[:0], ev.Frame...)
	ev.Frame = s.frame
	s.sh, s.dp, s.ev, s.five = sh, dp, ev, five
	// Flight recorder: a nil recorder returns a nil buffer and every Rec
	// below is a nil-receiver no-op — the disabled path stays within the
	// M8 allocation budget. A forwarded packet-in carries the forwarder's
	// trace ID and stitches here.
	s.tb = c.tr.Begin(ev.TraceID)
	s.tb.SetFlow(uint8(five.Proto), uint32(five.SrcIP), uint32(five.DstIP), uint16(five.SrcPort), uint16(five.DstPort))
	c.decide(s, st)
}

// maxAttempts bounds the attempts at one packet-in's decision: a voided
// attempt re-decides in place once, and a second void drops the packet.
const maxAttempts = 2

// decide runs one attempt at the claimed flow's decision: cache probe,
// header-only pre-pass, then the two endpoint queries. The host fence's
// generations are captured first, before anything is read (see shard.go).
func (c *Controller) decide(s *decisionScratch, st *ctlState) {
	five := s.five
	s.attempts++
	s.srcGen, s.dstGen = c.hosts.load(five.SrcIP), c.hosts.load(five.DstIP)
	g := &s.gather
	g.c, g.st = c, st

	// Cache probe first: a flow inside an already-decided class (with the
	// full mask, the decided flow itself) takes the stored verdict directly
	// — no query, no evaluation. Header-only flows never insert entries
	// (see below), so the probe can never return a verdict the pre-pass
	// would have overridden.
	if c.mega != nil {
		if e := c.mega.lookup(five, c.clock(), st.epoch); e != nil {
			c.hot.megaHits.Add(1)
			s.tb.Rec(trace.StageMegaflowProbe, trace.FlagHit, 0)
			g.mega = e
			c.finishDecision(s)
			return
		}
		s.tb.Rec(trace.StageMegaflowProbe, 0, 0)
	}

	// Header-only pre-pass: when the compiled program admits it at all,
	// scan the per-rule static key sets against this flow's header. A
	// flow none of whose possibly-matching rules can read endpoint
	// information is decided and installed right here — no cache entry,
	// no query, no suspension; a whole workload class that never touches
	// the query plane. The same scan yields the per-flow key hints a
	// cache-missing decision sends instead of the global key list.
	hintsDone := false
	if st.prog.MaybeHeaderOnly() {
		evalStart := time.Now()
		var d pf.Decision
		var decided bool
		d, decided, s.srcKeys, s.dstKeys = st.prog.Prepass(five, s.srcKeys[:0], s.dstKeys[:0])
		s.bd.Eval = time.Since(evalStart)
		if decided {
			c.hot.headerOnly.Add(1)
			s.tb.Rec(trace.StagePrepass, trace.FlagHit, int64(s.bd.Eval))
			g.pre, g.preDecided = d, true
			c.finishDecision(s)
			return
		}
		s.tb.Rec(trace.StagePrepass, 0, int64(s.bd.Eval))
		hintsDone = true
	}

	// Each end is asked only for the keys some still-matching rule could
	// read for this flow (§3.2's "list of keys that the controller is
	// interested in", sharpened per flow by the compiled program's per-rule
	// key sets).
	if !hintsDone {
		s.srcKeys, s.dstKeys = st.prog.Hints(five, s.srcKeys[:0], s.dstKeys[:0])
	}
	// The trace ID rides each endpoint query as a legacy-tolerant wire
	// line, so the daemon-side view of this exchange attributes to this
	// decision. ID() is 0 on a nil buffer and EncodeQuery omits it.
	g.qs = wire.Query{Flow: five, Keys: s.srcKeys, TraceID: s.tb.ID()}
	g.qd = wire.Query{Flow: five, Keys: s.dstKeys, TraceID: s.tb.ID()}
	// One gather sequence: hand both endpoint queries to the transport (§2
	// step 3); whichever completion drops pending to zero finishes the
	// decision. pending is armed before the first enqueue because a
	// completion may run inline — always, over a blocking transport, whose
	// two ends are therefore asked one after the other; on a negative-cache
	// hit or an open breaker over the query plane. The second call may finish
	// the decision and release the scratch: nothing reads s or g after it.
	g.pending.Store(2)
	c.query(five.SrcIP, g.qs, s.tb, trace.FlagSrc, g.srcDoneFn)
	c.query(five.DstIP, g.qd, s.tb, trace.FlagDst, g.dstDoneFn)
}

// finishDecision is the back half of the Figure 1 pipeline: evaluate the
// policy (or take the cached verdict), record the audit entry, install the
// verdict, cache it, and resolve the parked duplicates. It runs on the
// packet-in goroutine for cache hits, header-only verdicts and inline
// completions, and on the transport's completing goroutine (the daemon
// connection's reader) for a decision that outlived HandleEvent. Everything
// it touches is either scratch-owned or independently synchronized, so every
// arrival shares this one code path; on a reader it must not block.
func (c *Controller) finishDecision(s *decisionScratch) {
	if c.fenced(s) {
		// An update overturned what this attempt asked about after it claimed
		// the flow: the responses it gathered (or the cached verdict it read)
		// may predate the change. Publishing would re-install possibly-stale
		// state right behind the teardown, so the attempt is void — nothing
		// cached, nothing installed — and the decision starts over from the
		// cache probe, here, with the packet still buffered. A second void
		// releases the buffer and the packet's retransmission re-decides.
		c.hot.revInflight.Add(1)
		s.tb.Rec(trace.StageRevocationVoid, 0, 0)
		if s.attempts < maxAttempts {
			c.hot.revRedecided.Add(1)
			s.again()
			c.decide(s, c.state.Load())
			return
		}
		c.hot.revVoidDropped.Add(1)
		s.tb.SetVerdict("voided")
		s.dp.ReleaseBuffer(s.ev.BufferID)
		c.endDecision(s, false)
		return
	}
	pass := false
	defer func() { c.endDecision(s, pass) }()

	st, five := s.gather.st, s.five
	g := &s.gather
	bd := &s.bd
	bd.QuerySrc, bd.QueryDst = g.qsrc, g.qdst

	var d pf.Decision
	hit := g.mega != nil
	switch {
	case g.preDecided:
		// The header-only pre-pass already decided (and timed itself into
		// bd.Eval); evaluating again would just re-derive it.
		d = g.pre
	case hit:
		// The class verdict is the flow's verdict.
		d = pf.Decision{Action: g.mega.action, Rule: g.mega.rule, Matched: g.mega.matched, KeepState: g.mega.keepState}
	case c.mega != nil && !g.srcTransient && !g.dstTransient:
		// The verdict is cached — before anything is installed, so the
		// founder installs below as its class's first member. The trace says
		// which ends it read (its fact dependencies) and, under
		// Config.Megaflow, its mask. Only decisions whose information is as
		// good as it gets are cached: a verdict shaped by a transient
		// transport failure (timeout, reset, open breaker) must not pin its
		// no-info view of the host for the whole TTL — the daemon may answer
		// again for the next packet.
		evalStart := time.Now()
		var tr pf.Trace
		d, tr = st.policy.EvaluateTraced(pf.Input{Flow: five, Src: g.src, Dst: g.dst})
		bd.Eval = time.Since(evalStart)
		g.mega = c.megaInstall(s, st, d, tr)
	default:
		evalStart := time.Now()
		d = st.policy.Evaluate(pf.Input{Flow: five, Src: g.src, Dst: g.dst})
		bd.Eval = time.Since(evalStart)
	}

	if s.tb != nil {
		var evalFlags uint16
		if d.Action != pf.Pass {
			evalFlags = trace.FlagDeny
		}
		s.tb.Rec(trace.StageEval, evalFlags, int64(bd.Eval))
	}

	c.Setup.Observe(*bd)
	c.Audit.Record(AuditEntry{
		Time:      c.clock(),
		Flow:      five,
		Action:    d.Action,
		Rule:      ruleString(d.Rule),
		Matched:   d.Matched,
		KeepState: d.KeepState,
		Diags:     d.Diags,
		Setup:     *bd,
	})

	if d.Action == pf.Pass {
		pass = true
		s.tb.SetVerdict("pass")
		c.hot.flowsAllowed.Add(1)
		c.installPath(st, s.dp, s.ev, five, d.KeepState, s)
		s.tb.Rec(trace.StageInstall, 0, int64(s.installed))
	} else {
		s.tb.SetVerdict("deny")
		c.hot.flowsDenied.Add(1)
		c.installDrop(s.dp, s.ev, five, s)
		s.tb.Rec(trace.StageInstall, trace.FlagDeny, int64(s.installed))
	}
	if len(d.Diags) > 0 {
		c.hot.evalDiags.Add(1)
	}

	if g.preDecided {
		// Header-only decisions gathered nothing and read no endpoint facts:
		// they re-decide from the header alone per packet, cheaper than a
		// cache probe would be, and never touch the revocation index.
		return
	}
	if g.mega != nil {
		// Publish this member's installed datapaths to the class's
		// teardown set. Refusal means the class was torn down while this
		// member was installing: its entries postdate the teardown's path
		// snapshot, so the member deletes its own installs — the self-clean
		// half of the teardown handshake (megaflow.go). The class's record
		// is every member's record: a hit touches no index — the hot path
		// stays exactly as fast as without revocation.
		if !g.mega.addPaths(s.pathIDs) {
			c.deleteMegaAt(st, g.mega, s.pathIDs)
			c.Counters.Add("megaflow_hit_raced", 1)
		}
	} else if c.revoker != nil && c.install {
		// Revocation plane, uncached verdict: record which endpoint facts
		// it read, so a daemon-pushed update resolves straight to this flow.
		c.registerDeps(s)
	} else {
		return // nothing published that a revocation could have missed
	}
	// Publication re-check: a revocation that landed after the fence check
	// at the top resolved to nothing (neither the cached verdict nor the
	// record existed yet) — its state is gone, but ours just went live on
	// pre-revocation facts. The entry or the record is in place now (a
	// revocation trips the fence before it resolves, and we registered
	// before reading it), so tearing ourselves down reaches everything this
	// decision cached and installed; the next packet re-decides under
	// current facts. Nothing on hits.
	if !hit && c.fenced(s) {
		c.Counters.Add("revocations_raced", 1)
		c.revokeResolved(five, "raced-decision")
	}
}

// fenced reports whether either fence (see shard.go) tripped since the
// decision's current attempt claimed its flow.
func (c *Controller) fenced(s *decisionScratch) bool {
	return s.voided.Load() || c.hosts.load(s.five.SrcIP) != s.srcGen || c.hosts.load(s.five.DstIP) != s.dstGen
}

// endDecision ends the flow's in-flight window and disposes of the decision:
// the parked duplicates get the verdict (pass says which), and the scratch —
// including its controller-built response views, which nothing outlives the
// decision to read — goes back to its pools.
func (c *Controller) endDecision(s *decisionScratch, pass bool) {
	// Resolve after the verdict's entries are installed: released buffers
	// then hit the fresh table entry instead of re-punting. On ablation runs
	// there is no table entry, so passed waiters are packet-out'd along the
	// path instead of silently dropped.
	s.sh.resolve(s.five)
	if n := len(s.waiters); n > 0 {
		s.tb.Rec(trace.StageWaiterRelease, 0, int64(n))
		c.resolveWaiters(s.waiters, pass, s.hops)
		c.hot.waitersResolved.Add(int64(n))
	}
	// The trace buffer goes first: Finish retires it into the recorder's ring
	// (or drops it) and re-pools it, so release() only nils the reference.
	s.gather.releaseBuilt()
	c.tr.Finish(s.tb)
	s.release()
}

// resolveWaiters disposes of the parked duplicate packet-ins after the
// verdict. With entries installed, releasing the buffer forwards (or drops)
// the packet through the fresh table entry. On ablation runs of a pass
// verdict there is no entry, so each waiter's frame is packet-out'd along
// hops — the path installPath already resolved for the owner's packet
// (empty on deny, install mode, or path error: fall back to release-only).
// Previously these duplicates were released into a table miss and lost,
// under-counting delivered packets in the M5 ablation.
func (c *Controller) resolveWaiters(waiters []parked, pass bool, hops []Hop) {
	if !pass || c.install {
		hops = nil
	}
	for i := range waiters {
		w := &waiters[i]
		w.dp.ReleaseBuffer(w.bufferID)
		if len(w.frame) == 0 {
			continue
		}
		for _, h := range hops {
			if h.Datapath == w.switchID {
				w.dp.PacketOut(h.OutPort, w.frame)
				c.hot.waitersForwarded.Add(1)
				break
			}
		}
	}
}

// resolveResponse turns one end's query outcome into the response the
// policy will see: the daemon's answer when it has one, the controller's
// answer-on-behalf data (§3.4, §4) when the host authoritatively runs no
// daemon, and nothing at all otherwise. Transport trouble against a
// daemon'd host — a timeout, a reset, an open circuit breaker — must not
// be laundered into the controller impersonating the host: those fall
// through with a nil response so the policy renders its no-info verdict,
// and are counted apart (query_timeouts vs query_errors) so operators can
// tell a down daemon from a daemon-less one. built reports that the
// response is a controller-built view from the pf pool, owned by the
// caller until its decision finishes; transient reports exactly the
// transport-trouble case, so the decision it feeds is not cached —
// the daemon may be answering again for the very next packet.
func (c *Controller) resolveResponse(st *ctlState, five flow.Five, host netaddr.IP, resp *wire.Response, rtt time.Duration, err error) (_ *wire.Response, _ time.Duration, built, transient bool) {
	if err == nil {
		// The credentialed query plane already rejects unauthorized
		// responses, but ingestion is the trust boundary —
		// re-check here so no transport composition can slip facts from an
		// unauthorized host into a verdict. Refused answers fall through
		// to answer-on-behalf/no-info like any unauthorized session.
		if c.credTr == nil || c.credTr.HostAuthorized(host) {
			return resp, rtt, false, false
		}
		c.hot.credUnauthorized.Add(1)
	} else if !IsNoDaemon(err) {
		if IsTimeout(err) {
			c.hot.queryTimeouts.Add(1)
		} else {
			c.hot.queryErrors.Add(1)
		}
		return nil, rtt, false, true
	} else if isUnauthorized(err) {
		// The credential plane rejected the daemon's word (forged,
		// expired, out-of-scope): counted apart from transport trouble so
		// operators can tell "daemon down" from "daemon unauthorized".
		c.hot.credUnauthorized.Add(1)
	} else {
		c.hot.queryErrors.Add(1)
	}
	// Answer on behalf of daemon-less hosts from local configuration.
	pairs := st.answers[host]
	if len(pairs) == 0 {
		return nil, rtt, false, false
	}
	c.hot.answeredOnBehalf.Add(1)
	r := pf.AcquireResponse(five)
	sec := r.Augment(c.sourceTag)
	sec.Pairs = append(sec.Pairs, pairs...)
	return r, rtt, true, false
}

// apply issues one flow-mod on the calling goroutine and reports whether it
// was accepted. Against a RemoteSwitch that is an append to the channel's
// coalescing writer, against an in-process Switch a table edit: nothing
// worth handing to another goroutine. A switch that has stopped reading
// its channel stalls the caller for at most the channel's write deadline
// (5 s), after which it is cut off and deregistered and Apply fails fast.
func (c *Controller) apply(dp openflow.Datapath, m openflow.FlowMod) bool {
	if err := dp.Apply(m); err != nil {
		c.hot.installErrors.Add(1)
		return false
	}
	return true
}

// installHops programs one direction of a flow, hop by hop in path order
// except that the hop at the packet-in's switch — ev is nil for the reverse
// direction, which has none — goes last: its flow-mod carries the buffered
// first packet, which must be released into a programmed path, not re-punt
// at the next hop (Figure 1: entries, then "packet proceeds"). Hops whose
// datapath is not registered are skipped. Every datapath tried is recorded
// in s.pathIDs for the teardown-along-path (when anything will tear down),
// every mod accepted in s.installed.
func (c *Controller) installHops(st *ctlState, hops []Hop, five flow.Five, cookie uint64, ev *openflow.PacketIn, s *decisionScratch) {
	mod := openflow.FlowMod{
		Match:       flow.FiveMatch(five),
		Priority:    100,
		Cookie:      cookie,
		IdleTimeout: c.idle,
		BufferID:    openflow.BufferNone,
	}
	track := c.revoker != nil || c.mega != nil
	var ingress openflow.Datapath
	var ingressOut uint16
	for _, h := range hops {
		dp := st.datapaths[h.Datapath]
		if dp == nil {
			continue
		}
		if track {
			s.pathIDs = appendPathID(s.pathIDs, h.Datapath)
		}
		if ev != nil && ingress == nil && h.Datapath == ev.SwitchID {
			ingress, ingressOut = dp, h.OutPort
			continue
		}
		mod.Actions = openflow.Output(h.OutPort)
		if c.apply(dp, mod) {
			s.installed++
		}
	}
	if ingress != nil {
		mod.Actions = openflow.Output(ingressOut)
		mod.BufferID = ev.BufferID
		mod.NotifyRemoved = true
		if c.apply(ingress, mod) {
			s.installed++
		}
	}
}

// installPath caches a pass verdict as exact-granularity entries along the
// whole path, releasing the buffered first packet at the ingress switch
// (Figure 1 steps 4-5), plus the reverse path under `keep state`. The
// forward direction completes before the reverse is issued.
func (c *Controller) installPath(st *ctlState, ingress openflow.Datapath, ev openflow.PacketIn, five flow.Five, keepState bool, s *decisionScratch) {
	if !c.install {
		// Ablation mode: forward this one packet, cache nothing. The path
		// is stashed so the deferred waiter resolution can forward parked
		// duplicates over it without a second topology lookup.
		hops, err := c.topo.Path(five.SrcIP, five.DstIP)
		if err == nil {
			s.hops = hops
			for _, h := range hops {
				if h.Datapath == ev.SwitchID {
					c.packetOutOrRelease(ingress, ev, h.OutPort)
					return
				}
			}
		}
		ingress.ReleaseBuffer(ev.BufferID)
		return
	}
	hops, err := c.topo.Path(five.SrcIP, five.DstIP)
	if err != nil {
		c.Counters.Add("path_errors", 1)
		ingress.ReleaseBuffer(ev.BufferID)
		return
	}
	cookie := s.cookie()
	c.installHops(st, hops, five, cookie, &ev, s)
	if keepState {
		rev := five.Reverse()
		if rhops, err := c.topo.Path(rev.SrcIP, rev.DstIP); err != nil {
			c.Counters.Add("path_errors", 1)
		} else {
			// No ingress buffer on the reverse path: the reply's first
			// packet has not arrived yet.
			c.installHops(st, rhops, rev, cookie, nil, s)
		}
	}
	c.hot.installs.Add(int64(s.installed))
}

func (c *Controller) packetOutOrRelease(dp openflow.Datapath, ev openflow.PacketIn, outPort uint16) {
	if len(ev.Frame) > 0 {
		dp.ReleaseBuffer(ev.BufferID)
		dp.PacketOut(outPort, ev.Frame)
		return
	}
	dp.ReleaseBuffer(ev.BufferID)
}

// installDrop caches a deny verdict at the ingress switch so subsequent
// packets of the flow die in hardware, and discards the buffered packet.
func (c *Controller) installDrop(dp openflow.Datapath, ev openflow.PacketIn, five flow.Five, s *decisionScratch) {
	dp.ReleaseBuffer(ev.BufferID)
	if !c.install {
		return
	}
	mod := openflow.FlowMod{
		Match:       flow.FiveMatch(five),
		Priority:    100,
		Actions:     openflow.Drop,
		Cookie:      s.cookie(),
		IdleTimeout: c.idle,
		BufferID:    openflow.BufferNone,
	}
	if c.apply(dp, mod) {
		s.installed++
	}
	if c.revoker != nil || c.mega != nil {
		// A deny entry is as revocable as a pass entry: a fact change can
		// flip the verdict, and the drop entry must not outlive its facts.
		s.pathIDs = appendPathID(s.pathIDs, ev.SwitchID)
	}
}

// ruleString names the deciding rule for the audit trail. The rendering is
// memoized on the rule itself (rules are immutable after compile), so audit
// recording costs a pointer load per decision, not a format.
func ruleString(r *pf.Rule) string {
	if r == nil {
		return "(default)"
	}
	return r.AuditString()
}
