package telemetry

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"identxx/internal/cluster"
	"identxx/internal/core"
	"identxx/internal/daemon"
	"identxx/internal/query"
	"identxx/internal/trace"
)

// This file is the single source of truth for what each component exports:
// a declared raw-name → help table per counter set, plus the gauges,
// histograms, and health probes derived from the component's snapshot
// surfaces. docs/metrics.md mirrors these tables; the drift test
// (docs_drift_test.go) fails CI when either side changes alone.

// ControllerCounters documents every counter the controller increments.
var ControllerCounters = map[string]string{
	"packet_ins":                     "Packet-in events admitted to the decision path.",
	"duplicate_packet_ins":           "Packet-ins for a flow whose decision was already in flight.",
	"waiters_resolved":               "Parked duplicate packet-ins resolved by the first verdict.",
	"waiters_forwarded":              "Packets forwarded on behalf of resolved waiters.",
	"flows_allowed":                  "Flow setups whose verdict was Allow.",
	"flows_denied":                   "Flow setups whose verdict was Block.",
	"eval_diags":                     "Policy evaluations that emitted at least one diagnostic (unknown function, undefined macro or dict, wrong arity, malformed embedded rules or key).",
	"entries_installed":              "Flow-table entries installed across all datapaths.",
	"install_errors":                 "Flow-mod installs rejected by a datapath.",
	"query_errors":                   "Endpoint queries that failed for reasons other than timeout.",
	"query_timeouts":                 "Endpoint queries that timed out.",
	"answered_on_behalf":             "Queries the controller answered for daemon-less hosts (§4 incremental benefit).",
	"decisions_headeronly":           "Decisions resolved by the header-only pre-pass without querying either end.",
	"policy_reloads":                 "SetPolicy snapshot swaps (each bumps the policy epoch).",
	"flow_removed":                   "Flow-removed notifications from datapaths (idle/hard timeout expiries).",
	"unknown_datapath":               "Packet-ins from datapaths absent from the current snapshot.",
	"non_ip_dropped":                 "Packet-ins dropped because the frame was not parseable IP.",
	"waiters_overflowed":             "Duplicate packet-ins dropped because the shard's waiter list was full.",
	"path_errors":                    "Topology path lookups that failed during install or teardown.",
	"queries_intercepted":            "ident++ queries the controller intercepted and answered itself (§3.4).",
	"responses_augmented":            "Transit responses the controller augmented with its own observations (§3.4).",
	"megaflow_hits":                  "Flow setups resolved from the verdict cache without daemon queries or evaluation (exact entries, and wildcard classes under -megaflow).",
	"megaflow_installs":              "Verdicts inserted into the verdict cache.",
	"megaflow_teardowns":             "Cached verdicts retired by revocation or flow removal.",
	"megaflow_expired":               "Cached verdicts unmapped by TTL expiry (no deletes: switch entries idle out; a passing one-flow verdict with entries installed stays on record until its flow is removed).",
	"megaflow_hit_raced":             "Members of a cached class (hits and founders) that raced its teardown and deleted their own installs.",
	"flows_revoked":                  "Installed flows torn down live by the revocation plane.",
	"revocations_updates":            "Daemon-pushed endpoint-state updates received.",
	"revocations_flows":              "Verdicts torn down by the revocation plane: one per flow record, one per cached class.",
	"revocations_inflight":           "Decision attempts voided because an update overturned what they asked about (their flow, or either end's host) after they claimed the flow; each is redecided or void-dropped.",
	"revocations_redecided":          "Voided decision attempts re-run in place from the cache probe, packet still buffered.",
	"revocations_void_dropped":       "Packet-ins whose decision voided on its last attempt: buffer released, no verdict.",
	"revocations_raced":              "Revocations that raced a decision's publication (verdict-cache insert, registration) and re-ran teardown.",
	"revocations_hellos":             "Daemon hello updates (subscription handshakes) processed.",
	"revocations_resyncs":            "Full resyncs forced by serial gaps in a daemon's update stream.",
	"revocations_noop":               "Updates that matched no registered fact (nothing to tear down).",
	"revocations_entries":            "Delete flow-mods issued by flow-record teardowns (two per datapath on a torn flow's path).",
	"revocations_lease_expired":      "Uncached flows torn down by lease expiry (daemons that never push).",
	"revocations_wide_lease_expired": "Cached verdicts torn down by lease expiry.",
	"cred_unauthorized":              "Daemon answers excluded from verdicts by credential enforcement (unverified, expired, or out-of-scope sessions).",
}

// EngineCounters documents the query engine's counters.
var EngineCounters = map[string]string{
	"engine_queries_sent":      "Transport attempts the engine passed to the lower layer (one per admitted query, plus retries).",
	"engine_negcache_hits":     "Queries served a cached host-unreachable verdict without touching the wire.",
	"engine_retries":           "Extra attempts after retryable transport failures.",
	"engine_breaker_opens":     "Circuit breakers opened by consecutive host failures.",
	"engine_breaker_fastfails": "Queries rejected while a host's breaker was open.",
	"engine_timeouts":          "Query attempts that exceeded the request timeout.",
	"engine_host_recoveries":   "Hosts whose breaker and negative cache were cleared by a subscription hello.",
}

// PoolCounters documents the TCP connection pool's counters.
var PoolCounters = map[string]string{
	"pool_queries_sent":            "Query exchanges written to daemon connections.",
	"pool_requests_failed":         "In-flight exchanges failed by connection death.",
	"pool_timeouts":                "Exchanges that hit their deadline on the wire.",
	"pool_dials":                   "Daemon connections established.",
	"pool_dial_errors":             "Daemon dial attempts that failed.",
	"pool_dial_backoff_fastfails":  "Exchanges rejected during dial backoff without an attempt.",
	"pool_subscribes":              "Update subscriptions established on daemon connections.",
	"pool_updates":                 "Daemon-pushed updates decoded and delivered.",
	"pool_update_decode_errors":    "Pushed updates dropped because they failed to decode.",
	"pool_update_resyncs":          "Resyncs synthesized after serial gaps or reconnects.",
	"pool_cred_verified":           "Session hellos whose credential and transcript signature verified.",
	"pool_cred_missing":            "Session hellos rejected for presenting no credential.",
	"pool_cred_forged":             "Session hellos rejected for a bad authority or transcript signature.",
	"pool_cred_expired":            "Session hellos rejected for an expired credential.",
	"pool_cred_scope_rejects":      "Updates or answer pairs rejected for asserting keys outside the credential's scope.",
	"pool_cred_lapsed":             "Verified sessions invalidated live by credential expiry (lapse timer).",
	"pool_cred_rejected_responses": "Query responses withheld from the engine because the session was unverified, expired, or out of scope.",
}

// DaemonCounters documents the daemon's counters.
var DaemonCounters = map[string]string{
	"daemon_queries_answered": "ident++ queries answered (HandleQuery calls).",
	"daemon_queries_traced":   "Answered queries that carried a flight-recorder trace ID from the controller.",
	"daemon_subscribes":       "Update subscriptions accepted.",
	"daemon_updates_pushed":   "Update deliveries to subscribers (one per subscriber per update).",
	"daemon_rehellos":         "Hello re-deliveries triggered by credential rotation (one per subscriber per SetCredential).",
}

// TraceCounters documents the flight recorder's counters.
var TraceCounters = map[string]string{
	"trace_sampled":       "Decision traces retained by the deterministic sampler.",
	"trace_dropped":       "Decision traces recorded but not retained (neither sampled nor slow).",
	"trace_slow_captured": "Decision traces retained by the slow-decision threshold despite not being sampled.",
	"trace_stitched":      "Traces that inherited their ID from another replica's forward (cross-replica stitching).",
}

// ClusterCounters documents the replica router's counters.
var ClusterCounters = map[string]string{
	"cluster_events_owned":      "Packet-ins owned by this replica and decided locally.",
	"cluster_events_forwarded":  "Packet-ins forwarded to their owning replica.",
	"cluster_events_received":   "Forwarded packet-ins received from peer replicas and decided here.",
	"cluster_forward_fallbacks": "Forwards that failed and fell back to a local decision (nonzero means a peer or link is down).",
	"cluster_ring_rebuilds":     "Ownership ring rebuilds (SetMembers / RemoveMember calls).",
	"cluster_takeover_swept":    "Takeover deletes issued after ring rebuilds: one per switch per departed replica, removing every entry under its installer tag.",
	"cluster_snapshots_pushed":  "Config snapshots accepted by peers.",
	"cluster_snapshots_fenced":  "Config snapshot pushes rejected by peers already holding a newer epoch (the fence working, not an error).",
	"cluster_push_errors":       "Config snapshot pushes that failed in transport or application.",
	"cluster_snapshots_applied": "Peer config snapshots applied locally.",
	"cluster_snapshots_stale":   "Peer config snapshots rejected locally for a stale epoch.",
	"cluster_snapshot_errors":   "Peer config snapshots rejected locally for decode or policy-compile failure.",
}

// AuditSinkCounters documents the audit sink's counters.
var AuditSinkCounters = map[string]string{
	"audit_sink_emitted": "Audit entries written to the structured sink.",
	"audit_sink_dropped": "Audit entries dropped because the sink's buffer was full (never blocks the decision path).",
}

// RegisterController exports the controller's whole surface: its counter
// set, the setup-latency histograms, and gauges over the snapshot/cache/
// revocation state. Safe to call once per controller.
func RegisterController(r *Registry, ctl *core.Controller, labels ...Label) {
	r.RegisterCounterSet(ctl.Counters, ControllerCounters, labels...)

	r.RegisterGaugeFunc("policy_epoch", "Current policy epoch (bumped by every SetPolicy snapshot swap).",
		func() int64 { return int64(ctl.Epoch()) }, labels...)
	r.RegisterGaugeFunc("policy_rules", "Rules in the compiled policy of the current snapshot.",
		func() int64 { rules, _ := ctl.PolicyScanStats(); return int64(rules) }, labels...)
	r.RegisterGaugeFunc("policy_scan_worst_case", "Most rules one decision's scan can consult under the policy's dispatch index (equals policy_rules when no header field narrows the scan).",
		func() int64 { _, worst := ctl.PolicyScanStats(); return int64(worst) }, labels...)
	r.RegisterGaugeFunc("datapaths", "Switches registered in the current snapshot.",
		func() int64 { return int64(ctl.DatapathCount()) }, labels...)
	r.RegisterGaugeFunc("flow_shards", "Flow-state shard count (fixed at construction).",
		func() int64 { return int64(ctl.Shards()) }, labels...)
	r.RegisterGaugeFunc("decisions_pending", "Decisions in flight across all shards.",
		func() int64 {
			var n int64
			for _, s := range ctl.ShardStats() {
				n += int64(s.Pending)
			}
			return n
		}, labels...)
	r.RegisterGaugeFunc("waiters_parked", "Duplicate packet-ins parked on in-flight decisions.",
		func() int64 {
			var n int64
			for _, s := range ctl.ShardStats() {
				n += int64(s.Waiters)
			}
			return n
		}, labels...)

	r.RegisterGaugeFunc("megaflow_live", "Live (unexpired, current-epoch) entries in the verdict cache.",
		func() int64 { live, _, _, _ := ctl.MegaflowStats(); return int64(live) }, labels...)
	r.RegisterGaugeFunc("revocation_index_live", "Flow records resident in the revocation index: one per installed verdict that is not cached.",
		func() int64 { live, _, _ := ctl.RevocationIndexStats(); return int64(live) }, labels...)
	r.RegisterCounterFunc("revocation_index_dropped", "Flow records dropped from the revocation index (teardown, flow removal).",
		func() int64 { _, _, dropped := ctl.RevocationIndexStats(); return dropped }, labels...)
	r.RegisterGaugeFunc("revocation_wide_live", "Class records resident in the revocation index: one per cached verdict.",
		func() int64 { live, _, _ := ctl.WideStats(); return int64(live) }, labels...)
	r.RegisterCounterFunc("revocation_wide_registered", "Lifetime class records registered in the revocation index.",
		func() int64 { _, registered, _ := ctl.WideStats(); return registered }, labels...)
	r.RegisterCounterFunc("revocation_wide_dropped", "Class records dropped from the revocation index (teardown, flow removal, expiry, takeover by the class's next verdict, founder race).",
		func() int64 { _, _, dropped := ctl.WideStats(); return dropped }, labels...)
	r.RegisterGaugeFunc("rule_cache_entries", "Resident entries in the policy's embedded-rules memo.",
		func() int64 { entries, _ := ctl.PolicyRuleCacheStats(); return entries }, labels...)
	r.RegisterCounterFunc("rule_cache_evictions", "Lifetime evictions from the policy's embedded-rules memo.",
		func() int64 { _, evictions := ctl.PolicyRuleCacheStats(); return evictions }, labels...)

	r.RegisterCounterFunc("audit_records", "Audit entries ever recorded (ring sequence number).",
		ctl.Audit.Total, labels...)

	r.RegisterHistogram("setup_total", "Flow-setup latency the controller observes (Figure 1: max(queries) + eval).", ctl.Setup.Total, labels...)
	r.RegisterHistogram("setup_query_src", "ident++ round trip to the source daemon.", ctl.Setup.QuerySrc, labels...)
	r.RegisterHistogram("setup_query_dst", "ident++ round trip to the destination daemon.", ctl.Setup.QueryDst, labels...)
	r.RegisterHistogram("setup_eval", "PF+=2 policy evaluation latency.", ctl.Setup.Eval, labels...)
}

// RegisterControllerHealth wires the controller's readiness to a real
// signal: switches registered (a controller with no datapaths enforces
// nothing). Liveness stays the HTTP baseline — a wedged process stops
// answering.
func RegisterControllerHealth(h *Health, ctl *core.Controller) {
	h.AddReadiness("datapaths", func() error {
		if ctl.DatapathCount() == 0 {
			return fmt.Errorf("%w: no datapaths registered", errNotReady)
		}
		return nil
	})
}

// RegisterEngine exports the query engine's counters and gauges.
func RegisterEngine(r *Registry, eng *query.Engine, labels ...Label) {
	r.RegisterCounterSet(eng.Counters, EngineCounters, labels...)
	r.RegisterGauge("engine_inflight", "Admitted queries not yet delivered, one per query however many attempts it takes (fast-path rejections never count).",
		&eng.InFlight, labels...)
	r.RegisterGaugeFunc("engine_hosts", "Hosts with per-host engine state (negative cache, breaker, RTT histogram).",
		func() int64 { return int64(len(eng.HostStats())) }, labels...)
}

// RegisterPool exports the TCP pool's counters. When the pool shares its
// Counter with the engine, register only one of the two sets.
func RegisterPool(r *Registry, pool *query.Pool, labels ...Label) {
	r.RegisterCounterSet(pool.Counters, PoolCounters, labels...)
	r.RegisterGaugeFunc("pool_creds_verified", "Sessions currently holding a verified, unexpired credential.",
		func() int64 { return int64(pool.VerifiedSessions()) }, labels...)
}

// RegisterPoolHealth wires readiness to pool connectivity: not ready while
// the pool has only ever failed to dial (it has proven it cannot reach any
// daemon). A pool that has not dialed yet — no traffic — is ready.
func RegisterPoolHealth(h *Health, pool *query.Pool) {
	h.AddReadiness("query-pool", func() error {
		dials := pool.Counters.Get("pool_dials")
		dialErrors := pool.Counters.Get("pool_dial_errors")
		if dials == 0 && dialErrors > 0 {
			return fmt.Errorf("%w: query pool has never reached a daemon (%d dial errors)", errNotReady, dialErrors)
		}
		return nil
	})
}

// RegisterDaemon exports the daemon's counters plus its memo and
// publication state.
func RegisterDaemon(r *Registry, d *daemon.Daemon, labels ...Label) {
	r.RegisterCounterSet(d.Counters, DaemonCounters, labels...)
	r.RegisterGaugeFunc("daemon_answered_entries", "Flows resident in the answered-facts memo.",
		func() int64 { entries, _ := d.AnsweredStats(); return entries }, labels...)
	r.RegisterCounterFunc("daemon_answered_evictions", "Lifetime evictions from the answered-facts memo.",
		func() int64 { _, evictions := d.AnsweredStats(); return evictions }, labels...)
	r.RegisterGaugeFunc("daemon_flowpair_entries", "Flows with application-supplied pairs resident.",
		func() int64 { entries, _ := d.FlowPairStats(); return entries }, labels...)
	r.RegisterCounterFunc("daemon_flowpair_evictions", "Lifetime evictions from the application flow-pair map.",
		func() int64 { _, evictions := d.FlowPairStats(); return evictions }, labels...)
	r.RegisterCounterFunc("daemon_update_serial", "Serial of the most recently published update.",
		func() int64 { return int64(d.UpdateSerial()) }, labels...)
	r.RegisterGaugeFunc("daemon_cred_expiry_timestamp_seconds", "Unix expiry of the daemon's loaded credential (0 when none).",
		d.CredentialExpiry, labels...)
}

// RegisterRouter exports the replica router's counters and ring state.
// The wrapped controller is registered separately via RegisterController.
func RegisterRouter(r *Registry, rt *cluster.Router, labels ...Label) {
	r.RegisterCounterSet(rt.Counters, ClusterCounters, labels...)
	r.RegisterGaugeFunc("cluster_members", "Replicas in the current ownership ring (1 = single-replica).",
		func() int64 { return int64(len(rt.Members())) }, labels...)
	r.RegisterGaugeFunc("cluster_config_epoch", "Applied replicated-config epoch (0 until the first cluster config write).",
		func() int64 { e, _ := rt.Epoch(); return int64(e) }, labels...)
}

// RegisterTrace exports the flight recorder's retention counters. Call it
// only when tracing is enabled (a nil recorder has no counters to export).
func RegisterTrace(r *Registry, rec *trace.Recorder, labels ...Label) {
	r.RegisterCounterSet(rec.Counters, TraceCounters, labels...)
}

// RegisterBuildInfo exports the identxx_build_info gauge: constant 1, with
// the binary's identity carried in labels (the node_exporter convention),
// so release rollouts are visible per instance in one scrape.
func RegisterBuildInfo(r *Registry, labels ...Label) {
	version, commit := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				commit = s.Value
			}
		}
	}
	labels = append([]Label{
		{Key: "version", Value: version},
		{Key: "goversion", Value: runtime.Version()},
		{Key: "commit", Value: commit},
	}, labels...)
	r.RegisterGaugeFunc("build_info", "Always 1; the version, goversion and commit labels identify the running build.",
		func() int64 { return 1 }, labels...)
}

// RegisterAuditSink exports the sink's emit/drop counters.
func RegisterAuditSink(r *Registry, s *AuditSink, labels ...Label) {
	r.RegisterCounterFunc("audit_sink_emitted", AuditSinkCounters["audit_sink_emitted"], s.Emitted, labels...)
	r.RegisterCounterFunc("audit_sink_dropped", AuditSinkCounters["audit_sink_dropped"], s.Dropped, labels...)
}
