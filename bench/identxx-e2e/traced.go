package main

import (
	"fmt"
	"slices"
	"time"
)

// tracedRun yields the per-layer metrics. A quarter of the time runs
// unloaded with spans on, for the boundary timings; a quarter saturated with
// spans off, for the counts per decision; a quarter saturated with spans on,
// whose rate against the quarter before is the tracing overhead; the rest
// goes to timing each layer's public functions.
func (r *rig) tracedRun(cfg runConfig, ref *reference, res *result, total time.Duration) error {
	g, m := r.gen, res.Metrics
	// Each quarter starts on whichever core is the faster at that moment. The
	// per-layer figures are not divided by the reference; its readings are
	// reported beside them as null.*.
	var refs []refSlice
	settle := func() error {
		_, chosen, err := ref.settle(cfg.cores, r.pid())
		refs = append(refs, chosen)
		return err
	}
	if err := settle(); err != nil {
		return err
	}
	g.tr.sampling.Store(true)
	lat, err := g.runPhase(1, 1, 0, total/4, nil, nil)
	if err != nil {
		return fmt.Errorf("latency phase: %w", err)
	}
	res.count(&lat)
	g.tr.sampling.Store(false)
	unloaded := g.tr.take()

	if err := settle(); err != nil {
		return err
	}
	var s0, s1 ctlSample
	var err0, err1 error
	var gen0, gen1 time.Duration
	ev0 := r.daemonEvents()
	sat, err := g.runPhase(satWindow, nDatapaths, 0, total/4,
		func() { s0, err0 = r.sample(); gen0 = selfCPU() },
		func() { gen1 = selfCPU(); s1, err1 = r.sample() })
	if err != nil {
		return fmt.Errorf("saturated phase: %w", err)
	}
	if err0 != nil || err1 != nil {
		return fmt.Errorf("sampling identctl: %v %v", err0, err1)
	}
	res.count(&sat)
	ev1 := r.daemonEvents()

	if err := settle(); err != nil {
		return err
	}
	g.tr.sampling.Store(true)
	satTraced, err := g.runPhase(satWindow, nDatapaths, 0, total/4, nil, nil)
	if err != nil {
		return fmt.Errorf("traced saturated phase: %w", err)
	}
	res.count(&satTraced)
	g.tr.sampling.Store(false)
	loaded := g.tr.take()

	events, _ := g.settleEvents()
	spans := buildSpans(append(unloaded, loaded...), events, r.w.wireQueries > 0)
	if res.SpanFile, err = writeSpans(cfg.outdir, r.w.name, spans); err != nil {
		return err
	}

	// Counts per decision, across the untraced saturated quarter.
	n := float64(sat.atStop)
	d := func(name string) float64 { return s1.metrics[name] - s0.metrics[name] }
	wall := sat.elapsed.Seconds()
	m.set("ctl.core_busy_share", "share", ratio((s1.cpu-s0.cpu).Seconds(), wall))
	m.set("ctl.syscalls_per_decision", "count", ratio(float64(s1.syscalls-s0.syscalls), n))
	m.set("ctl.ctx_switches_per_decision", "count", ratio(float64(s1.ctxSwitch-s0.ctxSwitch), n))
	m.set("ctl.allocs_per_decision", "count", ratio(float64(s1.mallocs-s0.mallocs), n))
	m.set("ctl.alloc_bytes_per_decision", "B", ratio(float64(s1.allocBytes-s0.allocBytes), n))
	m.set("ctl.gc_cycles", "count", float64(s1.numGC-s0.numGC))

	satSorted := sortedCopy(sat.lat)
	m.set("switch.setup_p99_us", "us", percentile(satSorted, 0.99)/1e3)
	m.set("switch.setup_pmax_us", "us", pmax(satSorted)/1e3)
	m.set("switch.samples", "count", float64(len(satSorted)))
	m.set("switch.resends_per_decision", "count", ratio(float64(sat.resends), n))
	m.set("switch.flow_mods_per_decision", "count", ratio(float64(sat.flowMods), n))
	m.set("switch.bytes_out_per_decision", "B", ratio(float64(sat.bytesOut), n))
	m.set("switch.bytes_in_per_decision", "B", ratio(float64(sat.bytesIn), n))

	pin := d("identxx_packet_ins_total")
	decided := d("identxx_flows_allowed_total") + d("identxx_flows_denied_total")
	m.set("core.packet_ins_per_decision", "count", ratio(pin, n))
	m.set("core.megaflow_hit_share", "share", ratio(d("identxx_megaflow_hits_total"), pin))
	m.set("core.cache_hit_share", "share", ratio(d("identxx_response_cache_hits_total"), pin))
	m.set("core.headeronly_share", "share", ratio(d("identxx_decisions_headeronly_total"), pin))
	m.set("core.dup_packet_in_share", "share", ratio(d("identxx_duplicate_packet_ins_total"), pin))
	m.set("core.void_share", "share", ratio(d("identxx_revocations_inflight_total"), decided+d("identxx_revocations_inflight_total")))
	m.set("core.entries_installed_per_decision", "count", ratio(d("identxx_entries_installed_total"), n))
	m.set("core.install_errors", "count", d("identxx_install_errors_total"))

	asked := d("identxx_engine_queries_sent_total") + d("identxx_engine_coalesce_hits_total")
	m.set("query.wire_queries_per_decision", "count", ratio(d("identxx_pool_queries_sent_total"), n))
	m.set("query.coalesce_share", "share", ratio(d("identxx_engine_coalesce_hits_total"), asked))
	m.set("query.retries", "count", d("identxx_engine_retries_total"))
	m.set("query.timeouts", "count", d("identxx_engine_timeouts_total")+d("identxx_pool_timeouts_total"))
	rttSum := d("identxx_setup_query_src_seconds_sum") + d("identxx_setup_query_dst_seconds_sum")
	rttCount := d("identxx_setup_query_src_seconds_count") + d("identxx_setup_query_dst_seconds_count")
	if r.w.wireQueries == 0 {
		rttSum = 0 // the histograms record a zero per decision on workloads that never query
	}
	m.set("query.rtt_mean_us", "us", ratio(rttSum, rttCount)*1e6)
	m.set("pf.eval_mean_us", "us", ratio(d("identxx_setup_eval_seconds_sum"), d("identxx_setup_eval_seconds_count"))*1e6)

	m.set("daemon.queries_per_decision", "count", ratio(float64(ev1.queries-ev0.queries), n))
	m.set("daemon.answered_evictions", "count", float64(r.answeredEvictions()))
	killsInSat := float64(ev1.kills - ev0.kills)
	m.set("daemon.updates_pushed_per_event", "count", ratio(float64(ev1.updates-ev0.updates), killsInSat))

	updates := d("identxx_revocations_updates_total")
	m.set("revoke.updates_per_decision", "count", ratio(updates, n))
	m.set("revoke.flows_per_update", "count", ratio(d("identxx_revocations_flows_total"), updates))
	m.set("revoke.noop_share", "share", ratio(d("identxx_revocations_noop_total"), updates))
	m.set("revoke.raced", "count", d("identxx_revocations_raced_total"))
	m.set("revoke.index_live", "count", s1.metrics["identxx_revocation_index_live"])
	m.set("revoke.deletes_per_flow", "count", ratio(float64(sat.deletes), d("identxx_revocations_flows_total")+d("identxx_flow_removed_total")))
	m.set("revoke.stale_pass_entries", "count", float64(g.stalePass()))
	var fanin, publish, teardown []int64
	for _, ev := range events {
		fanin = append(fanin, max(ev.tLast, ev.tPub)-ev.t0)
		publish = append(publish, ev.tPub-ev.t0)
		teardown = append(teardown, max(ev.tLast-ev.tPub, 0))
	}
	slices.Sort(fanin)
	slices.Sort(publish)
	slices.Sort(teardown)
	m.set("revoke.fanin_p50_us", "us", percentile(fanin, 0.50)/1e3)
	m.set("revoke.fanin_p90_us", "us", percentile(fanin, 0.90)/1e3)
	m.set("revoke.daemon_publish_p50_us", "us", percentile(publish, 0.50)/1e3)
	m.set("revoke.ctl_teardown_p50_us", "us", percentile(teardown, 0.50)/1e3)

	genCPU := gen1 - gen0
	m.set("gen.cpu_us_per_decision", "us", ratio(float64(genCPU.Microseconds()), n))
	m.set("gen.core_busy_share", "share", ratio(genCPU.Seconds(), wall))
	rate := ratio(n, wall)
	rateTraced := ratio(float64(satTraced.atStop), satTraced.elapsed.Seconds())
	m.set("gen.trace_overhead_share", "share", ratio(rate-rateTraced, rate))

	// The end-to-end figures as this run measured them, with no reference
	// taken out, and the reference's own: what the box was doing.
	latSorted := sortedCopy(lat.lat)
	m.set("switch.setup_p50_us_raw", "us", percentile(latSorted, 0.50)/1e3)
	m.set("switch.setup_p90_us", "us", percentile(latSorted, 0.90)/1e3)
	m.set("switch.decisions_per_s_raw", "1/s", rate)
	m.set("ctl.cpu_us_per_decision_raw", "us", ratio(float64((s1.cpu-s0.cpu).Nanoseconds())/1e3, n))
	pick := func(f func(refSlice) float64) float64 {
		v := make([]float64, len(refs))
		for i, c := range refs {
			v[i] = f(c)
		}
		return medianFloat(v)
	}
	m.set("null.echo_per_s", "1/s", pick(func(c refSlice) float64 { return c.echoPerSec }))
	m.set("null.cpu_us_per_echo", "us", pick(func(c refSlice) float64 { return c.cpuPerEchoUs }))
	m.set("null.echo_p50_us", "us", pick(func(c refSlice) float64 { return c.echoP50us }))

	// Boundary timings, from the unloaded spans.
	var ingress, egress, decide, serve, skew []int64
	for _, sp := range unloaded {
		src, dst := sp.ep[0], sp.ep[1]
		if r.w.wireQueries == 0 || src.frameRead == 0 || dst.frameRead == 0 {
			decide = append(decide, sp.msgRead-sp.writeEnd)
			continue
		}
		ingress = append(ingress, min(src.frameRead, dst.frameRead)-sp.writeEnd)
		egress = append(egress, sp.msgRead-max(src.written, dst.written))
		serve = append(serve, src.written-src.frameRead, dst.written-dst.frameRead)
		skew = append(skew, max(src.frameRead-dst.frameRead, dst.frameRead-src.frameRead))
	}
	for _, s := range [][]int64{ingress, egress, decide, serve, skew} {
		slices.Sort(s)
	}
	m.set("ctl.ingress_p50_us", "us", percentile(ingress, 0.5)/1e3)
	m.set("ctl.egress_p50_us", "us", percentile(egress, 0.5)/1e3)
	m.set("ctl.decide_p50_us", "us", percentile(decide, 0.5)/1e3)
	m.set("daemon.serve_p50_us", "us", percentile(serve, 0.5)/1e3)
	m.set("query.src_dst_skew_p50_us", "us", percentile(skew, 0.5)/1e3)

	if err := r.micro(m); err != nil {
		return fmt.Errorf("layer timings: %w", err)
	}
	m.set("ctl.unattributed_us", "us", r.unattributed(m))
	return nil
}

// unattributed is what is left of the time a decision spends inside
// identctl, as seen from outside (ctl.ingress + ctl.egress, or ctl.decide on
// workloads that never query), once the measured cost of each layer's
// public functions on the decision's path is taken out: loopback, the
// scheduler, and whatever only tracing inside identctl could see.
func (r *rig) unattributed(m metrics) float64 {
	ns := func(name string) float64 { return m[name].Value }
	// Every decision: the packet-in is decoded twice (message, then frame)
	// and answered with about flow_mods_per_decision encoded flow-mods.
	codec := ns("openflow.decode_packet_in_ns") + ns("packet.decode_ns") +
		ns("switch.flow_mods_per_decision")*ns("openflow.encode_flow_mod_ns")
	if r.w.wireQueries == 0 {
		// core.handle_event_ns covers the probe or pre-pass and the install.
		return ns("ctl.decide_p50_us") - (codec+ns("core.handle_event_ns"))/1e3
	}
	// A miss: hints, two queries encoded and two responses decoded, the
	// evaluation and the registration. core's own bookkeeping between them
	// stays unattributed; handle_event_ns would count pf and revoke twice.
	inside := codec + ns("pf.hints_ns") + 2*ns("wire.encode_query_ns") + 2*ns("wire.decode_response_ns") +
		ns("pf.eval_ns") + ns("revoke.register_ns")
	return ns("ctl.ingress_p50_us") + ns("ctl.egress_p50_us") - inside/1e3
}

// daemonTotals are the daemon-side counts the generator can read directly.
type daemonTotals struct {
	queries, updates, kills int64
}

func (r *rig) daemonEvents() daemonTotals {
	r.gen.evMu.Lock()
	kills := int64(len(r.gen.events))
	r.gen.evMu.Unlock()
	return daemonTotals{
		queries: r.daemonCounter("daemon_queries_answered"),
		updates: r.daemonCounter("daemon_updates_pushed"),
		kills:   kills,
	}
}
