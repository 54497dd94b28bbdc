package main

import (
	"fmt"
	"time"
)

const (
	// defaultFlows is the universe: 8192 flows, 4096 live at any time, 1024
	// memo entries per daemon (the cap is 4096) and 64 flows per client
	// process. bench/README.md says why it is neither larger nor unbounded.
	defaultFlows = 8192
	// defaultSetups is how often an untraced run sets the system up;
	// setup_s is the median.
	defaultSetups = 3
	// satWindow is the packet-ins outstanding per channel when saturated.
	satWindow = 32
	// warmChunks is how many pieces the warm-up is cut into, with the
	// reference timed between them.
	warmChunks = 8
	// sliceWork is how long one slice of work lasts: short against the
	// spells a core stays fast or slow for, so that the reference on either
	// side of it speaks for it.
	sliceWork = 100 * time.Millisecond
)

type runConfig struct {
	w        *workload
	seed     int64
	seconds  float64
	traced   bool
	flows    int
	setups   int
	cores    *cores
	identctl string
	workdir  string
	outdir   string
}

// setUp brings the system to steady state: inputs generated from the seed,
// daemons listening, identctl started, both channels up, and one pass over
// the whole universe decided, so every map has its steady size, every pool
// connection is dialled and subscribed, and every class has its founder. It
// returns how long that took, as measured and at the reference speed.
func setUp(cfg runConfig, tr *tracer, ref *reference, res *result) (_ *rig, raw, atRef float64, err error) {
	_, beside, err := ref.settle(cfg.cores)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	u, err := newUniverse(cfg.seed, cfg.flows)
	if err != nil {
		return nil, 0, 0, err
	}
	r, err := newRig(cfg.w, u, cfg.identctl, cfg.workdir, tr) // identctl starts on this process's core
	if err != nil {
		return nil, 0, 0, err
	}
	raw = time.Since(start).Seconds()
	atRef = raw * beside.echoPerSec / refSpeed.echoPerSec
	fail := func(err error) (*rig, float64, float64, error) {
		r.close()
		return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	for i := 0; i < warmChunks; i++ {
		warm, err := r.gen.runPhase(satWindow, nDatapaths, int64(cfg.flows/warmChunks), 0, nil, nil)
		if err != nil {
			return fail(err)
		}
		res.count(&warm)
		next, err := ref.read()
		if err != nil {
			return fail(err)
		}
		raw += warm.elapsed.Seconds()
		atRef += warm.elapsed.Seconds() * (beside.echoPerSec + next.echoPerSec) / 2 / refSpeed.echoPerSec
		beside = next
	}
	return r, raw, atRef, nil
}

// runWorkload makes one run: the untraced one that yields the end-to-end
// metrics, or the traced one that yields the per-layer metrics.
func runWorkload(cfg runConfig) (*result, error) {
	res := &result{Workload: cfg.w.name, Seed: cfg.seed, Traced: cfg.traced, Metrics: metrics{}, Raw: metrics{}}
	ref, err := startReference()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	var tr *tracer
	setups := cfg.setups
	if cfg.traced {
		tr, setups = newTracer(), 1
	}
	var r *rig
	var setupTimes, rawSetupTimes []float64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		var raw, atRef float64
		if r, raw, atRef, err = setUp(cfg, tr, ref, res); err != nil {
			return nil, err
		}
		rawSetupTimes = append(rawSetupTimes, raw)
		setupTimes = append(setupTimes, atRef)
	}
	defer r.close()
	// What identctl had counted when set-up ended; the guards bound what the
	// measured phases add to it.
	warmed, err := r.scrape()
	if err != nil {
		return nil, err
	}

	total := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		err = r.tracedRun(cfg, ref, res, total)
	} else {
		res.Metrics.set("setup_s", "s", medianFloat(setupTimes))
		res.Raw.set("raw.setup_s", "s", medianFloat(rawSetupTimes))
		err = r.untracedRun(cfg.cores, ref, res, total)
	}
	if err != nil {
		return nil, err
	}
	if err := r.guards(res, warmed); err != nil {
		return nil, err
	}
	if f := r.gen.failures; f.n > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d ops got no verdict within %v, between %.3f s and %.3f s after the last set-up began",
			f.n, opDeadline, float64(f.first)/1e9, float64(f.last)/1e9))
	}
	if n := r.gen.standstills.Load(); n > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("the core stood still for over %v %d times; ops in flight then were not charged for it", standstill, n))
	}
	return res, nil
}

// count adds a phase's ops to the run's totals.
func (res *result) count(p *phase) {
	res.Attempted += p.verdicts + p.failed - p.wrong // a wrong verdict is both delivered and failed
	res.Failed += p.failed
	res.Wrong += p.wrong
	if !p.drained {
		res.Invalid = append(res.Invalid, fmt.Sprintf("ops were still in flight %v after a phase stopped", 2*opDeadline))
	}
}

// workSlice is one slice of the system under test: what the generator
// counted, identctl's CPU time over it, and the reference on the same core
// just before and just after.
type workSlice struct {
	phase
	ctlCPU        time.Duration
	before, after refSlice
}

// sliceSet is one kind of slice, latency or saturated, over a run.
type sliceSet []workSlice

// atRefSpeed is the median over the slices of (the slice's figure ÷ the
// reference's figure beside it), scaled to the reference box.
func (s sliceSet) atRefSpeed(figure func(*workSlice) float64, beside func(refSlice) float64, scale float64) float64 {
	ratios := make([]float64, 0, len(s))
	for i := range s {
		if f := figure(&s[i]); f > 0 {
			ratios = append(ratios, ratio(f, (beside(s[i].before)+beside(s[i].after))/2))
		}
	}
	return medianFloat(ratios) * scale
}

// whole is the slices' figure with no reference taken out: all of them as
// one.
func (s sliceSet) whole() (decisions int64, wall, cpu time.Duration, lat []int64) {
	for i := range s {
		w := &s[i]
		decisions += w.atStop
		wall += w.elapsed
		cpu += w.ctlCPU
		lat = append(lat, w.lat...)
	}
	return decisions, wall, cpu, lat
}

// beside is the median of one of the reference's figures over the slices.
func (s sliceSet) beside(pick func(refSlice) float64) float64 {
	v := make([]float64, 0, 2*len(s))
	for i := range s {
		v = append(v, pick(s[i].before), pick(s[i].after))
	}
	return medianFloat(v)
}

// slice runs one slice of work: window packet-ins outstanding on each of
// channels channels.
func (r *rig) slice(res *result, window, channels int) (workSlice, error) {
	var cpu0, cpu1 time.Duration
	p, err := r.gen.runPhase(window, channels, 0, sliceWork,
		func() { cpu0 = processCPU(r.pid()) },
		func() { cpu1 = processCPU(r.pid()) })
	if err != nil {
		return workSlice{}, err
	}
	res.count(&p)
	return workSlice{phase: p, ctlCPU: cpu1 - cpu0}, nil
}

// untracedRun is the measurement proper: slices of 100 ms, one in three with
// one packet-in in the whole system, for latency, and two in three saturated,
// for capacity and cost, interleaved so that each kind sees the whole run.
// Between two slices the reference is read and picks the core.
func (r *rig) untracedRun(c *cores, ref *reference, res *result, total time.Duration) error {
	var lat, sat sliceSet
	var last *workSlice // the slice whose reference afterwards is still to be read
	deadline := time.Now().Add(total)
	for i := 0; time.Now().Before(deadline) || len(lat) == 0 || len(sat) == 0; i++ {
		here, chosen, err := ref.settle(c, r.pid())
		if err != nil {
			return err
		}
		if last != nil {
			last.after = here
		}
		kind, window, channels := &sat, satWindow, nDatapaths
		if i%3 == 0 {
			kind, window, channels = &lat, 1, 1
		}
		s, err := r.slice(res, window, channels)
		if err != nil {
			return err
		}
		s.before = chosen
		*kind = append(*kind, s)
		last = &(*kind)[len(*kind)-1]
	}
	after, err := ref.read()
	if err != nil {
		return err
	}
	last.after = after

	m, raw := res.Metrics, res.Raw
	echoP50 := func(c refSlice) float64 { return c.echoP50us }
	echoRate := func(c refSlice) float64 { return c.echoPerSec }
	echoCPU := func(c refSlice) float64 { return c.cpuPerEchoUs }
	m.set("setup_p50_us", "us", lat.atRefSpeed(
		func(w *workSlice) float64 { return percentile(sortedCopy(w.lat), 0.50) / 1e3 },
		echoP50, refSpeed.echoP50us))
	_, _, _, samples := lat.whole()
	raw.set("raw.setup_p50_us", "us", percentile(sortedCopy(samples), 0.50)/1e3)
	raw.set("raw.null_echo_p50_us", "us", lat.beside(echoP50))

	m.set("decisions_per_s", "1/s", sat.atRefSpeed(
		func(w *workSlice) float64 { return ratio(float64(w.atStop), w.elapsed.Seconds()) },
		echoRate, refSpeed.echoPerSec))
	m.set("ctl_cpu_us_per_decision", "us", sat.atRefSpeed(
		func(w *workSlice) float64 { return ratio(float64(w.ctlCPU.Nanoseconds())/1e3, float64(w.atStop)) },
		echoCPU, refSpeed.cpuPerEchoUs))
	decisions, wall, cpu, _ := sat.whole()
	raw.set("raw.decisions_per_s", "1/s", ratio(float64(decisions), wall.Seconds()))
	raw.set("raw.ctl_cpu_us_per_decision", "us", ratio(float64(cpu.Nanoseconds())/1e3, float64(decisions)))
	raw.set("raw.null_echo_per_s", "1/s", sat.beside(echoRate))
	raw.set("raw.null_cpu_us_per_echo", "us", sat.beside(echoCPU))
	res.Notes = append(res.Notes, fmt.Sprintf("%d latency slices with %d samples, %d saturated slices with %d decisions", len(lat), len(samples), len(sat), decisions))
	rss, err := r.rssPeakMB()
	if err != nil {
		return err
	}
	m.set("ctl_rss_peak_mb", "MB", rss)
	return nil
}

// guards marks a run invalid when it measured something other than the
// workload: each bounds waste, and none can trip because a later change
// does less work per decision.
func (r *rig) guards(res *result, warmed map[string]float64) error {
	g := r.gen
	bad := func(format string, a ...any) { res.Invalid = append(res.Invalid, fmt.Sprintf(format, a...)) }
	_, unfinished := g.settleEvents()
	if unfinished > 0 {
		bad("%d kill events never saw every installed flow of the dead process deleted", unfinished)
	}
	if n := g.stalePass(); n > 0 {
		bad("revoke.stale_pass_entries = %d: flows of dead processes still forward", n)
	}
	if n := r.answeredEvictions(); n > 0 {
		bad("%d daemon answered_evictions: the universe outgrew a daemon's memo", n)
	}
	mt, err := r.scrape()
	if err != nil {
		return err
	}
	if got := int64(mt["identxx_packet_ins_total"]); got != g.written {
		bad("identctl counted %d packet-ins, the generator wrote %d", got, g.written)
	}
	if n := mt["identxx_install_errors_total"]; n > 0 {
		bad("identxx_install_errors_total = %v", n)
	}
	// Wire queries since warm-up: none on a workload that needs none (a
	// stray one per thousand decisions is let through), and no more than the
	// workload's count for each decision started, voided ones included.
	d := func(name string) float64 { return mt[name] - warmed[name] }
	started := d("identxx_flows_allowed_total") + d("identxx_flows_denied_total") + d("identxx_revocations_inflight_total")
	if q := d("identxx_pool_queries_sent_total"); q > float64(r.w.wireQueries)*started+started/1000 {
		bad("%v wire queries for %v decisions since warm-up; the workload needs %d each: hidden retries", q, started, r.w.wireQueries)
	}
	if res.Failed > 0 {
		// What identctl counted while ops failed, for whoever reads the run.
		note := "identctl since warm-up:"
		for _, name := range []string{
			"revocations_inflight", "revocations_resyncs", "pool_update_resyncs", "pool_requests_failed", "pool_timeouts",
			"pool_dials", "engine_timeouts", "engine_retries", "engine_breaker_opens", "duplicate_packet_ins",
		} {
			note += fmt.Sprintf(" %s=%v", name, d("identxx_"+name+"_total"))
		}
		res.Notes = append(res.Notes, note)
	}
	if r.w.megaflow {
		if live := mt["identxx_megaflow_live"]; live < 1 || live > nHosts*nServices {
			bad("%v megaflow classes are live after warm-up; the universe has %d", live, nHosts*nServices)
		}
	}
	return g.firstErr()
}
