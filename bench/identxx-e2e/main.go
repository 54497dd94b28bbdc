// Command identxx-e2e is the end-to-end benchmark of identxx: it runs the
// real identctl binary as a child process, hosts sixteen real ident++
// daemons, attaches as two switches over loopback TCP, and times every
// packet-in from its write to the read of the flow-mod that answers it. See
// bench/README.md.
//
// The driver's form, one workload and one JSON result line (bench/run.sh
// builds both binaries first):
//
//	identxx-e2e -identctl <binary> -workload setup_miss -seed 1 -seconds 24 -trace 0
//
// A person's form, from bench/: every workload as a table, or the benchmark
// measured against itself:
//
//	go run ./identxx-e2e -all -seed 1 [-trace 1]
//	go run ./identxx-e2e -sets 2 -repeat 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

func main() {
	if os.Getenv(roleEnv) == "null-controller" {
		if err := nullMain(); err != nil {
			fmt.Fprintln(os.Stderr, "identxx-e2e null controller:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name     = flag.String("workload", "", "workload to run: setup_miss, class_hit, policy_large or revoke_churn")
		all      = flag.Bool("all", false, "run every workload and print a table")
		seed     = flag.Int64("seed", 1, "seed of the flow universe; the only source of randomness")
		seconds  = flag.Float64("seconds", 24, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: the untraced run and the end-to-end metrics; 1: the traced run and the per-layer metrics")
		sets     = flag.Int("sets", 0, "repeatability mode: number of interleaved sets (with -repeat)")
		repeat   = flag.Int("repeat", 0, "repeatability mode: runs per set and workload")
		identctl = flag.String("identctl", "", "identctl binary; built from ../cmd/identctl when empty")
		workdir  = flag.String("workdir", "", "where generated policies and topologies go (default .bench_build/work in the repository)")
		outdir   = flag.String("out", "", "where span files and repeatability.json go (default bench/out in the repository)")
	)
	flag.Parse()
	// One busy thread here, one in identctl, and one core for both: see
	// cores.go and bench/README.md.
	runtime.GOMAXPROCS(1)
	c, err := newCores()
	if err != nil {
		err = fmt.Errorf("cannot confine the benchmark to one CPU, and its figures hold for that arrangement only: %w", err)
	} else {
		cfg := runConfig{
			seed: *seed, seconds: *seconds, traced: *trace == 1, flows: defaultFlows, setups: defaultSetups,
			cores: c, identctl: *identctl, workdir: *workdir, outdir: *outdir,
		}
		err = run(cfg, *name, *all, *sets, *repeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "identxx-e2e:", err)
		os.Exit(1)
	}
}

// run fills in the directories and the identctl binary cfg leaves empty and
// runs the mode asked for.
func run(cfg runConfig, name string, all bool, sets, repeat int) error {
	var root string
	if cfg.workdir == "" || cfg.outdir == "" || cfg.identctl == "" {
		var err error
		if root, err = repoRoot(); err != nil {
			return err
		}
	}
	if cfg.workdir == "" {
		cfg.workdir = filepath.Join(root, ".bench_build", "work")
	}
	if cfg.outdir == "" {
		cfg.outdir = filepath.Join(root, "bench", "out")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	if cfg.identctl == "" {
		built, cleanup, err := buildIdentctl(root, cfg.workdir)
		if err != nil {
			return err
		}
		defer cleanup()
		cfg.identctl = built
	}
	switch {
	case sets > 0 || repeat > 0:
		return repeatability(cfg, max(sets, 1), max(repeat, 1))
	case all:
		return runAll(cfg)
	case name != "":
		w, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		cfg.w = w
		res, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "identxx-e2e: failed_ops / attempted_ops = %d / %d, wrong verdicts = %d\n", res.Failed, res.Attempted, res.Wrong)
		for _, g := range res.Invalid {
			fmt.Fprintln(os.Stderr, "identxx-e2e: invalid run:", g)
		}
		for _, n := range res.Notes {
			fmt.Fprintln(os.Stderr, "identxx-e2e:", n)
		}
		for _, n := range slices.Sorted(maps.Keys(res.Raw)) {
			fmt.Fprintf(os.Stderr, "identxx-e2e: %s = %.4f %s\n", n, res.Raw[n].Value, res.Raw[n].Unit)
		}
		line, err := json.Marshal(res.driverLine())
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.correct() {
			return errors.New("run is not correct")
		}
		return nil
	}
	flag.Usage()
	return errors.New("give -workload, -all or -sets/-repeat")
}

// buildIdentctl builds cmd/identctl of the module this benchmark is nested
// in. Build time is part of no metric.
func buildIdentctl(root, workdir string) (path string, cleanup func(), err error) {
	dir, err := os.MkdirTemp(workdir, "bin-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", nil, err
	}
	path = filepath.Join(abs, "identctl")
	cmd := exec.Command("go", "build", "-o", path, "./cmd/identctl")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("build identctl: %w", err)
	}
	return path, func() { os.RemoveAll(dir) }, nil
}

// repoRoot finds the identxx module: the nearest directory at or above the
// working directory whose go.mod declares it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module identxx\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the identxx repository: no go.mod declaring module identxx at or above the working directory")
		}
		dir = parent
	}
}

// runAll runs every workload once and prints every metric by name with its
// unit.
func runAll(cfg runConfig) error {
	bad := false
	for i := range workloads {
		cfg.w = &workloads[i]
		res, err := runWorkload(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.w.name, err)
		}
		res.print(os.Stdout)
		bad = bad || !res.correct()
	}
	if bad {
		return errors.New("at least one run failed an op or a guard")
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metricValue

func (m metrics) set(name, unit string, v float64) { m[name] = metricValue{v, unit} }

// result is the outcome of one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int64
	Failed    int64
	Wrong     int64
	Invalid   []string // guards that tripped; a run with any reports no gain or loss
	Notes     []string
	Metrics   metrics
	Raw       metrics // the same figures with no reference taken out, and the reference's own
	SpanFile  string
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Invalid) == 0 }

// driverLine is the last line of standard output in the driver's form.
func (r *result) driverLine() any {
	return struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.correct(), max(r.Attempted, 1), r.Failed, r.Metrics}
}

func (r *result) print(w *os.File) {
	kind := "end to end, untraced"
	if r.Traced {
		kind = "per layer, traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  (%s)\n", r.Workload, r.Seed, kind)
	fmt.Fprintf(w, "   failed_ops / attempted_ops = %d / %d   wrong verdicts = %d\n", r.Failed, r.Attempted, r.Wrong)
	for _, n := range slices.Sorted(maps.Keys(r.Metrics)) {
		v := r.Metrics[n]
		fmt.Fprintf(w, "   %-36s %14.4f %s\n", n, v.Value, v.Unit)
	}
	for _, n := range slices.Sorted(maps.Keys(r.Raw)) {
		fmt.Fprintf(w, "   %-36s %14.4f %s   (as measured, not a benchmark metric)\n", n, r.Raw[n].Value, r.Raw[n].Unit)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "   spans: %s\n", r.SpanFile)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, g := range r.Invalid {
		fmt.Fprintf(w, "   INVALID: %s\n", g)
	}
}
