package main

import (
	"fmt"
	"os"
	"testing"
)

// The smoke test runs every workload at one sixteenth of the universe for a
// second and a half (two, traced), on ephemeral ports only. It keeps the
// benchmark compiling against the packages it drives, and keeps the metric
// names and units it prints in step with BENCHMARK.json.

var (
	smokeIdentctl string
	smokeCores    *cores
)

func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "null-controller" {
		if err := nullMain(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(func() int {
		var err error
		if smokeCores, err = newCores(); err != nil {
			fmt.Fprintln(os.Stderr, "cannot confine the test to one CPU:", err)
			return 1
		}
		root, err := repoRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		dir, err := os.MkdirTemp("", "identxx-e2e-smoke-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		path, cleanup, err := buildIdentctl(root, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer cleanup()
		smokeIdentctl = path
		return m.Run()
	}())
}

// checkMetrics asserts that got holds exactly the metrics want names, each
// with its unit.
func checkMetrics(t *testing.T, got metrics, want []benchmarkMetric) {
	t.Helper()
	named := map[string]bool{}
	for _, w := range want {
		named[w.Name] = true
		v, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s is in BENCHMARK.json and not in the output", w.Name)
		} else if v.Unit != w.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, v.Unit, w.Unit)
		}
	}
	for name := range got {
		if !named[name] {
			t.Errorf("metric %s is in the output and not in BENCHMARK.json", name)
		}
	}
}

func TestSmoke(t *testing.T) {
	file, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if i < len(file.Workloads) && (file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why) {
				t.Errorf("BENCHMARK.json workload %d is %+v, the benchmark's is %s: %s", i, file.Workloads[i], w.name, w.why)
			}
			cfg := runConfig{
				w: w, seed: 1, flows: defaultFlows / 16, setups: 1, cores: smokeCores,
				identctl: smokeIdentctl, workdir: t.TempDir(), outdir: t.TempDir(),
			}
			for _, traced := range []bool{false, true} {
				cfg.traced = traced
				cfg.seconds = 1.5
				if traced {
					cfg.seconds = 2
				}
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if res.Failed != 0 || res.Wrong != 0 || len(res.Invalid) != 0 || res.Attempted == 0 {
					t.Errorf("traced=%v: failed %d of %d ops, %d wrong verdicts, guards %q",
						traced, res.Failed, res.Attempted, res.Wrong, res.Invalid)
				}
				if traced {
					checkMetrics(t, res.Metrics, file.PerLayer)
					if _, err := os.Stat(res.SpanFile); err != nil {
						t.Errorf("span file: %v", err)
					}
				} else {
					checkMetrics(t, res.Metrics, file.EndToEnd)
				}
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
