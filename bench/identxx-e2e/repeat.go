package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Repeatability mode measures the benchmark against itself: sets of runs of
// the same code, interleaved the way a parent and a change are measured
// (A1 B1 A2 B2 …), each run on another seed. Two sets of the same code must
// agree within the bound of every end-to-end metric, or the bound cannot tell
// a regression from noise.

// benchmarkFile is what the benchmark reads of BENCHMARK.json: the names it
// must print, and for each end-to-end metric the share of the parent's median
// by which it may worsen.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []benchmarkMetric `json:"end_to_end"`
	PerLayer  []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// quartiles are Python's statistics.quantiles(v, n=4), the exclusive method,
// which is what the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(math.Floor(pos)), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

type setStats struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
}

type repeatRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	Bound    float64    `json:"bound"`
	Sets     []setStats `json:"sets"`
	// Worsening is how much worse the last set's median is than the first's,
	// as a share of the first's; negative when it is better.
	Worsening float64 `json:"worsening"`
	Within    bool    `json:"within_bound"`
}

func repeatability(cfg runConfig, sets, repeat int) error {
	if repeat < 2 {
		return fmt.Errorf("-repeat %d: quartiles need at least two runs per set", repeat)
	}
	file, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	endToEnd := file.EndToEnd
	values := map[string][][]float64{} // workload/metric → set → values
	seed := cfg.seed
	for i := 0; i < repeat; i++ {
		for s := 0; s < sets; s++ {
			for w := range workloads {
				cfg.w, cfg.seed = &workloads[w], seed
				res, err := runWorkload(cfg)
				if err != nil {
					return fmt.Errorf("%s: %w", cfg.w.name, err)
				}
				if !res.correct() {
					res.print(os.Stderr)
					return fmt.Errorf("%s seed %d: run failed an op or a guard", cfg.w.name, seed)
				}
				fmt.Fprintf(os.Stderr, "set %c run %d  %-13s seed %d ", 'A'+s, i+1, cfg.w.name, seed)
				for _, e := range endToEnd {
					key := cfg.w.name + "/" + e.Name
					if values[key] == nil {
						values[key] = make([][]float64, sets)
					}
					values[key][s] = append(values[key][s], res.Metrics[e.Name].Value)
					fmt.Fprintf(os.Stderr, " %s=%.4g", e.Name, res.Metrics[e.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
			seed++
		}
	}
	var rows []repeatRow
	ok := true
	fmt.Printf("%-13s %-24s %6s  %s\n", "workload", "metric", "bound", "per set: median [q1, q3] spread;  last set against first")
	for w := range workloads {
		for _, e := range endToEnd {
			row := repeatRow{Workload: workloads[w].name, Metric: e.Name, Unit: e.Unit, Bound: e.Bound}
			line := fmt.Sprintf("%-13s %-24s %6.2f ", row.Workload, e.Name, e.Bound)
			for _, v := range values[row.Workload+"/"+e.Name] {
				q1, q2, q3 := quartiles(v)
				st := setStats{Values: v, Q1: q1, Median: q2, Q3: q3, Spread: ratio(q3-q1, q2)}
				row.Sets = append(row.Sets, st)
				line += fmt.Sprintf(" %.5g [%.5g, %.5g] %.1f%%;", q2, q1, q3, 100*st.Spread)
			}
			first, last := row.Sets[0].Median, row.Sets[len(row.Sets)-1].Median
			row.Worsening = ratio(last-first, first)
			if e.Better == "higher" {
				row.Worsening = -row.Worsening
			}
			row.Within = row.Worsening <= e.Bound
			for _, st := range row.Sets {
				row.Within = row.Within && st.Spread <= e.Bound
			}
			ok = ok && row.Within
			verdict := "within"
			if !row.Within {
				verdict = "OUTSIDE"
			}
			fmt.Printf("%s  %+.1f%% %s\n", line, 100*row.Worsening, verdict)
			rows = append(rows, row)
		}
	}
	if err := os.MkdirAll(cfg.outdir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outdir, "repeatability.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("written:", path)
	if !ok {
		return fmt.Errorf("a metric's spread or between-set difference exceeds its bound")
	}
	return nil
}
