// Command benchdiff compares two `go test -bench -benchmem` outputs and
// enforces the repository's performance budgets (README "Allocation
// budget"): an allocs/op regression against the base, or an allocs/op or
// B/op value above an absolute budget, fails the run (exit 1); an ns/op
// regression beyond the slack only warns, because wall-time on shared CI
// runners is noisy in ways allocation counts are not.
//
// Usage:
//
//	benchdiff [-ns-warn pct] [-max-allocs regex=N ...] [-max-bytes regex=N ...] [-json file] base.txt head.txt
//
// go test rounds allocs/op down to a whole number, so a path that
// allocates once every few operations reads 0 allocs/op; its B/op does not
// round away, and -max-bytes gates that.
//
// -json serializes the whole comparison — per-benchmark base/head
// measurements, deltas, and every gate outcome — to a machine-readable
// report, written even when the gate fails; CI uploads it as the run's
// artifact so regressions can be charted across PRs without re-parsing
// benchmark text.
//
// With -count > 1 runs in the inputs, the minimum per benchmark is used:
// minima are noise-robust for both time and allocation measurements.
//
// Warnings are emitted in GitHub Actions annotation form (::warning::) so
// they surface on the PR without failing it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's aggregated measurements.
type result struct {
	ns     float64
	bytes  float64
	allocs float64
	seen   bool
	hasMem bool
}

// budget is one -max-allocs or -max-bytes rule.
type budget struct {
	re  *regexp.Regexp
	max float64
}

type budgetFlags []budget

func (b *budgetFlags) String() string { return fmt.Sprint(*b) }

func (b *budgetFlags) Set(s string) error {
	eq := strings.LastIndex(s, "=")
	if eq < 0 {
		return fmt.Errorf("want regex=N, got %q", s)
	}
	re, err := regexp.Compile(s[:eq])
	if err != nil {
		return err
	}
	max, err := strconv.ParseFloat(s[eq+1:], 64)
	if err != nil {
		return fmt.Errorf("bad budget in %q: %v", s, err)
	}
	*b = append(*b, budget{re: re, max: max})
	return nil
}

// jsonMeasure is one side's aggregated measurements in the -json report.
type jsonMeasure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	HasMem      bool    `json:"has_mem"`
}

// jsonBench is one benchmark's comparison row in the -json report.
type jsonBench struct {
	Name            string       `json:"name"`
	Base            *jsonMeasure `json:"base,omitempty"`
	Head            jsonMeasure  `json:"head"`
	AllocsRegressed bool         `json:"allocs_regressed,omitempty"`
	BudgetExceeded  bool         `json:"budget_exceeded,omitempty"`
	NsRegressed     bool         `json:"ns_regressed,omitempty"`
}

// jsonReport is the full serialized comparison -json writes.
type jsonReport struct {
	Benchmarks      []jsonBench `json:"benchmarks"`
	MissingFromHead []string    `json:"missing_from_head,omitempty"`
	Failed          bool        `json:"failed"`
}

func measureOf(r *result) jsonMeasure {
	return jsonMeasure{NsPerOp: r.ns, BytesPerOp: r.bytes, AllocsPerOp: r.allocs, HasMem: r.hasMem}
}

// cpuSuffix strips the trailing -<GOMAXPROCS> go test appends to names.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseFile reads benchmark lines, keeping the minimum of repeated runs.
func parseFile(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := cpuSuffix.ReplaceAllString(fields[0], "")
		r := out[name]
		if r == nil {
			r = &result{}
			out[name] = r
		}
		// fields: name iters v1 unit1 v2 unit2 ... ; units name the value
		// before them.
		for i := 3; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			keep := func(cur float64) float64 {
				if !r.seen {
					return v
				}
				return min(cur, v)
			}
			switch fields[i] {
			case "ns/op":
				r.ns = keep(r.ns)
			case "B/op":
				r.bytes = keep(r.bytes)
				r.hasMem = true
			case "allocs/op":
				r.allocs = keep(r.allocs)
				r.hasMem = true
			}
		}
		r.seen = true
	}
	return out, sc.Err()
}

func main() {
	var budgets, byteBudgets budgetFlags
	nsWarn := flag.Float64("ns-warn", 10, "warn when head ns/op exceeds base by more than this percentage")
	flag.Var(&budgets, "max-allocs", "regex=N absolute allocs/op budget for matching benchmarks (repeatable)")
	flag.Var(&byteBudgets, "max-bytes", "regex=N absolute B/op budget for matching benchmarks (repeatable)")
	jsonOut := flag.String("json", "", "write the full comparison (measurements and gate outcomes) as JSON to this file")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] base.txt head.txt")
		os.Exit(2)
	}
	base, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	head, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(head) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results in head file")
		os.Exit(2)
	}

	names := make([]string, 0, len(head))
	for n := range head {
		names = append(names, n)
	}
	sort.Strings(names)

	failed := false
	// A benchmark that exists on base but vanished from head silently
	// escapes both the regression check and any budget — surface it.
	baseOnly := make([]string, 0)
	for n := range base {
		if _, ok := head[n]; !ok {
			baseOnly = append(baseOnly, n)
		}
	}
	sort.Strings(baseOnly)
	for _, n := range baseOnly {
		fmt.Printf("::warning::%s present in base but missing from head (renamed or deleted?)\n", n)
	}
	gates := []struct {
		flag, unit string
		rules      *budgetFlags
		matched    []bool
		value      func(*result) float64
	}{
		{"-max-allocs", "allocs/op", &budgets, make([]bool, len(budgets)), func(r *result) float64 { return r.allocs }},
		{"-max-bytes", "B/op", &byteBudgets, make([]bool, len(byteBudgets)), func(r *result) float64 { return r.bytes }},
	}
	report := jsonReport{Benchmarks: make([]jsonBench, 0, len(names)), MissingFromHead: baseOnly}
	for _, name := range names {
		h := head[name]
		b, inBase := base[name]
		row := jsonBench{Name: name, Head: measureOf(h)}
		if inBase {
			m := measureOf(b)
			row.Base = &m
		}
		switch {
		case inBase && b.hasMem && h.hasMem:
			fmt.Printf("%-60s allocs %5.0f -> %-5.0f ns %9.1f -> %-9.1f\n",
				name, b.allocs, h.allocs, b.ns, h.ns)
		case h.hasMem:
			fmt.Printf("%-60s allocs %5s -> %-5.0f ns %9s -> %-9.1f (new)\n",
				name, "-", h.allocs, "-", h.ns)
		default:
			fmt.Printf("%-60s ns %9.1f\n", name, h.ns)
		}

		if inBase && b.hasMem && h.hasMem && h.allocs > b.allocs {
			fmt.Printf("FAIL: %s allocs/op regressed %.0f -> %.0f\n", name, b.allocs, h.allocs)
			row.AllocsRegressed = true
			failed = true
		}
		for _, g := range gates {
			for i, bd := range *g.rules {
				if !bd.re.MatchString(name) {
					continue
				}
				g.matched[i] = true
				if v := g.value(h); h.hasMem && v > bd.max {
					fmt.Printf("FAIL: %s %s %.0f exceeds budget %.0f\n", name, g.unit, v, bd.max)
					row.BudgetExceeded = true
					failed = true
				}
			}
		}
		if inBase && b.ns > 0 && h.ns > b.ns*(1+*nsWarn/100) {
			fmt.Printf("::warning::%s ns/op regressed %.1f -> %.1f (>%g%% slack; timing-only, not failing)\n",
				name, b.ns, h.ns, *nsWarn)
			row.NsRegressed = true
		}
		report.Benchmarks = append(report.Benchmarks, row)
	}
	// A budget rule that matched nothing is a gate checking air — the
	// benchmark was renamed or the regex typo'd. Fail loudly rather than
	// letting the contract silently lapse.
	for _, g := range gates {
		for i, bd := range *g.rules {
			if !g.matched[i] {
				fmt.Printf("FAIL: %s rule %q matched no benchmark in head output\n", g.flag, bd.re)
				failed = true
			}
		}
	}
	// Write the report before the gate exits: a failed gate is exactly
	// when the artifact is most wanted.
	report.Failed = failed
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: marshal report:", err)
			os.Exit(2)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}
