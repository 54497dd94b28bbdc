package telemetry

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"io"

	"identxx/internal/cluster"
	"identxx/internal/daemon"
	"identxx/internal/hostinfo"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/query"
	"identxx/internal/trace"
)

// This file is the anti-drift mechanism behind docs/metrics.md: the doc's
// metric table must list exactly the names the full wired registry
// exports, and every counter literal incremented anywhere in non-test
// source must be declared in one of the wiring tables. Adding a counter
// without documenting it — or documenting one that no longer exists —
// fails CI.

type nullResolver struct{}

func (nullResolver) Resolve(host netaddr.IP) (string, bool) { return "", false }

// fullRegistry wires every component the way the binaries do.
func fullRegistry(t *testing.T) *Registry {
	t.Helper()
	ctl := newTestController(t)
	eng := query.NewEngine(query.Config{Lower: okTransport{}})
	t.Cleanup(func() { eng.Close() })
	pool := query.NewPool(query.PoolConfig{Resolver: nullResolver{}})
	t.Cleanup(func() { pool.Close() })
	d := daemon.New(hostinfo.New("drift", netaddr.MustParseIP("10.9.9.9"), netaddr.MAC(9)))
	sink := NewAuditSink(io.Discard, 1)
	t.Cleanup(sink.Close)

	rt := cluster.NewRouter(newTestController(t), cluster.Member{ID: "telemetry-test"}, cluster.Options{})

	r := NewRegistry()
	RegisterController(r, ctl)
	RegisterRouter(r, rt)
	RegisterEngine(r, eng)
	RegisterPool(r, pool)
	RegisterDaemon(r, d)
	RegisterAuditSink(r, sink)
	RegisterTrace(r, trace.New(trace.Config{SampleEvery: 1}))
	RegisterBuildInfo(r)
	return r
}

var docMetricRe = regexp.MustCompile("`(identxx_[a-zA-Z0-9_:]+)`")

// docNames extracts the metric names documented in docs/metrics.md's
// tables (rows whose first cell is a backticked identxx_* name).
func docNames(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "metrics.md"))
	if err != nil {
		t.Fatalf("docs/metrics.md unreadable (every exported metric must be documented there): %v", err)
	}
	names := make(map[string]bool)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "| `identxx_") {
			continue
		}
		if m := docMetricRe.FindStringSubmatch(line); m != nil {
			names[m[1]] = true
		}
	}
	return names
}

func TestMetricsDocMatchesRegistry(t *testing.T) {
	registry := fullRegistry(t).Names()
	doc := docNames(t)

	var missing, stale []string
	for _, n := range registry {
		if !doc[n] {
			missing = append(missing, n)
		}
	}
	seen := make(map[string]bool, len(registry))
	for _, n := range registry {
		seen[n] = true
	}
	for n := range doc {
		if !seen[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("exported metrics missing from docs/metrics.md (add a table row for each):\n  %s",
			strings.Join(missing, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("docs/metrics.md documents metrics the registry no longer exports (delete the rows):\n  %s",
			strings.Join(stale, "\n  "))
	}

	// The le ladder is pinned the same way: the doc's "`le` = ..."
	// paragraph must list exactly the bounds every histogram exports.
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "metrics.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, para, _ := strings.Cut(string(raw), "`le` = ")
	para, _, _ = strings.Cut(para, "\n\n")
	var want []string
	ladder, _ := metrics.NewHistogram().Buckets()
	for _, b := range ladder {
		want = append(want, formatLe(b.Le.Seconds()))
	}
	want = append(want, "+Inf")
	if got := strings.Join(strings.Fields(para), " "); got != strings.Join(want, ", ") {
		t.Errorf("docs/metrics.md le ladder disagrees with the exporter:\n  doc:  %s\n  code: %s", got, strings.Join(want, ", "))
	}
}

var counterLiteralRe = regexp.MustCompile(`\.(?:Add|Cell)\("([a-z][a-z0-9_]*)"`)

// sourceCounterNames scans non-test Go source under internal/ and cmd/
// for counter-name literals.
func sourceCounterNames(t *testing.T) map[string][]string {
	t.Helper()
	found := make(map[string][]string) // name -> files
	for _, root := range []string{filepath.Join("..", ".."), filepath.Join("..", "..", "cmd")} {
		root := root
		err := filepath.Walk(filepath.Join(root), func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() {
				base := info.Name()
				if base == ".git" || base == "testdata" || base == "docs" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range counterLiteralRe.FindAllStringSubmatch(string(src), -1) {
				found[m[1]] = append(found[m[1]], path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		break // first root already covers everything
	}
	return found
}

func TestSourceCountersAreDeclared(t *testing.T) {
	declared := make(map[string]bool)
	for _, table := range []map[string]string{
		ControllerCounters, ClusterCounters, EngineCounters, PoolCounters, DaemonCounters, AuditSinkCounters, TraceCounters,
	} {
		for name := range table {
			declared[name] = true
		}
	}
	found := sourceCounterNames(t)
	var undeclared []string
	for name, files := range found {
		if !declared[name] {
			undeclared = append(undeclared, name+" ("+files[0]+")")
		}
	}
	sort.Strings(undeclared)
	if len(undeclared) > 0 {
		t.Errorf("counters incremented in source but absent from the telemetry wiring tables (declare them in wiring.go and document them in docs/metrics.md):\n  %s",
			strings.Join(undeclared, "\n  "))
	}

	// The reverse: every declared counter-set name must still be
	// incremented somewhere (audit_sink_* are closures, not Counter
	// cells, so they are exempt).
	var stale []string
	for _, table := range []map[string]string{
		ControllerCounters, ClusterCounters, EngineCounters, PoolCounters, DaemonCounters, TraceCounters,
	} {
		for name := range table {
			if len(found[name]) == 0 {
				stale = append(stale, name)
			}
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("wiring tables declare counters no source increments (delete the declarations and doc rows):\n  %s",
			strings.Join(stale, "\n  "))
	}
}

var registerKindRe = regexp.MustCompile(`Register(GaugeFunc|Gauge|Histogram)\("([a-z][a-z0-9_]*)"`)

// docTypes extracts (full metric name -> documented type cell) from
// docs/metrics.md's table rows.
func docTypes(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "docs", "metrics.md"))
	if err != nil {
		t.Fatal(err)
	}
	types := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "| `identxx_") {
			continue
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		m := docMetricRe.FindStringSubmatch(cells[1])
		if m == nil {
			continue
		}
		types[m[1]] = strings.TrimSpace(cells[2])
	}
	return types
}

// TestGaugesAndHistogramsAreDocumented pins gauge and histogram names the
// same way counters are pinned: every Register{Gauge,GaugeFunc,Histogram}
// literal in non-test source must have a docs/metrics.md row whose type
// cell matches, and every row the doc types as gauge or histogram must
// correspond to a registration literal.
func TestGaugesAndHistogramsAreDocumented(t *testing.T) {
	wantType := make(map[string]string) // full exported name -> gauge|histogram
	for _, root := range []string{filepath.Join("..", "..")} {
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if info.IsDir() {
				base := info.Name()
				if base == ".git" || base == "testdata" || base == "docs" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range registerKindRe.FindAllStringSubmatch(string(src), -1) {
				switch m[1] {
				case "Gauge", "GaugeFunc":
					wantType["identxx_"+m[2]] = "gauge"
				case "Histogram":
					wantType["identxx_"+m[2]+"_seconds"] = "histogram"
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	doc := docTypes(t)

	var missing, mistyped []string
	for name, kind := range wantType {
		switch got, ok := doc[name], doc[name] != ""; {
		case !ok:
			missing = append(missing, name+" ("+kind+")")
		case got != kind:
			mistyped = append(mistyped, name+": documented as "+got+", registered as "+kind)
		}
	}
	sort.Strings(missing)
	sort.Strings(mistyped)
	if len(missing) > 0 {
		t.Errorf("registered gauges/histograms missing from docs/metrics.md (add a table row for each):\n  %s",
			strings.Join(missing, "\n  "))
	}
	if len(mistyped) > 0 {
		t.Errorf("docs/metrics.md type cells disagree with the registrations:\n  %s",
			strings.Join(mistyped, "\n  "))
	}

	// The reverse: every doc row typed gauge or histogram must come from a
	// registration literal somewhere in source.
	var stale []string
	for name, kind := range doc {
		if kind != "gauge" && kind != "histogram" {
			continue
		}
		if wantType[name] == "" {
			stale = append(stale, name+" ("+kind+")")
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("docs/metrics.md documents gauges/histograms nothing registers (delete the rows):\n  %s",
			strings.Join(stale, "\n  "))
	}
}
