package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// identctl is observed from outside, through what an operator has: its
// Prometheus endpoint, its pprof endpoint and /proc.

// ctlSample is one reading of identctl's operator interfaces.
type ctlSample struct {
	cpu        time.Duration
	syscalls   int64 // syscr + syscw
	ctxSwitch  int64 // voluntary + involuntary
	mallocs    int64
	allocBytes int64
	numGC      int64
	metrics    map[string]float64
}

func (r *rig) pid() int { return r.ctl.Process.Pid }

// procFields reads "name: value" lines of a /proc file into a map of the
// first number on each line.
func procFields(path string) map[string]int64 {
	out := map[string]int64{}
	b, err := os.ReadFile(path)
	if err != nil {
		return out // /proc/<pid>/io is not readable everywhere; the counts then read 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			if v, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				out[name] = v
			}
		}
	}
	return out
}

// rssPeakMB is identctl's peak resident set.
func (r *rig) rssPeakMB() (float64, error) {
	kb, ok := procFields(fmt.Sprintf("/proc/%d/status", r.pid()))["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("no VmHWM in /proc/%d/status", r.pid())
	}
	return float64(kb) / 1024, nil
}

func (r *rig) httpGet(path string) (string, error) {
	resp, err := http.Get("http://" + r.telemetry + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(b), nil
}

// scrape reads /metrics into name → value, summing over label sets. Names
// keep identctl's identxx_ prefix and _total suffix.
func (r *rig) scrape() (map[string]float64, error) {
	body, err := r.httpGet("/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if br := strings.IndexByte(name, '{'); br >= 0 {
			if strings.Contains(name[br:], "le=") {
				continue // histogram buckets; _sum and _count are enough
			}
			name = name[:br]
		}
		out[name] += v
	}
	return out, nil
}

// sample reads everything. It costs identctl a metrics render and a
// stop-the-world MemStats read, so it is taken only at the edges of a phase
// of the traced run, outside the timed interval.
func (r *rig) sample() (ctlSample, error) {
	var s ctlSample
	var err error
	if s.metrics, err = r.scrape(); err != nil {
		return s, err
	}
	prof, err := r.httpGet("/debug/pprof/allocs?debug=1")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(prof, "\n") {
		var name string
		var v int64
		if n, _ := fmt.Sscanf(line, "# %s = %d", &name, &v); n == 2 {
			switch name {
			case "Mallocs":
				s.mallocs = v
			case "TotalAlloc":
				s.allocBytes = v
			case "NumGC":
				s.numGC = v
			}
		}
	}
	io := procFields(fmt.Sprintf("/proc/%d/io", r.pid()))
	s.syscalls = io["syscr"] + io["syscw"]
	// /proc/<pid>/status counts the main thread only; sum the threads.
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", r.pid()))
	for _, t := range tasks {
		st := procFields(t)
		s.ctxSwitch += st["voluntary_ctxt_switches"] + st["nonvoluntary_ctxt_switches"]
	}
	s.cpu = processCPU(r.pid())
	return s, nil
}

// processCPU is the time the process's threads have spent on a CPU, from the
// scheduler's nanosecond counters; /proc/<pid>/stat counts in 10 ms ticks,
// too coarse for a slice.
func processCPU(pid int) time.Duration {
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ns int64
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil {
			if f := strings.Fields(string(b)); len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				ns += v
			}
		}
	}
	return time.Duration(ns)
}

// selfCPU is the generator's own CPU time, daemons included.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the q-quantile (0..1) of sorted, by nearest rank.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// pmax is the highest percentile that still has ten samples beyond it.
func pmax(sorted []int64) float64 {
	if len(sorted) <= 10 {
		return 0
	}
	return float64(sorted[len(sorted)-11])
}

func sortedCopy(v []int64) []int64 {
	out := slices.Clone(v)
	slices.Sort(out)
	return out
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
