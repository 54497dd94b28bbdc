package telemetry

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// Probe is one named health check. Check returns nil when healthy; the
// error text is surfaced verbatim in the endpoint body.
type Probe struct {
	Name  string
	Check func() error
}

// Health is the probe set behind /healthz (liveness) and /readyz
// (readiness). Liveness means "the process is making progress and should
// not be restarted"; readiness means "the process can do useful work right
// now and should receive traffic". A controller that is up but has no
// policy yet is live but not ready.
type Health struct {
	mu    sync.Mutex
	ready []Probe
}

// NewHealth creates an empty probe set. With no probes registered both
// endpoints report healthy; /healthz always does — answering the HTTP
// request at all is the liveness signal.
func NewHealth() *Health {
	return &Health{}
}

// AddReadiness registers a readiness probe.
func (h *Health) AddReadiness(name string, check func() error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ready = append(h.ready, Probe{Name: name, Check: check})
}

func (h *Health) snapshot() []Probe {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Probe(nil), h.ready...)
}

// run executes the probes and writes a plain-text report: one
// "ok <name>" / "fail <name>: <err>" line per probe, status 200 when all
// pass and 503 otherwise.
func (h *Health) run(w http.ResponseWriter, probes []Probe) {
	type result struct {
		name string
		err  error
	}
	results := make([]result, len(probes))
	failed := false
	for i, p := range probes {
		results[i] = result{name: p.Name, err: p.Check()}
		if results[i].err != nil {
			failed = true
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if failed {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	for _, res := range results {
		if res.err != nil {
			fmt.Fprintf(w, "fail %s: %s\n", res.name, res.err)
		} else {
			fmt.Fprintf(w, "ok %s\n", res.name)
		}
	}
	if len(results) == 0 {
		fmt.Fprintln(w, "ok")
	}
}

// LiveHandler serves /healthz.
func (h *Health) LiveHandler(w http.ResponseWriter, _ *http.Request) {
	h.run(w, nil)
}

// ReadyHandler serves /readyz.
func (h *Health) ReadyHandler(w http.ResponseWriter, _ *http.Request) {
	h.run(w, h.snapshot())
}

// errNotReady is the base error for the canned probes in wiring.go.
var errNotReady = errors.New("not ready")
