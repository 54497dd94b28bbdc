// Package telemetry is the export layer over internal/metrics: it walks a
// registry of counters, gauges, and histograms and serves them as
// Prometheus text exposition over HTTP, alongside liveness/readiness
// endpoints wired to real process signals and a structured (JSON-lines)
// audit stream tapped off the controller's audit ring.
//
// The package deliberately sits outside the decision path. Counters,
// gauges and histogram cells are read with atomic loads at scrape time.
// Nothing here is ever called from HandleEvent or finishDecision except the
// audit tap, which is a single non-blocking channel send (audit.go).
//
// Wiring helpers in wiring.go register each component's full metric surface
// (controller, query engine, query pool, daemon) with declared name→help
// tables; docs/metrics.md mirrors those tables and a drift test keeps the
// two in lockstep.
package telemetry

import (
	"io"
	"sort"
	"sync"

	"identxx/internal/metrics"
)

// Namespace prefixes every exposition name, so identxx metrics never
// collide with another exporter's on a shared Prometheus.
const Namespace = "identxx"

// Label is one constant label attached at registration (e.g. the component
// role, the daemon's host IP). Values are escaped at write time.
type Label struct {
	Key   string
	Value string
}

// kind discriminates the exposition TYPE of a family.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
	counterSetKind
)

// family is one registered metric family: a single counter/gauge closure, a
// histogram, or a whole metrics.Counter set with declared names.
type family struct {
	name   string // exposition name, fully qualified, suffix included
	help   string
	kind   kind
	labels []Label

	value func() int64       // counterKind, gaugeKind
	hist  *metrics.Histogram // histogramKind

	// counterSetKind: the live set plus declared raw-name → help. Declared
	// names are always exported (zero when the cell was never touched);
	// undeclared names that show up in the snapshot are exported too, with
	// a help line that names them as undocumented — the drift test turns
	// that into a CI failure instead of a silent gap.
	set      *metrics.Counter
	declared map[string]string
	prefix   string // prepended to raw names, e.g. "" or "daemon-side" sets
}

// Registry holds registered families and renders them (prometheus.go). All
// methods are safe for concurrent use; registration order is preserved in
// the exposition output so scrapes are stable and diffable.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// RegisterCounterFunc registers a monotone counter read through fn at
// scrape time. name is the raw name; the exposition name becomes
// identxx_<name>_total.
func (r *Registry) RegisterCounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.add(&family{
		name:   counterName(name),
		help:   help,
		kind:   counterKind,
		labels: labels,
		value:  fn,
	})
}

// RegisterGaugeFunc registers an instantaneous level read through fn at
// scrape time. The exposition name becomes identxx_<name>.
func (r *Registry) RegisterGaugeFunc(name, help string, fn func() int64, labels ...Label) {
	r.add(&family{
		name:   gaugeName(name),
		help:   help,
		kind:   gaugeKind,
		labels: labels,
		value:  fn,
	})
}

// RegisterGauge registers a metrics.Gauge. Equivalent to RegisterGaugeFunc
// over g.Get.
func (r *Registry) RegisterGauge(name, help string, g *metrics.Gauge, labels ...Label) {
	r.RegisterGaugeFunc(name, help, g.Get, labels...)
}

// RegisterHistogram registers a duration histogram, exported in seconds as
// identxx_<name>_seconds with _bucket/_sum/_count series. Bucket counts
// come from the reservoir's retained samples; the +Inf bucket and _count
// carry the true observation count, and _sum the true sum, so rate() and
// mean latency stay exact even after the reservoir saturates.
func (r *Registry) RegisterHistogram(name, help string, h *metrics.Histogram, labels ...Label) {
	r.add(&family{
		name:   histogramName(name),
		help:   help,
		kind:   histogramKind,
		labels: labels,
		hist:   h,
	})
}

// RegisterCounterSet registers a whole metrics.Counter. declared maps each
// expected raw counter name to its help text; every declared name is
// exported on every scrape (zero before first increment), and any
// undeclared name found in the live set is exported with an "undocumented"
// help marker so it cannot hide. Each raw name n becomes
// identxx_<n>_total.
func (r *Registry) RegisterCounterSet(set *metrics.Counter, declared map[string]string, labels ...Label) {
	r.add(&family{
		kind:     counterSetKind,
		labels:   labels,
		set:      set,
		declared: declared,
	})
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fams = append(r.fams, f)
}

// snapshot returns the family list for rendering.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.fams))
	copy(out, r.fams)
	return out
}

// Names returns every exposition family name the registry would emit for
// its declared surface, sorted and deduplicated (series suffixes like
// _bucket are not included; a histogram contributes its base name). The
// docs drift test diffs this against docs/metrics.md.
func (r *Registry) Names() []string {
	seen := make(map[string]struct{})
	for _, f := range r.snapshot() {
		switch f.kind {
		case counterSetKind:
			for raw := range f.declared {
				seen[counterName(raw)] = struct{}{}
			}
		default:
			seen[f.name] = struct{}{}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4). See prometheus.go for the renderer.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return writePrometheus(w, r.snapshot())
}

func counterName(raw string) string {
	return Namespace + "_" + sanitizeName(raw) + "_total"
}

func gaugeName(raw string) string {
	return Namespace + "_" + sanitizeName(raw)
}

func histogramName(raw string) string {
	return Namespace + "_" + sanitizeName(raw) + "_seconds"
}
