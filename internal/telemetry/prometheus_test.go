package telemetry

import (
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"identxx/internal/core"
	"identxx/internal/flow"
	"identxx/internal/metrics"
	"identxx/internal/netaddr"
	"identxx/internal/openflow"
	"identxx/internal/pf"
	"identxx/internal/query"
	"identxx/internal/wire"
)

// --- fixtures -----------------------------------------------------------

// okTransport answers every query inline, as a controller's transport and
// as an engine's lower.
type okTransport struct{}

func (okTransport) QueryAsync(host netaddr.IP, q wire.Query, done func(*wire.Response, time.Duration, error)) {
	r := wire.NewResponse(q.Flow)
	r.Add(wire.KeyName, "skype")
	done(r, time.Millisecond, nil)
}

func (t okTransport) Go(host netaddr.IP, q wire.Query, _, _ time.Time, done func(*wire.Response, time.Duration, error)) {
	t.QueryAsync(host, q, done)
}

func (okTransport) SetUpdateHandler(func(netaddr.IP, wire.Update)) {}
func (okTransport) Standing(netaddr.IP) core.Standing {
	return core.Standing{Authorized: true, Streaming: true}
}
func (okTransport) CredentialStatus(netaddr.IP) (query.CredStatus, bool) {
	return query.CredStatus{}, false
}
func (okTransport) CredentialSessions() []query.HostCredStatus { return nil }

type lineTopo struct{}

func (lineTopo) Path(src, dst netaddr.IP) ([]core.Hop, error) {
	return []core.Hop{{Datapath: 1, OutPort: 2}}, nil
}

type nullDatapath struct{ id uint64 }

func (d *nullDatapath) DatapathID() uint64           { return d.id }
func (d *nullDatapath) Apply(openflow.FlowMod) error { return nil }
func (d *nullDatapath) ReleaseBuffer(id uint32)      {}

func newTestController(t *testing.T) *core.Controller {
	t.Helper()
	ctl := core.New(core.Config{
		Name:             "telemetry-test",
		Policy:           pf.MustCompile("p", "block all\npass from any to any with eq(@src[name], skype)"),
		Transport:        okTransport{},
		Topology:         lineTopo{},
		ResponseCacheTTL: time.Hour,
		Megaflow:         true,
	})
	ctl.AddDatapath(&nullDatapath{id: 1})
	return ctl
}

func driveFlow(ctl *core.Controller, srcPort netaddr.Port) {
	ctl.HandleEvent(openflow.PacketIn{
		SwitchID: 1, BufferID: openflow.BufferNone, InPort: 1,
		Tuple: flow.Ten{
			EthType: flow.EthTypeIPv4,
			SrcIP:   netaddr.MustParseIP("10.0.0.1"),
			DstIP:   netaddr.MustParseIP("10.0.0.2"),
			Proto:   netaddr.ProtoTCP, SrcPort: srcPort, DstPort: 80,
		},
	})
}

// --- exposition-format validation --------------------------------------

var (
	helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^{}]*)\})? (NaN|[+-]Inf|-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"$`)
)

// parseExposition validates the text format line by line and returns
// name -> value for unlabeled samples plus the TYPE of every family.
func parseExposition(t *testing.T, out string) (values map[string]float64, types map[string]string) {
	t.Helper()
	values = make(map[string]float64)
	types = make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			if !helpRe.MatchString(line) {
				t.Fatalf("malformed HELP line %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := types[m[1]]; dup {
				t.Fatalf("duplicate TYPE for %s", m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name, labels, value := m[1], m[3], m[4]
		if labels != "" {
			for _, lv := range splitLabels(labels) {
				if !labelRe.MatchString(lv) {
					t.Fatalf("malformed label %q in line %q", lv, line)
				}
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if typ, ok := types[strings.TrimSuffix(name, suffix)]; ok && typ == "histogram" && strings.HasSuffix(name, suffix) {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := types[base]; !ok {
			t.Fatalf("sample %q has no preceding TYPE", line)
		}
		if labels == "" {
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("bad value in %q: %v", line, err)
			}
			values[name] = v
		}
	}
	return values, types
}

// splitLabels splits k="v" pairs on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// --- tests ---------------------------------------------------------------

func TestCounterAndGaugeExposition(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounterFunc("things_done", "Things done.", func() int64 { return 42 })
	r.RegisterGaugeFunc("level", "A level.", func() int64 { return -7 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	values, types := parseExposition(t, b.String())
	if types["identxx_things_done_total"] != "counter" {
		t.Errorf("counter TYPE missing: %v", types)
	}
	if values["identxx_things_done_total"] != 42 {
		t.Errorf("counter value = %v", values["identxx_things_done_total"])
	}
	if types["identxx_level"] != "gauge" || values["identxx_level"] != -7 {
		t.Errorf("gauge = %v %v", types["identxx_level"], values["identxx_level"])
	}
}

func TestNameSanitizationAndLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.RegisterGaugeFunc("bad-name.with chars", "g", func() int64 { return 1 },
		Label{Key: "role", Value: `quo"te\slash` + "\nnewline"})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "identxx_bad_name_with_chars{") {
		t.Errorf("name not sanitized:\n%s", out)
	}
	want := `role="quo\"te\\slash\nnewline"`
	if !strings.Contains(out, want) {
		t.Errorf("label not escaped, want %s in:\n%s", want, out)
	}
	parseExposition(t, out)

	if got := sanitizeName("0day"); got != "_0day" {
		t.Errorf("leading digit: %q", got)
	}
	if got := sanitizeName(""); got != "_" {
		t.Errorf("empty name: %q", got)
	}
}

// scrapeBuckets scrapes r and returns family's finite buckets in emission
// order (bound in seconds, cumulative count), its +Inf bucket and its _count.
func scrapeBuckets(t *testing.T, r *Registry, family string) (les, counts []float64, inf, count float64) {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	parseExposition(t, out)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, family+"_bucket") {
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatal(err)
			}
			le := line[strings.Index(line, `le="`)+4 : strings.LastIndexByte(line, '"')]
			if le == "+Inf" {
				inf = v
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatal(err)
			}
			les, counts = append(les, bound), append(counts, v)
		}
		if strings.HasPrefix(line, family+"_count ") {
			count, _ = strconv.ParseFloat(strings.Fields(line)[1], 64)
		}
	}
	return les, counts, inf, count
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := metrics.NewHistogram()
	for _, d := range []time.Duration{
		500 * time.Nanosecond, 50 * time.Microsecond, 2 * time.Millisecond,
		30 * time.Millisecond, 700 * time.Millisecond, 20 * time.Second,
	} {
		h.Observe(d)
	}
	r := NewRegistry()
	r.RegisterHistogram("lat", "Latency.", h)
	les, counts, infCount, count := scrapeBuckets(t, r, "identxx_lat_seconds")

	// The ladder covers 1 µs – 10 s in 18–28 ascending lines; counts must
	// be non-decreasing and end at the true count.
	if n := len(les); n < 18 || n > 28 || les[0] > 1e-6 || les[n-1] < 10 {
		t.Fatalf("le ladder = %v, want 18-28 bounds covering 1e-06..10", les)
	}
	prev := float64(0)
	for i, c := range counts {
		if c < prev || (i > 0 && les[i] <= les[i-1]) {
			t.Errorf("bucket %d (le=%v) count %v after %v (not cumulative)", i, les[i], c, prev)
		}
		prev = c
	}
	if infCount != 6 || count != 6 {
		t.Errorf("inf=%v count=%v, want 6", infCount, count)
	}
	// 20s exceeds the largest finite bound, so the last finite bucket
	// must hold 5, not 6.
	if counts[len(counts)-1] != 5 {
		t.Errorf("last finite bucket = %v, want 5", counts[len(counts)-1])
	}

	// Buckets are exact at any observation count and never fall between
	// scrapes. A sampled histogram fails both: its finite buckets stop at
	// the sample capacity, then shrink as later observations displace
	// earlier ones.
	h = metrics.NewHistogram()
	r = NewRegistry()
	r.RegisterHistogram("lat", "Latency.", h)
	var before []float64
	total := float64(0)
	for _, d := range []time.Duration{5 * time.Microsecond, 5 * time.Millisecond} {
		for i := 0; i < 100000; i++ {
			h.Observe(d)
		}
		total += 100000
		les, counts, inf, count := scrapeBuckets(t, r, "identxx_lat_seconds")
		if inf != total || count != total || float64(h.Count()) != total {
			t.Errorf("after %v phase: +Inf=%v _count=%v cells=%d, want %v", d, inf, count, h.Count(), total)
		}
		for i, le := range les {
			if le >= d.Seconds() && counts[i] != total {
				t.Errorf("after %v phase: le=%v reads %v, want %v", d, le, counts[i], total)
			}
			if before != nil && counts[i] < before[i] {
				t.Errorf("le=%v fell from %v to %v between scrapes", le, before[i], counts[i])
			}
		}
		before = counts
	}
}

func TestUndeclaredCounterIsFlagged(t *testing.T) {
	set := metrics.NewCounter()
	set.Add("declared_one", 3)
	set.Add("sneaky", 9)
	r := NewRegistry()
	r.RegisterCounterSet(set, map[string]string{
		"declared_one": "A declared counter.",
		"never_hit":    "Declared but never incremented.",
	})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	values, _ := parseExposition(t, out)
	if values["identxx_declared_one_total"] != 3 {
		t.Errorf("declared_one = %v", values["identxx_declared_one_total"])
	}
	if v, ok := values["identxx_never_hit_total"]; !ok || v != 0 {
		t.Errorf("declared-but-untouched counter absent or nonzero: %v %v", v, ok)
	}
	if !strings.Contains(out, "identxx_sneaky_total") || !strings.Contains(out, "UNDOCUMENTED") {
		t.Errorf("undeclared counter not flagged:\n%s", out)
	}
}

// TestControllerParseBack registers a real controller + engine, drives
// traffic, and parses the entire scrape back — the acceptance check that
// GET /metrics emits valid exposition.
func TestControllerParseBack(t *testing.T) {
	ctl := newTestController(t)
	for p := netaddr.Port(1000); p < 1010; p++ {
		driveFlow(ctl, p)
	}
	eng := query.NewEngine(query.Config{Lower: okTransport{}})
	defer eng.Close()

	r := NewRegistry()
	RegisterController(r, ctl)
	RegisterEngine(r, eng)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	values, types := parseExposition(t, b.String())

	if values["identxx_packet_ins_total"] != 10 {
		t.Errorf("packet_ins = %v", values["identxx_packet_ins_total"])
	}
	if values["identxx_flows_allowed_total"] != 10 {
		t.Errorf("flows_allowed = %v", values["identxx_flows_allowed_total"])
	}
	if values["identxx_policy_epoch"] != 0 {
		t.Errorf("policy_epoch = %v", values["identxx_policy_epoch"])
	}
	if values["identxx_datapaths"] != 1 {
		t.Errorf("datapaths = %v", values["identxx_datapaths"])
	}
	if types["identxx_setup_total_seconds"] != "histogram" {
		t.Errorf("setup histogram TYPE missing")
	}
	if values["identxx_setup_total_seconds_count"] != 10 {
		t.Errorf("setup count = %v", values["identxx_setup_total_seconds_count"])
	}
	// Every declared controller counter must appear even if untouched.
	for raw := range ControllerCounters {
		if _, ok := values[counterName(raw)]; !ok {
			t.Errorf("declared counter %s missing from scrape", raw)
		}
	}
	// Nothing the controller actually incremented may be undocumented.
	if strings.Contains(b.String(), "UNDOCUMENTED") {
		t.Errorf("scrape contains undocumented counters:\n%s", b.String())
	}
}

// TestScrapeAllocatesLittle: a scrape of a controller's and an engine's
// whole surface formats values only — names, labels and bucket bounds were
// rendered at registration — so it allocates the writer, the registry's
// family list and one snapshot per counter set and ladder per histogram:
// a few dozen objects, where rendering every name on every scrape took
// several hundred.
func TestScrapeAllocatesLittle(t *testing.T) {
	ctl := newTestController(t)
	driveFlow(ctl, 1000)
	eng := query.NewEngine(query.Config{Lower: okTransport{}})
	defer eng.Close()
	r := NewRegistry()
	RegisterController(r, ctl, Label{Key: "role", Value: "controller"})
	RegisterEngine(r, eng)
	if n := testing.AllocsPerRun(20, func() { r.WritePrometheus(io.Discard) }); n > 40 {
		t.Errorf("a scrape allocates %v objects, want at most 40", n)
	}
}

// TestPolicyScanGaugesFollowSetPolicy: the two policy gauges are read from
// the live snapshot, so a reload that de-optimises the scan — range rules
// no header field can file under a value — shows up on the next scrape.
func TestPolicyScanGaugesFollowSetPolicy(t *testing.T) {
	ctl := newTestController(t)
	r := NewRegistry()
	RegisterController(r, ctl)
	scrape := func() (rules, worst float64) {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		values, _ := parseExposition(t, b.String())
		return values["identxx_policy_rules"], values["identxx_policy_scan_worst_case"]
	}
	if rules, worst := scrape(); rules != 2 || worst != 2 {
		t.Errorf("two-rule policy: rules=%v worst=%v, want 2 and 2", rules, worst)
	}

	var indexed strings.Builder
	indexed.WriteString("block all\n")
	for port := 8000; port < 8100; port++ {
		fmt.Fprintf(&indexed, "pass from any to any port %d\n", port)
	}
	ctl.SetPolicy(pf.MustCompile("p", indexed.String()))
	if rules, worst := scrape(); rules != 101 || worst != 2 {
		t.Errorf("a port per rule: rules=%v worst=%v, want 101 and 2", rules, worst)
	}

	for lo := 1000; lo < 1050; lo++ {
		fmt.Fprintf(&indexed, "block from any to any port %d-%d\n", lo, lo+10)
	}
	ctl.SetPolicy(pf.MustCompile("p", indexed.String()))
	if rules, worst := scrape(); rules != 151 || worst != 52 {
		t.Errorf("fifty range rules appended: rules=%v worst=%v, want 151 and 52", rules, worst)
	}
}

// TestScrapeDuringSetPolicy races scrapes against policy-epoch swaps and
// live traffic; run under -race this is the concurrent-scrape acceptance
// test.
func TestScrapeDuringSetPolicy(t *testing.T) {
	ctl := newTestController(t)
	r := NewRegistry()
	RegisterController(r, ctl)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctl.SetPolicy(pf.MustCompile("p", "pass all"))
			driveFlow(ctl, netaddr.Port(2000+i%100))
		}
	}()
	go func() {
		defer wg.Done()
		for p := netaddr.Port(0); ; p++ {
			select {
			case <-stop:
				return
			default:
			}
			driveFlow(ctl, 10000+p%500)
		}
	}()
	deadline := time.After(200 * time.Millisecond)
	for {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		parseExposition(t, b.String())
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			return
		default:
		}
	}
}

func TestRegistryNames(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounterFunc("a", "a.", func() int64 { return 0 })
	r.RegisterGaugeFunc("b", "b.", func() int64 { return 0 })
	h := metrics.NewHistogram()
	r.RegisterHistogram("c", "c.", h)
	r.RegisterCounterSet(metrics.NewCounter(), map[string]string{"d": "d."})
	want := []string{"identxx_a_total", "identxx_b", "identxx_c_seconds", "identxx_d_total"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
