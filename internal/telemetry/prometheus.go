package telemetry

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// writePrometheus renders families in text exposition format 0.0.4:
// https://prometheus.io/docs/instrumenting/exposition_formats/
// Every name, label and bucket bound was rendered at registration, and
// values are appended into the writer's own buffer, so a scrape allocates
// little beyond one snapshot per counter set and one ladder per histogram.
func writePrometheus(w io.Writer, fams []*family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		switch f.kind {
		case counterKind:
			writeHeader(bw, f.name, f.help, "counter")
			writeSample(bw, f.name, "", f.labels, "", float64(f.value()))
		case gaugeKind:
			writeHeader(bw, f.name, f.help, "gauge")
			writeSample(bw, f.name, "", f.labels, "", float64(f.value()))
		case histogramKind:
			writeHistogram(bw, f)
		case counterSetKind:
			writeCounterSet(bw, f)
		}
	}
	return bw.Flush()
}

// writeCounterSet emits one family per raw name: declared names first
// (sorted, always present), then any undeclared names found live (sorted,
// flagged undocumented in HELP).
func writeCounterSet(bw *bufio.Writer, f *family) {
	snap := f.set.Snapshot()
	for i, raw := range f.order {
		writeHeader(bw, f.names[i], f.declared[raw], "counter")
		writeSample(bw, f.names[i], "", f.labels, "", float64(snap[raw]))
		delete(snap, raw)
	}
	extras := make([]string, 0, len(snap))
	for raw := range snap {
		extras = append(extras, raw)
	}
	sort.Strings(extras)
	for _, raw := range extras {
		name := counterName(raw)
		writeHeader(bw, name, "UNDOCUMENTED counter (absent from the declared set; add it to the wiring table and docs/metrics.md)", "counter")
		writeSample(bw, name, "", f.labels, "", float64(snap[raw]))
	}
}

// writeHistogram emits _bucket/_sum/_count. The le ladder and its exact
// cumulative counts come from one read of the histogram's cells, and +Inf
// and _count are the total of that same read, so no finite bucket can
// exceed them. _sum is the true sum, so sum/count is the exact mean.
func writeHistogram(bw *bufio.Writer, f *family) {
	writeHeader(bw, f.name, f.help, "histogram")
	ladder, count := f.hist.Buckets()
	for i, b := range ladder {
		writeSample(bw, f.name, "_bucket", f.labels, f.les[i], float64(b.Count))
	}
	writeSample(bw, f.name, "_bucket", f.labels, "+Inf", float64(count))
	writeSample(bw, f.name, "_sum", f.labels, "", f.hist.Sum().Seconds())
	writeSample(bw, f.name, "_count", f.labels, "", float64(count))
}

func writeHeader(bw *bufio.Writer, name, help, typ string) {
	if help != "" {
		bw.WriteString("# HELP ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(help))
		bw.WriteByte('\n')
	}
	bw.WriteString("# TYPE ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(typ)
	bw.WriteByte('\n')
}

// writeSample renders one series line: the name and suffix, the rendered
// labels, and le, when non-empty, as the bucket boundary label.
func writeSample(bw *bufio.Writer, name, suffix, labels, le string, v float64) {
	bw.WriteString(name)
	bw.WriteString(suffix)
	if labels != "" || le != "" {
		bw.WriteByte('{')
		bw.WriteString(labels)
		if le != "" {
			if labels != "" {
				bw.WriteByte(',')
			}
			bw.WriteString(`le="`)
			bw.WriteString(le)
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.Write(appendValue(bw.AvailableBuffer(), v))
	bw.WriteByte('\n')
}

// renderLabels renders constant labels as they stand between a series'
// braces: key="value" pairs, comma-separated, keys sanitized and values
// escaped.
func renderLabels(labels []Label) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeName(l.Key))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// appendValue renders a sample value the way Prometheus clients expect:
// integral values without an exponent where possible.
func appendValue(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// formatLe renders a bucket bound; Prometheus treats le values as opaque
// strings but conventionally uses shortest-form floats.
func formatLe(le float64) string {
	return strconv.FormatFloat(le, 'g', -1, 64)
}

// sanitizeName maps an arbitrary string onto the metric/label name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*; invalid runes become '_' and a leading digit
// gets a '_' prefix.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double-quote, and newline, the three
// escapes the text format defines for label values.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline (double quotes are legal in
// HELP text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
