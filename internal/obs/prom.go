package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4). WriteProm renders a
// Snapshot as scrapeable text: one `# TYPE` header per family, dotted
// metric names sanitized to underscores, counters as plain samples, and
// histograms expanded into cumulative `_bucket{le="..."}` samples ending
// in `+Inf`, plus `_sum` and `_count`.
//
// Two engine-specific conventions:
//
//   - A family the snapshot holds both labeled and as the aggregate
//     derived from those labeled series is emitted labeled only, so
//     consumers that sum over labels never double-count.
//   - `_count` is rendered as the `+Inf` cumulative bucket value rather
//     than the stat's Count field: under a concurrent capture Count may
//     trail ΣBuckets by in-flight observations (the histogram's
//     documented write ordering), and the exposition must be internally
//     consistent.

// WriteProm renders the snapshot in the Prometheus text exposition
// format. Output is deterministic: families sorted by name, series
// sorted by label value. CheckExposition validates the emitted grammar
// and histogram invariants (used by `make metrics-lint`).
func WriteProm(w io.Writer, s Snapshot) error {
	var b strings.Builder

	names := make([]string, 0, len(s.Counters)+len(s.Histograms))
	seen := make(map[string]bool)
	for _, m := range []map[string]bool{namesOf(s.Counters), namesOf(s.Histograms),
		namesOf(s.LabeledCounters), namesOf(s.LabeledHistograms), namesOf(s.Gauges)} {
		for n := range m {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)

	for _, name := range names {
		prom := sanitizeMetricName(name)
		lcFam, hasLC := s.LabeledCounters[name]
		lhFam, hasLH := s.LabeledHistograms[name]
		switch {
		case hasLC:
			fmt.Fprintf(&b, "# TYPE %s counter\n", prom)
			for _, lv := range sortedKeys(lcFam.Values) {
				fmt.Fprintf(&b, "%s{%s} %d\n", prom, labelPair(lcFam.Label, lv), lcFam.Values[lv])
			}
		case hasLH:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", prom)
			for _, lv := range sortedKeys(lhFam.Values) {
				promHistSeries(&b, prom, labelPair(lhFam.Label, lv), lhFam.Values[lv])
			}
		default:
			if v, ok := s.Counters[name]; ok {
				fmt.Fprintf(&b, "# TYPE %s counter\n", prom)
				fmt.Fprintf(&b, "%s %d\n", prom, v)
			}
			if v, ok := s.Gauges[name]; ok {
				fmt.Fprintf(&b, "# TYPE %s gauge\n", prom)
				fmt.Fprintf(&b, "%s %d\n", prom, v)
			}
			if st, ok := s.Histograms[name]; ok {
				fmt.Fprintf(&b, "# TYPE %s histogram\n", prom)
				promHistSeries(&b, prom, "", st)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promHistSeries writes one histogram series: cumulative buckets in
// bound order ending in +Inf, then _sum and _count. labels carries the
// series' own rendered label pairs ("" for none); le is appended.
func promHistSeries(b *strings.Builder, prom, labels string, st HistogramStat) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, n := range st.Buckets {
		cum += n
		le := "+Inf"
		if i < len(st.Bounds) {
			le = strconv.FormatInt(st.Bounds[i], 10)
		}
		fmt.Fprintf(b, "%s_bucket{%s%sle=\"%s\"} %d\n", prom, labels, sep, le, cum)
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s_sum%s %d\n", prom, suffix, st.Sum)
	fmt.Fprintf(b, "%s_count%s %d\n", prom, suffix, cum)
}

// labelPair renders one key="value" label pair.
func labelPair(key, value string) string {
	return key + "=\"" + escapeLabelValue(value) + "\""
}

// sanitizeMetricName maps an engine metric name onto the Prometheus
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*: dots, dashes, and any other
// invalid rune become underscores; a leading digit gains an underscore
// prefix.
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
