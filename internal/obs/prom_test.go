package obs

import (
	"fmt"
	"strings"
	"testing"
)

// drive exercises a registry across the metric kinds WriteProm renders:
// flat counters, flat histograms, labeled counters (with an overflowing
// label set), and labeled histograms.
func drive(r *Registry) {
	r.Commits.Add(3)
	r.CommitNs.Observe(50_000)
	r.CommitNs.Observe(2_000_000_000)

	rel := r.Relations.Intern("COURSES")
	r.RelScanned.At(rel).Add(812)
	r.RelProbes.At(rel).Inc()

	for i := 0; i < ObjectLabelCap+5; i++ {
		slot := r.Objects.Intern(fmt.Sprintf("ω%d", i))
		r.InstCallsByObject.At(slot).Inc()
		r.StepNsByObject[0].At(slot).Observe(int64(1000 * (i + 1)))
	}
}

func TestWritePromPassesLint(t *testing.T) {
	r := NewRegistry()
	drive(r)
	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := CheckExposition(text); err != nil {
		t.Fatalf("WriteProm output fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE reldb_tx_commits counter",
		"reldb_tx_commits 3",
		"# TYPE reldb_tx_commit_ns histogram",
		`reldb_tx_commit_ns_bucket{le="100000"} 1`,
		`reldb_tx_commit_ns_bucket{le="+Inf"} 2`,
		"reldb_tx_commit_ns_count 2",
		`reldb_relation_scanned{relation="COURSES"} 812`,
		`viewobject_instantiate_calls{object="ω0"} 1`,
		`viewobject_instantiate_calls{object="other"} 5`,
		`_bucket{object="ω0",le="1000"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// A family present both flat and labeled is emitted labeled only, so
// summing over labels never double-counts against a bare sample (that
// the labels do sum to the aggregate is TestDerivedAggregates).
func TestWritePromLabeledFamiliesLabeledOnly(t *testing.T) {
	r := NewRegistry()
	drive(r)
	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	series := 0
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "viewobject_instantiate_calls ") {
			t.Fatalf("bare aggregate emitted alongside labeled family: %q", line)
		}
		if strings.HasPrefix(line, "viewobject_instantiate_calls{") {
			series++
		}
	}
	if series == 0 || series > ObjectLabelCap+1 {
		t.Fatalf("labeled family emits %d series, want 1..%d", series, ObjectLabelCap+1)
	}
}

func TestSanitizeMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"reldb.tx.commit_ns":               "reldb_tx_commit_ns",
		"vupdate.reject.translator-policy": "vupdate_reject_translator_policy",
		"9lives":                           "_9lives",
		"ok_name:sub":                      "ok_name:sub",
	} {
		if got := sanitizeMetricName(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	in := "a\\b\"c\nd"
	want := `a\\b\"c\nd`
	if got := escapeLabelValue(in); got != want {
		t.Fatalf("escape = %q, want %q", got, want)
	}
	// The escaped value survives the lint parser inside a real sample.
	text := "# TYPE m counter\nm{object=\"" + want + "\"} 1\n"
	if err := CheckExposition(text); err != nil {
		t.Fatalf("escaped label value fails lint: %v", err)
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan 1\n",
		"malformed line":      "# TYPE m counter\nm{...} one\n",
		"duplicate TYPE":      "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"duplicate series":    "# TYPE m counter\nm 1\nm 2\n",
		"negative counter":    "# TYPE m counter\nm -1\n",
		"bare histogram sample": "# TYPE h histogram\n" +
			"h 3\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 3\nh_sum 9\nh_count 3\n",
		"+Inf != count": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 4\n",
		"missing _sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"missing _count": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 9\n",
	}
	for name, text := range cases {
		if err := CheckExposition(text); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", name, text)
		}
	}
	valid := "# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 3\nh_sum 9\nh_count 3\n" +
		"# TYPE c counter\nc 7\n"
	if err := CheckExposition(valid); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}
