package workload

import (
	"regexp"
	"strings"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/reldb"
)

// TestMetricsLint is the exposition-format gate behind `make
// metrics-lint`: after a real concurrent workload, the live registry
// must render as valid Prometheus text exposition carrying the
// per-view-object update-pipeline series and the per-relation access
// attribution the ISSUE requires of a scrape.
func TestMetricsLint(t *testing.T) {
	if _, err := RunStress(StressSpec{
		Tree:    TreeSpec{Depth: 1, Width: 2, Fanout: 2, Roots: 4, Peninsulas: 1},
		Readers: 2,
		Writers: 2,
		Cycles:  3,
	}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := obs.WriteProm(&b, obs.Capture()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("live snapshot fails exposition lint: %v", err)
	}

	stepSeries := regexp.MustCompile(`(?m)^vupdate_step_[a-z_]+_ns_bucket\{object="[^"]+",le="[^"]+"\} \d+$`)
	if !stepSeries.MatchString(text) {
		t.Error("no per-object vupdate_step_*_ns series in exposition")
	}
	if !strings.Contains(text, `reldb_relation_scanned{relation="N0"}`) {
		t.Error(`no reldb_relation_scanned{relation="N0"} series in exposition`)
	}
	if !strings.Contains(text, "# TYPE reldb_relation_scanned counter") {
		t.Error("reldb_relation_scanned missing its # TYPE header")
	}

	// Runtime introspection: the gauge families sampled at snapshot time
	// must be present, typed, and plausibly live.
	for _, family := range []string{
		"runtime_goroutines",
		"runtime_heap_inuse_bytes",
		"runtime_gc_pause_total_ns",
		"runtime_gc_cycles",
	} {
		if !strings.Contains(text, "# TYPE "+family+" gauge") {
			t.Errorf("%s missing its # TYPE gauge header", family)
		}
	}
	if !regexp.MustCompile(`(?m)^runtime_goroutines [1-9]\d*$`).MatchString(text) {
		t.Error("runtime_goroutines is zero or absent in exposition")
	}

	// The flight-recorder counters expose whether slow-trace capture ran
	// (zero-valued without a recorder, but the families must exist).
	for _, family := range []string{"obs_slowtrace_captured", "obs_slowtrace_dropped"} {
		if !strings.Contains(text, "# TYPE "+family+" counter") {
			t.Errorf("%s missing its # TYPE counter header", family)
		}
	}
}

// TestMetricsLintMaterialize is the exposition gate for the materialized
// view-object cache: after the stress mode that runs materialized readers
// against VO writers, the registry must still render as valid Prometheus
// exposition, and every viewobject_materialize_* family must be present
// with its # TYPE header and nonzero activity where the run guarantees it.
func TestMetricsLintMaterialize(t *testing.T) {
	if _, err := RunStress(StressSpec{
		Tree:                TreeSpec{Depth: 1, Width: 2, Fanout: 2, Roots: 4, Peninsulas: 1},
		Readers:             1,
		MaterializedReaders: 2,
		Writers:             2,
		Cycles:              3,
		ReadTxLagAlert:      4,
	}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := obs.WriteProm(&b, obs.Capture()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("live snapshot fails exposition lint: %v", err)
	}

	for _, family := range []string{
		"viewobject_materialize_hits",
		"viewobject_materialize_misses",
		"viewobject_materialize_patches",
		"viewobject_materialize_falls_back",
	} {
		if !strings.Contains(text, "# TYPE "+family+" counter") {
			t.Errorf("%s missing its # TYPE counter header", family)
		}
	}
	if !strings.Contains(text, "# TYPE viewobject_materialize_patch_ns histogram") {
		t.Error("viewobject_materialize_patch_ns missing its # TYPE histogram header")
	}
	served := regexp.MustCompile(`(?m)^viewobject_materialize_(hits|misses) [1-9]\d*$`)
	if !served.MatchString(text) {
		t.Error("materialize serve counters all zero after a materialized stress run")
	}
	if !regexp.MustCompile(`(?m)^viewobject_materialize_patch_ns_count \d+$`).MatchString(text) {
		t.Error("no viewobject_materialize_patch_ns histogram series in exposition")
	}
	if !regexp.MustCompile(`(?m)^viewobject_materialize_patches [1-9]\d*$`).MatchString(text) {
		t.Error("materializer patched nothing during a materialized stress run")
	}
}

// TestMetricsLintWAL is the exposition gate for the durability layer:
// after durable stress traffic, a checkpoint, and a reopen-with-replay,
// every reldb_wal_* family must be present with its # TYPE header and
// nonzero where the run guarantees activity.
func TestMetricsLintWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := reldb.OpenDatabaseWith(dir, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildTreeIn(db, TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 2, Peninsulas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStressOn(w, StressSpec{
		Tree:    TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 2, Peninsulas: 1},
		Readers: 1,
		Writers: 2,
		Cycles:  2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More traffic past the checkpoint so the reopen below replays it.
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		return tx.Insert("N0", reldb.Tuple{reldb.Int(999), reldb.String("tail")})
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := reldb.OpenDatabaseWith(dir, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	var b strings.Builder
	if err := obs.WriteProm(&b, obs.Capture()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf("live snapshot fails exposition lint: %v", err)
	}

	for _, family := range []string{
		"reldb_wal_appends",
		"reldb_wal_bytes",
		"reldb_wal_fsyncs",
		"reldb_wal_replayed",
		"reldb_wal_checkpoints",
	} {
		if !strings.Contains(text, "# TYPE "+family+" counter") {
			t.Errorf("%s missing its # TYPE counter header", family)
		}
	}
	if !strings.Contains(text, "# TYPE reldb_wal_fsync_ns histogram") {
		t.Error("reldb_wal_fsync_ns missing its # TYPE histogram header")
	}
	// The log's counters are one shard-labeled family each; a database
	// opened without a shard label is shard "0". Replay is not split.
	for _, series := range []string{
		`reldb_wal_appends{shard="0"}`, `reldb_wal_bytes{shard="0"}`, `reldb_wal_fsyncs{shard="0"}`,
		`reldb_wal_checkpoints{shard="0"}`, "reldb_wal_replayed",
	} {
		if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` [1-9]\d*$`).MatchString(text) {
			t.Errorf("%s is zero after durable traffic, checkpoint, and replay", series)
		}
	}
	if strings.Contains(text, "_by_shard") {
		t.Error("a reldb_wal_*_by_shard twin is still exposed")
	}
	if !regexp.MustCompile(`(?m)^reldb_wal_fsync_ns_count [1-9]\d*$`).MatchString(text) {
		t.Error("no reldb_wal_fsync_ns histogram samples after durable commits")
	}
}
