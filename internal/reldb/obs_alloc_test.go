package reldb

import (
	"testing"

	"penguin/internal/obs"
)

// The acceptance guarantee of the observability layer: with no flight
// recorder installed, the instrumented transaction paths allocate nothing
// beyond what the uninstrumented engine allocates. Begin allocates
// exactly the Tx struct and its two maps; Commit, Rollback, BeginRead,
// and Close must add zero observability allocations (atomic counter and
// histogram updates only — no Event construction, no formatting).
func TestCommitPathAllocationFreeWhenUntraced(t *testing.T) {
	if obs.Default.Recorder() != nil {
		t.Fatal("test requires no flight recorder installed on obs.Default")
	}
	db := NewDatabase()
	db.MustCreateRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt},
		{Name: "V", Type: KindString, Nullable: true},
	}, []string{"K"}))

	// Begin + Commit of a read-only transaction: 3 allocations (the Tx
	// struct and the dirty/written maps), none from instrumentation.
	allocs := testing.AllocsPerRun(200, func() {
		tx := db.Begin()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Begin+Commit allocated %.1f/op, want <= 3 (instrumentation must add none)", allocs)
	}

	// Begin + Rollback likewise.
	allocs = testing.AllocsPerRun(200, func() {
		tx := db.Begin()
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Begin+Rollback allocated %.1f/op, want <= 3", allocs)
	}

	// BeginRead + Close: the ReadTx struct and the pinned catalog map
	// (header + bucket); the lag observation at Close must not allocate.
	allocs = testing.AllocsPerRun(200, func() {
		rtx := db.BeginRead()
		rtx.Close()
	})
	if allocs > 3 {
		t.Fatalf("BeginRead+Close allocated %.1f/op, want <= 3", allocs)
	}
}

// Commits, rollbacks, clones, and ErrTxDone hits are counted, and the
// commit-latency histogram records one observation per commit.
func TestTxObservability(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt},
	}, []string{"K"}))
	if err := db.RunInTx(func(tx *Tx) error { return tx.Insert("R", Tuple{Int(0)}) }); err != nil {
		t.Fatal(err)
	}

	before := obs.Default.Snapshot()
	tx := db.Begin()
	if err := tx.Insert("R", Tuple{Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != ErrTxDone { // counted as a txdone hit
		t.Fatalf("second commit: %v", err)
	}
	tx2 := db.Begin()
	_ = tx2.Rollback()
	delta := obs.Default.Snapshot().Sub(before)

	if got := delta.Counter("reldb.tx.commits"); got != 1 {
		t.Errorf("commits delta = %d, want 1", got)
	}
	if got := delta.Counter("reldb.tx.rollbacks"); got != 1 {
		t.Errorf("rollbacks delta = %d, want 1", got)
	}
	if got := delta.Counter("reldb.tx.txdone_hits"); got != 1 {
		t.Errorf("txdone delta = %d, want 1", got)
	}
	if got := delta.Counter("reldb.tree.node_copies"); got != 1 {
		t.Errorf("node copies delta = %d, want 1 (the one-leaf row tree's root)", got)
	}
	if st := delta.Histogram("reldb.tx.commit_ns"); st.Count != 1 {
		t.Errorf("commit_ns count = %d, want 1 (only the successful commit observes)", st.Count)
	}
}

// ReadTx.Close records the snapshot's generation lag; a snapshot that
// watched two commits go by reports lag 2.
func TestReadTxLagObserved(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt},
	}, []string{"K"}))

	before := obs.Default.Snapshot()
	rtx := db.BeginRead()
	for i := 0; i < 2; i++ {
		if err := db.RunInTx(func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(int64(i))})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if rtx.Generation() == db.Generation() {
		t.Fatal("snapshot should be stale")
	}
	rtx.Close()
	rtx.Close() // idempotent: observed once only
	delta := obs.Default.Snapshot().Sub(before)
	lag := delta.Histogram("reldb.readtx.lag_generations")
	if lag.Count != 1 {
		t.Fatalf("lag observations = %d, want 1", lag.Count)
	}
	if lag.Sum != 2 {
		t.Fatalf("lag sum = %d, want 2", lag.Sum)
	}
	if got := delta.Counter("reldb.readtx.begins"); got != 1 {
		t.Fatalf("readtx begins delta = %d, want 1", got)
	}
}

// Every MatchEqual lookup attributes its cost to the relation it ran
// against: the labeled reldb.relation.* families carry the same numbers
// MatchStats accumulates, keyed by relation name.
func TestPerRelationAttribution(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation(MustSchema("ATTRIB", []Attribute{
		{Name: "K", Type: KindInt},
		{Name: "G", Type: KindInt},
	}, []string{"K"}))
	if err := db.RunInTx(func(tx *Tx) error {
		for i := 0; i < 8; i++ {
			if err := tx.Insert("ATTRIB", Tuple{Int(int64(i)), Int(int64(i % 2))}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rel := db.MustRelation("ATTRIB")

	before := obs.Default.Snapshot()
	var st MatchStats
	if _, err := matchStats(rel, []string{"G"}, Tuple{Int(0)}, &st); err != nil {
		t.Fatal(err)
	}
	delta := obs.Default.Snapshot().Sub(before)
	if got := delta.LabeledCounters["reldb.relation.scanned"].Values["ATTRIB"]; got != int64(st.Scanned) {
		t.Errorf("labeled scanned = %d, MatchStats says %d", got, st.Scanned)
	}
	probes := delta.LabeledCounters["reldb.relation.probes"].Values["ATTRIB"]
	scans := delta.LabeledCounters["reldb.relation.scans"].Values["ATTRIB"]
	if probes != int64(st.Probes) || scans != int64(st.Scans) {
		t.Errorf("labeled probes/scans = %d/%d, MatchStats says %d/%d",
			probes, scans, st.Probes, st.Scans)
	}
	if st.Scanned == 0 || probes+scans == 0 {
		t.Errorf("lookup cost not attributed: stats=%+v probes=%d scans=%d", st, probes, scans)
	}
}
