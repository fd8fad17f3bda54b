package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"penguin/internal/obs"
)

func snapDB(t *testing.T, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustCreateRelation(MustSchema("R", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "V", Type: KindString, Nullable: true},
	}, []string{"ID"}))
	db.MustCreateRelation(MustSchema("S", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "RID", Type: KindInt},
	}, []string{"ID"}))
	err := db.RunInTx(func(tx *Tx) error {
		for i := 0; i < rows; i++ {
			if err := tx.Insert("R", Tuple{Int(int64(i)), String("v")}); err != nil {
				return err
			}
			if err := tx.Insert("S", Tuple{Int(int64(i)), Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestReadTxSeesPinnedState(t *testing.T) {
	db := snapDB(t, 3)
	rtx := db.BeginRead()
	defer rtx.Close()

	_ = db.RunInTx(func(tx *Tx) error {
		if _, err := tx.Delete("R", Tuple{Int(0)}); err != nil {
			return err
		}
		return tx.Insert("R", Tuple{Int(99), String("new")})
	})

	rel := rtx.MustRelation("R")
	if rel.Count() != 3 {
		t.Fatalf("snapshot count = %d, want 3", rel.Count())
	}
	if !rel.Has(Tuple{Int(0)}) {
		t.Fatal("snapshot lost a row deleted after BeginRead")
	}
	if rel.Has(Tuple{Int(99)}) {
		t.Fatal("snapshot sees a row inserted after BeginRead")
	}
	// A fresh snapshot sees the committed state.
	rtx2 := db.BeginRead()
	defer rtx2.Close()
	rel2 := rtx2.MustRelation("R")
	if rel2.Has(Tuple{Int(0)}) || !rel2.Has(Tuple{Int(99)}) {
		t.Fatal("fresh snapshot does not see the committed transaction")
	}
	if rtx.Generation() == db.Generation() || rtx2.Generation() != db.Generation() {
		t.Fatalf("staleness wrong: old gen %d, new gen %d, database at %d",
			rtx.Generation(), rtx2.Generation(), db.Generation())
	}
}

func TestReadTxConsistentAcrossRelations(t *testing.T) {
	db := snapDB(t, 2)
	// A transaction touching R and S commits both or neither; a snapshot
	// must never observe one without the other.
	rtx := db.BeginRead()
	_ = db.RunInTx(func(tx *Tx) error {
		if err := tx.Insert("R", Tuple{Int(50), String("x")}); err != nil {
			return err
		}
		return tx.Insert("S", Tuple{Int(50), Int(50)})
	})
	inR := rtx.MustRelation("R").Has(Tuple{Int(50)})
	inS := rtx.MustRelation("S").Has(Tuple{Int(50)})
	if inR != inS {
		t.Fatalf("torn snapshot: R=%v S=%v", inR, inS)
	}
	rtx.Close()
}

func TestReadTxDoesNotBlockWriter(t *testing.T) {
	db := snapDB(t, 2)
	rtx := db.BeginRead()
	// With the snapshot held open, a full write transaction must be able
	// to begin and commit.
	done := make(chan error, 1)
	go func() {
		done <- db.RunInTx(func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(77), String("w")})
		})
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rtx.MustRelation("R").Has(Tuple{Int(77)}) {
		t.Fatal("snapshot observed the concurrent commit")
	}
	rtx.Close()
}

func TestReadTxCloseRefusesAccess(t *testing.T) {
	db := snapDB(t, 1)
	rtx := db.BeginRead()
	rtx.Close()
	rtx.Close() // idempotent
	if _, err := rtx.Relation("R"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("after Close: %v", err)
	}
}

func TestReadTxGenerations(t *testing.T) {
	db := snapDB(t, 1)
	g0 := db.Generation()
	rtx := db.BeginRead()
	if rtx.Generation() != g0 {
		t.Fatalf("snapshot gen %d, db gen %d", rtx.Generation(), g0)
	}
	_ = db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(5), String("x")})
	})
	if db.Generation() != g0+1 {
		t.Fatalf("commit did not bump generation: %d", db.Generation())
	}
	if db.MustRelation("R").Generation() != g0+1 {
		t.Fatalf("published relation carries gen %d, want %d",
			db.MustRelation("R").Generation(), g0+1)
	}
	// A read-only transaction does not bump the generation.
	_ = db.RunInTx(func(tx *Tx) error {
		_, err := tx.Relation("R")
		return err
	})
	if db.Generation() != g0+1 {
		t.Fatalf("read-only tx bumped generation to %d", db.Generation())
	}
	rtx.Close()
}

func TestReadTxFork(t *testing.T) {
	db := snapDB(t, 2)
	rtx := db.BeginRead()
	fork := rtx.Fork()
	rtx.Close()
	// Mutating the fork leaves the origin untouched and vice versa.
	if err := fork.RunInTx(func(tx *Tx) error {
		_, err := tx.Delete("R", Tuple{Int(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if fork.MustRelation("R").Count() != 1 || db.MustRelation("R").Count() != 2 {
		t.Fatalf("fork not independent: fork=%d db=%d",
			fork.MustRelation("R").Count(), db.MustRelation("R").Count())
	}
	_ = db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(9), String("z")})
	})
	if fork.MustRelation("R").Has(Tuple{Int(9)}) {
		t.Fatal("commit on origin leaked into fork")
	}
}

// TestConcurrentReadersAndWriters drives many snapshot readers against
// writer transactions; under -race this proves the read path is free of
// data races, and the invariant check proves snapshot isolation: every
// snapshot observes R and S at a single commit boundary (the writer keeps
// them in lockstep).
func TestConcurrentReadersAndWriters(t *testing.T) {
	db := snapDB(t, 8)
	const (
		readers = 4
		writers = 2
		rounds  = 150
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx := db.BeginRead()
				nR := rtx.MustRelation("R").Count()
				nS := rtx.MustRelation("S").Count()
				rtx.MustRelation("R").Scan(func(Row) bool { return true })
				rtx.Close()
				if nR != nS {
					select {
					case errs <- fmt.Errorf("torn snapshot: |R|=%d |S|=%d", nR, nS):
					default:
					}
					return
				}
			}
		}()
	}
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < rounds; i++ {
				id := int64(1000 + w*rounds + i)
				_ = db.RunInTx(func(tx *Tx) error {
					if err := tx.Insert("R", Tuple{Int(id), String("w")}); err != nil {
						return err
					}
					return tx.Insert("S", Tuple{Int(id), Int(id)})
				})
				_ = db.RunInTx(func(tx *Tx) error {
					if _, err := tx.Delete("R", Tuple{Int(id)}); err != nil {
						return err
					}
					_, err := tx.Delete("S", Tuple{Int(id)})
					return err
				})
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestWriteSnapshotDuringCommits serializes the database repeatedly while
// writer transactions keep R and S in lockstep; every serialized snapshot
// must be internally consistent (|R| == |S|), proving WriteSnapshot sees
// either all of a commit or none of it.
func TestWriteSnapshotDuringCommits(t *testing.T) {
	db := snapDB(t, 4)
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for i := 0; i < 120; i++ {
			id := int64(2000 + i)
			_ = db.RunInTx(func(tx *Tx) error {
				if err := tx.Insert("R", Tuple{Int(id), String("w")}); err != nil {
					return err
				}
				return tx.Insert("S", Tuple{Int(id), Int(id)})
			})
		}
	}()
	for i := 0; i < 40; i++ {
		var buf bytes.Buffer
		if err := db.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		nR := loaded.MustRelation("R").Count()
		nS := loaded.MustRelation("S").Count()
		if nR != nS {
			t.Fatalf("snapshot %d torn: |R|=%d |S|=%d", i, nR, nS)
		}
	}
	wwg.Wait()
}

// A ReadTx (or fork) whose snapshot fell at least the alert threshold
// behind fires the stale-close alert exactly once: one stale_closes
// increment, however many times Close is called. Below-threshold closes
// never fire.
func TestReadTxStaleCloseAlert(t *testing.T) {
	db := snapDB(t, 1)
	advance := func(id int64) {
		t.Helper()
		if err := db.RunInTx(func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(id), String("w")})
		}); err != nil {
			t.Fatal(err)
		}
	}
	prev := obs.Default.SetReadTxLagAlert(2)
	defer obs.Default.SetReadTxLagAlert(prev)

	// One commit of lag: below the threshold, no alert.
	fresh := db.BeginRead()
	advance(100)
	base := obs.Default.StaleCloses.Load()
	fresh.Close()
	if got := obs.Default.StaleCloses.Load(); got != base {
		t.Fatalf("below-threshold close fired the alert: %d -> %d", base, got)
	}

	// Two commits of lag: at the threshold, exactly one alert.
	stale := db.BeginRead()
	advance(101)
	advance(102)
	base = obs.Default.StaleCloses.Load()
	stale.Close()
	if got := obs.Default.StaleCloses.Load(); got != base+1 {
		t.Fatalf("stale close counted %d alerts, want 1", got-base)
	}
	// Close is idempotent: no second alert.
	stale.Close()
	if got := obs.Default.StaleCloses.Load(); got != base+1 {
		t.Fatal("repeated Close fired the alert again")
	}

	// Threshold 0 disables alerting entirely.
	obs.Default.SetReadTxLagAlert(0)
	off := db.BeginRead()
	advance(103)
	advance(104)
	advance(105)
	base = obs.Default.StaleCloses.Load()
	off.Close()
	if got := obs.Default.StaleCloses.Load(); got != base {
		t.Fatal("disabled threshold still fired the alert")
	}
}
