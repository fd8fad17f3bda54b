package reldb

import (
	"errors"
	"fmt"
	"testing"
)

func txDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	db.MustCreateRelation(MustSchema("R", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "V", Type: KindString, Nullable: true},
	}, []string{"ID"}))
	return db
}

func TestTxCommit(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if err := tx.Insert("R", Tuple{Int(1), String("a")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("R", Tuple{Int(2), String("b")}); err != nil {
		t.Fatal(err)
	}
	if tx.OpCount() != 2 {
		t.Fatalf("OpCount = %d", tx.OpCount())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("R").Count() != 2 {
		t.Fatal("commit lost rows")
	}
}

func TestTxRollbackInsert(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	_ = tx.Insert("R", Tuple{Int(1), String("a")})
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("R").Count() != 0 {
		t.Fatal("rollback left inserted row")
	}
}

func TestTxRollbackDelete(t *testing.T) {
	db := txDB(t)
	_ = db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String("a")})
	})
	tx := db.Begin()
	old, err := tx.Delete("R", Tuple{Int(1)})
	if err != nil || !old.Equal(RowOf(Tuple{Int(1), String("a")})) {
		t.Fatalf("delete = %v, %v", old, err)
	}
	_ = tx.Rollback()
	got, ok := db.MustRelation("R").Get(Tuple{Int(1)})
	if !ok || got.At(1).MustString() != "a" {
		t.Fatal("rollback did not restore deleted row")
	}
}

func TestTxRollbackReplace(t *testing.T) {
	db := txDB(t)
	_ = db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String("a")})
	})
	tx := db.Begin()
	old, err := tx.Replace("R", Tuple{Int(1)}, Tuple{Int(9), String("z")})
	if err != nil || old.At(1).MustString() != "a" {
		t.Fatalf("replace = %v, %v", old, err)
	}
	_ = tx.Rollback()
	r := db.MustRelation("R")
	if r.Has(Tuple{Int(9)}) || !r.Has(Tuple{Int(1)}) {
		t.Fatal("rollback did not undo key replacement")
	}
}

func TestTxRollbackMixedSequence(t *testing.T) {
	db := txDB(t)
	_ = db.RunInTx(func(tx *Tx) error {
		for i := 1; i <= 5; i++ {
			if err := tx.Insert("R", Tuple{Int(int64(i)), String(fmt.Sprintf("v%d", i))}); err != nil {
				return err
			}
		}
		return nil
	})
	before := db.MustRelation("R").All()

	tx := db.Begin()
	_, _ = tx.Delete("R", Tuple{Int(2)})
	_ = tx.Insert("R", Tuple{Int(10), String("new")})
	_, _ = tx.Replace("R", Tuple{Int(3)}, Tuple{Int(30), String("moved")})
	_, _ = tx.Delete("R", Tuple{Int(30)}) // delete the row we just moved
	_ = tx.Insert("R", Tuple{Int(3), String("back")})
	_ = tx.Rollback()

	after := db.MustRelation("R").All()
	if len(before) != len(after) {
		t.Fatalf("row count changed: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if !before[i].Equal(after[i]) {
			t.Fatalf("row %d changed: %v -> %v", i, before[i], after[i])
		}
	}
}

func TestTxDoneErrors(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	_ = tx.Commit()
	if err := tx.Insert("R", Tuple{Int(1), Null()}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("insert after commit: %v", err)
	}
	if _, err := tx.Delete("R", Tuple{Int(1)}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("delete after commit: %v", err)
	}
	if _, err := tx.Replace("R", Tuple{Int(1)}, Tuple{Int(1), Null()}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("replace after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: %v", err)
	}
}

func TestTxUnknownRelation(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	defer func() { _ = tx.Rollback() }()
	if err := tx.Insert("NOPE", Tuple{Int(1)}); !errors.Is(err, ErrNoSuchRelation) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Delete("NOPE", Tuple{Int(1)}); !errors.Is(err, ErrNoSuchRelation) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Replace("NOPE", Tuple{Int(1)}, Tuple{Int(1)}); !errors.Is(err, ErrNoSuchRelation) {
		t.Fatalf("err = %v", err)
	}
}

func TestTxFailedOpsNotLogged(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	_ = tx.Insert("R", Tuple{Int(1), String("a")})
	// Failing operations must not corrupt the undo log.
	if err := tx.Insert("R", Tuple{Int(1), String("dup")}); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Delete("R", Tuple{Int(99)}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tx.Replace("R", Tuple{Int(99)}, Tuple{Int(99), Null()}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
	if tx.OpCount() != 1 {
		t.Fatalf("OpCount = %d, want 1", tx.OpCount())
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("R").Count() != 0 {
		t.Fatal("rollback after failed ops broke state")
	}
}

func TestRunInTx(t *testing.T) {
	db := txDB(t)
	err := db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String("a")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("R").Count() != 1 {
		t.Fatal("RunInTx commit lost row")
	}
	wantErr := errors.New("boom")
	err = db.RunInTx(func(tx *Tx) error {
		if err := tx.Insert("R", Tuple{Int(2), String("b")}); err != nil {
			return err
		}
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if db.MustRelation("R").Count() != 1 {
		t.Fatal("RunInTx failure did not roll back")
	}
}

func TestTxSerializesWriters(t *testing.T) {
	db := txDB(t)
	done := make(chan struct{})
	tx := db.Begin()
	go func() {
		// Second transaction must block until the first commits.
		err := db.RunInTx(func(tx2 *Tx) error {
			return tx2.Insert("R", Tuple{Int(2), String("second")})
		})
		if err != nil {
			t.Errorf("second tx: %v", err)
		}
		close(done)
	}()
	if err := tx.Insert("R", Tuple{Int(1), String("first")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
		t.Fatal("second tx ran while first held the lock")
	default:
	}
	_ = tx.Commit()
	<-done
	if db.MustRelation("R").Count() != 2 {
		t.Fatal("both transactions should have committed")
	}
}

func TestRunInTxPanicReleasesLock(t *testing.T) {
	db := txDB(t)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunInTx swallowed the panic")
			}
		}()
		_ = db.RunInTx(func(tx *Tx) error {
			if err := tx.Insert("R", Tuple{Int(1), String("a")}); err != nil {
				return err
			}
			panic("boom")
		})
	}()
	// The writer lock must have been released: a new transaction can run.
	err := db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(2), String("b")})
	})
	if err != nil {
		t.Fatal(err)
	}
	// And the panicked transaction's partial work was rolled back.
	r := db.MustRelation("R")
	if r.Has(Tuple{Int(1)}) {
		t.Fatal("panicked transaction's insert survived")
	}
	if !r.Has(Tuple{Int(2)}) {
		t.Fatal("follow-up transaction lost")
	}
}

func TestTxRelationAfterDone(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	_ = tx.Commit()
	if _, err := tx.Relation("R"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Relation after commit: %v", err)
	}
	tx2 := db.Begin()
	_ = tx2.Rollback()
	if _, err := tx2.Relation("R"); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Relation after rollback: %v", err)
	}
}

// TestTxIsolationUntilCommit: a transaction's writes are invisible to the
// committed state (and to concurrent snapshot readers) until Commit.
func TestTxIsolationUntilCommit(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if err := tx.Insert("R", Tuple{Int(1), String("a")}); err != nil {
		t.Fatal(err)
	}
	// Through the transaction the row is visible (read-your-writes)...
	rel, err := tx.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Has(Tuple{Int(1)}) {
		t.Fatal("transaction does not see its own write")
	}
	// ...but the committed version is untouched.
	if db.MustRelation("R").Has(Tuple{Int(1)}) {
		t.Fatal("uncommitted write visible in committed state")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !db.MustRelation("R").Has(Tuple{Int(1)}) {
		t.Fatal("commit lost the write")
	}
}

// TestTxDeleteReturnsCopy: a delete hands back the stored row, read-only;
// its copy-out is the caller's to keep. Writing that copy must reach
// neither a snapshot that still holds the row nor the delete image a
// subscriber receives.
func TestTxDeleteReturnsCopy(t *testing.T) {
	db := txDB(t)
	if err := db.RunInTx(func(tx *Tx) error { return tx.Insert("R", Tuple{Int(1), String("a")}) }); err != nil {
		t.Fatal(err)
	}
	sub := db.Subscribe(0)
	defer sub.Close()
	rtx := db.BeginRead()
	defer rtx.Close()
	if err := db.RunInTx(func(tx *Tx) error {
		old, err := tx.Delete("R", Tuple{Int(1)})
		if err == nil {
			out := old.Tuple()
			out[1] = String("clobbered")
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, ok := rtx.MustRelation("R").Get(Tuple{Int(1)}); !ok || !got.Equal(RowOf(Tuple{Int(1), String("a")})) {
		t.Fatalf("pinned snapshot reads %v, %v after the caller wrote through a deleted tuple", got, ok)
	}
	batches, _ := sub.Poll()
	if len(batches) != 1 || len(batches[0].Deltas) != 1 || len(batches[0].Deltas[0].Deletes) != 1 ||
		!batches[0].Deltas[0].Deletes[0].Equal(RowOf(Tuple{Int(1), String("a")})) {
		t.Fatalf("subscriber received %+v, want the delete of (1, a)", batches)
	}
}

// TestSubscribeMidTransaction: a subscriber that registers after a
// transaction's first write still receives that commit whole — its batch
// is the diff of two versions, complete whenever it is built.
func TestSubscribeMidTransaction(t *testing.T) {
	db := txDB(t)
	tx := db.Begin()
	if err := tx.Insert("R", Tuple{Int(1), String("a")}); err != nil {
		t.Fatal(err)
	}
	sub := db.Subscribe(0)
	defer sub.Close()
	if sub.StartGen() != db.Generation() {
		t.Fatalf("StartGen %d, generation at registration %d", sub.StartGen(), db.Generation())
	}
	if err := tx.Insert("R", Tuple{Int(2), String("b")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	batches, lost := sub.Poll()
	if lost || len(batches) != 1 || batches[0].Gen != sub.StartGen()+1 {
		t.Fatalf("poll = %+v lost=%v, want the batch of gen %d", batches, lost, sub.StartGen()+1)
	}
	if d := batches[0].Deltas; len(d) != 1 || len(d[0].Inserts) != 2 {
		t.Fatalf("batch %+v, want both inserts of the commit", d)
	}
}

func TestDatabaseCatalog(t *testing.T) {
	db := NewDatabase()
	s := MustSchema("A", []Attribute{{Name: "X", Type: KindInt}}, []string{"X"})
	if _, err := db.CreateRelation(s); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(s); !errors.Is(err, ErrRelationExists) {
		t.Fatalf("dup create: %v", err)
	}
	if !db.HasRelation("A") || db.HasRelation("B") {
		t.Fatal("HasRelation wrong")
	}
	if _, err := db.Relation("B"); !errors.Is(err, ErrNoSuchRelation) {
		t.Fatalf("missing relation: %v", err)
	}
	db.MustCreateRelation(MustSchema("B", []Attribute{{Name: "X", Type: KindInt}}, []string{"X"}))
	names := db.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Fatalf("Names = %v", names)
	}
	if err := db.DropRelation("A"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("A"); !errors.Is(err, ErrNoSuchRelation) {
		t.Fatalf("double drop: %v", err)
	}
}

func TestDatabaseTotalRows(t *testing.T) {
	db := txDB(t)
	_ = db.RunInTx(func(tx *Tx) error {
		_ = tx.Insert("R", Tuple{Int(1), String("a")})
		return tx.Insert("R", Tuple{Int(2), String("b")})
	})
	if db.TotalRows() != 2 {
		t.Fatalf("TotalRows = %d, want 2", db.TotalRows())
	}
}

func TestMustRelationPanics(t *testing.T) {
	db := NewDatabase()
	defer func() {
		if recover() == nil {
			t.Fatal("MustRelation should panic on missing relation")
		}
	}()
	db.MustRelation("NOPE")
}

func TestMustCreateRelationPanics(t *testing.T) {
	db := txDB(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustCreateRelation should panic on duplicate")
		}
	}()
	db.MustCreateRelation(MustSchema("R", []Attribute{{Name: "X", Type: KindInt}}, []string{"X"}))
}
