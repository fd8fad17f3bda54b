package reldb

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"penguin/internal/obs"
)

// copyFiles copies the regular files of src into dst.
func copyFiles(t *testing.T, dst, src string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// within fails the test when fn does not return in time: a prepared
// transaction that kept the writer lock or the checkpoint mutex would
// block the commit or checkpoint that follows it forever.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked: a lock is still held", what)
	}
}

// An aborted prepare publishes nothing, releases both locks it held,
// counts one cross-shard abort and leaves nothing in doubt after a
// reopen; a second Abort is refused.
func TestPreparedAbortLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	if _, err := db.CreateRelation(kvSchema("R")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, db, func(tx *Tx) error { return tx.Insert("R", Tuple{Int(1), String("a")}) })
	gen, rows := db.Generation(), rowsOf(t, db, "R")

	tx := db.Begin()
	if err := tx.Insert("R", Tuple{Int(2), String("b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Replace("R", Tuple{Int(1)}, Tuple{Int(1), String("a'")}); err != nil {
		t.Fatal(err)
	}
	p, err := tx.Prepare("x1", []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitPrepared(); err != nil {
		t.Fatal(err)
	}
	before := obs.Default.Snapshot()
	if err := p.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.Snapshot().Sub(before).Counter("reldb.cross.aborts"); got != 1 {
		t.Fatalf("reldb.cross.aborts rose by %d, want 1", got)
	}
	if err := p.Abort(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second Abort = %v, want ErrTxDone", err)
	}
	if g := db.Generation(); g != gen {
		t.Fatalf("generation after abort = %d, want %d", g, gen)
	}
	if got := rowsOf(t, db, "R"); !slices.Equal(got, rows) {
		t.Fatalf("rows after abort = %v, want %v", got, rows)
	}

	// The writer lock and the checkpoint mutex are free again. The
	// directory is copied before the checkpoint, as a crash would leave
	// it, so the reopen below replays the prepare and its abort.
	within(t, "commit after abort", func() error {
		return db.RunInTx(func(tx *Tx) error { return tx.Insert("R", Tuple{Int(3), String("c")}) })
	})
	gen, rows = db.Generation(), rowsOf(t, db, "R")
	crashed := t.TempDir()
	copyFiles(t, crashed, dir)
	within(t, "checkpoint after abort", func() error {
		_, err := db.Checkpoint()
		return err
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := durableDB(t, crashed)
	defer re.Close()
	if xids := re.InDoubt(); len(xids) != 0 {
		t.Fatalf("in doubt after reopen: %v", xids)
	}
	if g := re.Generation(); g != gen {
		t.Fatalf("generation after reopen = %d, want %d", g, gen)
	}
	if got := rowsOf(t, re, "R"); !slices.Equal(got, rows) {
		t.Fatalf("rows after reopen = %v, want %v", got, rows)
	}
}
