package reldb

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func deltaDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	if _, err := db.CreateRelation(gradesSchema(t)); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDeltaStreamNetEffect(t *testing.T) {
	db := deltaDB(t)
	sub := db.Subscribe(0)
	defer sub.Close()
	if sub.StartGen() != db.Generation() {
		t.Fatalf("StartGen %d != current gen %d", sub.StartGen(), db.Generation())
	}

	// One commit: insert two, delete one of them in the same tx (cancels
	// out), replace the survivor in place (collapses into its insert).
	err := db.RunInTx(func(tx *Tx) error {
		if err := tx.Insert("GRADES", grade("CS101", 1, "A")); err != nil {
			return err
		}
		if err := tx.Insert("GRADES", grade("CS101", 2, "B")); err != nil {
			return err
		}
		if _, err := tx.Delete("GRADES", Tuple{String("CS101"), Int(2)}); err != nil {
			return err
		}
		_, err := tx.Replace("GRADES", Tuple{String("CS101"), Int(1)}, grade("CS101", 1, "C"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	batches, lost := sub.Poll()
	if lost {
		t.Fatal("unexpected overflow")
	}
	if len(batches) != 1 {
		t.Fatalf("%d batches, want 1", len(batches))
	}
	b := batches[0]
	if b.Gen != sub.StartGen()+1 {
		t.Fatalf("batch gen %d, want %d", b.Gen, sub.StartGen()+1)
	}
	if len(b.Deltas) != 1 || b.Deltas[0].Relation != "GRADES" {
		t.Fatalf("deltas = %+v, want one GRADES delta", b.Deltas)
	}
	d := b.Deltas[0]
	if len(d.Inserts) != 1 || len(d.Deletes) != 0 || len(d.Replaces) != 0 {
		t.Fatalf("net effect I=%d D=%d R=%d, want 1/0/0", len(d.Inserts), len(d.Deletes), len(d.Replaces))
	}
	if !d.Inserts[0].Equal(RowOf(grade("CS101", 1, "C"))) {
		t.Fatalf("insert image %v, want the final in-tx state", d.Inserts[0])
	}

	// A later commit: same-key replace surfaces as a Replace with both
	// images; a key-changing replace as delete+insert.
	err = db.RunInTx(func(tx *Tx) error {
		if _, err := tx.Replace("GRADES", Tuple{String("CS101"), Int(1)}, grade("CS101", 1, "B")); err != nil {
			return err
		}
		return tx.Insert("GRADES", grade("CS245", 7, "A"))
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.RunInTx(func(tx *Tx) error {
		_, err := tx.Replace("GRADES", Tuple{String("CS245"), Int(7)}, grade("CS245", 8, "A"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	batches, lost = sub.Poll()
	if lost || len(batches) != 2 {
		t.Fatalf("poll = %d batches lost=%v, want 2 batches", len(batches), lost)
	}
	rep := batches[0].Deltas[0]
	if len(rep.Replaces) != 1 || !rep.Replaces[0].Old.Equal(RowOf(grade("CS101", 1, "C"))) || !rep.Replaces[0].New.Equal(RowOf(grade("CS101", 1, "B"))) {
		t.Fatalf("same-key replace delta = %+v", rep)
	}
	keyed := batches[1].Deltas[0]
	if len(keyed.Deletes) != 1 || len(keyed.Inserts) != 1 {
		t.Fatalf("key-changing replace delta = %+v, want delete+insert", keyed)
	}
	if !keyed.Deletes[0].Equal(RowOf(grade("CS245", 7, "A"))) || !keyed.Inserts[0].Equal(RowOf(grade("CS245", 8, "A"))) {
		t.Fatalf("key-changing replace images = %+v", keyed)
	}
}

func TestDeltaStreamEmptyCommitAndRollback(t *testing.T) {
	db := deltaDB(t)
	sub := db.Subscribe(0)
	defer sub.Close()

	// Read-only commit: no generation advance, no batch.
	if err := db.RunInTx(func(tx *Tx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Rollback: nothing published.
	tx := db.Begin()
	if err := tx.Insert("GRADES", grade("CS101", 1, "A")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if batches, lost := sub.Poll(); len(batches) != 0 || lost {
		t.Fatalf("poll after no-op commit + rollback = %d batches lost=%v", len(batches), lost)
	}

	// A commit whose net effect cancels still advances the generation, so
	// its (empty) batch must arrive to keep the stream gap-free.
	err := db.RunInTx(func(tx *Tx) error {
		if err := tx.Insert("GRADES", grade("CS101", 1, "A")); err != nil {
			return err
		}
		_, err := tx.Delete("GRADES", Tuple{String("CS101"), Int(1)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	batches, _ := sub.Poll()
	if len(batches) != 1 || len(batches[0].Deltas) != 0 {
		t.Fatalf("cancelled commit: %+v, want one empty batch", batches)
	}
	if batches[0].Gen != db.Generation() {
		t.Fatalf("empty batch gen %d, want %d", batches[0].Gen, db.Generation())
	}
}

func TestDeltaStreamStructuralDDL(t *testing.T) {
	db := deltaDB(t)
	sub := db.Subscribe(0)
	defer sub.Close()

	s, err := NewSchema("AUX", []Attribute{{Name: "ID", Type: KindInt}}, []string{"ID"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(s); err != nil {
		t.Fatal(err)
	}
	if err := db.DropRelation("AUX"); err != nil {
		t.Fatal(err)
	}
	batches, lost := sub.Poll()
	if lost || len(batches) != 2 {
		t.Fatalf("poll = %d batches lost=%v, want 2 structural batches", len(batches), lost)
	}
	for i, b := range batches {
		if len(b.Deltas) != 1 || !b.Deltas[0].Structural || b.Deltas[0].Relation != "AUX" {
			t.Fatalf("batch %d = %+v, want structural AUX delta", i, b)
		}
		if b.Gen != sub.StartGen()+uint64(i)+1 {
			t.Fatalf("batch %d gen %d, want %d", i, b.Gen, sub.StartGen()+uint64(i)+1)
		}
	}
}

func TestDeltaStreamOverflowDropsToResync(t *testing.T) {
	db := deltaDB(t)
	sub := db.Subscribe(2)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		err := db.RunInTx(func(tx *Tx) error {
			return tx.Insert("GRADES", grade("CS101", int64(i), "A"))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	batches, lost := sub.Poll()
	if !lost {
		t.Fatal("overflow not reported")
	}
	// The queue dropped wholesale at the overflow; whatever survived is
	// the post-overflow suffix, still contiguous and ending at the head.
	for i := 1; i < len(batches); i++ {
		if batches[i].Gen != batches[i-1].Gen+1 {
			t.Fatalf("post-overflow suffix not contiguous: %d after %d", batches[i].Gen, batches[i-1].Gen)
		}
	}
	if n := len(batches); n > 0 && batches[n-1].Gen != db.Generation() {
		t.Fatalf("suffix ends at gen %d, head is %d", batches[n-1].Gen, db.Generation())
	}
	// The lost flag clears once reported.
	if _, lost := sub.Poll(); lost {
		t.Fatal("lost flag did not clear")
	}
}

// TestDeltaSubscribeCommitRace is the satellite-3 regression: subscribers
// registering while commits are in flight must never see a torn commit —
// every subscription observes, starting exactly at StartGen+1, the full
// consecutive sequence of generations with each commit's whole write set
// in its batch. Run under -race this also proves registration/publish
// share a coherent lock discipline.
func TestDeltaSubscribeCommitRace(t *testing.T) {
	db := deltaDB(t)
	const commits = 60
	const subscribers = 8
	final := db.Generation() + commits

	var wg sync.WaitGroup
	errs := make(chan error, subscribers+1)

	// Writer: each commit inserts two tuples (the "whole commit" a torn
	// subscription would split).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < commits; i++ {
			err := db.RunInTx(func(tx *Tx) error {
				if err := tx.Insert("GRADES", grade(fmt.Sprintf("CS%03d", i), 1, "A")); err != nil {
					return err
				}
				return tx.Insert("GRADES", grade(fmt.Sprintf("CS%03d", i), 2, "B"))
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	for s := 0; s < subscribers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := db.Subscribe(4 * commits)
			defer sub.Close()
			want := sub.StartGen() + 1
			for {
				batches, lost := sub.Poll()
				if lost {
					errs <- fmt.Errorf("subscriber overflowed despite ample buffer")
					return
				}
				for _, b := range batches {
					if b.Gen != want {
						errs <- fmt.Errorf("gap: got gen %d, want %d", b.Gen, want)
						return
					}
					want++
					// Untorn: the commit's two inserts arrive together.
					if len(b.Deltas) != 1 || len(b.Deltas[0].Inserts) != 2 {
						errs <- fmt.Errorf("torn batch at gen %d: %+v", b.Gen, b)
						return
					}
				}
				if want > final {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
