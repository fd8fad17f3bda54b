package reldb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func durableDB(t *testing.T, dir string) *Database {
	t.Helper()
	db, err := OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func kvSchema(name string) *Schema {
	return MustSchema(name, []Attribute{
		{Name: "K", Type: KindInt},
		{Name: "V", Type: KindString, Nullable: true},
	}, []string{"K"})
}

func mustCommit(t *testing.T, db *Database, fn func(*Tx) error) {
	t.Helper()
	if err := db.RunInTx(fn); err != nil {
		t.Fatal(err)
	}
}

// rowsOf returns the relation's tuples as "k=v" strings in key order.
func rowsOf(t *testing.T, db *Database, rel string) []string {
	t.Helper()
	r, err := db.Relation(rel)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, tp := range r.All() {
		out = append(out, tp.String())
	}
	return out
}

func TestOpenDatabaseRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	if _, err := db.CreateRelation(kvSchema("R")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		i := i
		mustCommit(t, db, func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(int64(i)), String(fmt.Sprintf("v%d", i))})
		})
	}
	mustCommit(t, db, func(tx *Tx) error {
		_, err := tx.Replace("R", Tuple{Int(2)}, Tuple{Int(2), String("v2'")})
		return err
	})
	mustCommit(t, db, func(tx *Tx) error {
		_, err := tx.Delete("R", Tuple{Int(4)})
		return err
	})
	gen := db.Generation()
	want := rowsOf(t, db, "R")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := durableDB(t, dir)
	defer re.Close()
	if g := re.Generation(); g != gen {
		t.Fatalf("recovered generation = %d, want %d", g, gen)
	}
	got := rowsOf(t, re, "R")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered rows %v, want %v", got, want)
	}
	// The delta stream continues gap-free: the next commit publishes
	// gen+1 to a fresh subscriber.
	sub := re.Subscribe(8)
	mustCommit(t, re, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(100), String("post")})
	})
	batches, lost := sub.Poll()
	if lost || len(batches) != 1 || batches[0].Gen != gen+1 {
		t.Fatalf("post-recovery commit: batches=%v lost=%v, want single gen %d", batches, lost, gen+1)
	}
}

// TestRecoveryEmptyNetCommit: a commit whose net effect cancels out
// still advances the generation, so it must be logged — otherwise the
// generation sequence has a hole and recovery refuses the log.
func TestRecoveryEmptyNetCommit(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	if _, err := db.CreateRelation(kvSchema("R")); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, db, func(tx *Tx) error {
		if err := tx.Insert("R", Tuple{Int(1), String("ephemeral")}); err != nil {
			return err
		}
		_, err := tx.Delete("R", Tuple{Int(1)})
		return err
	})
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(2), String("kept")})
	})
	gen := db.Generation()
	db.Close()

	re := durableDB(t, dir)
	defer re.Close()
	if g := re.Generation(); g != gen {
		t.Fatalf("recovered generation = %d, want %d", g, gen)
	}
	if n := re.MustRelation("R").Count(); n != 1 {
		t.Fatalf("recovered %d rows, want 1", n)
	}
}

func TestRecoveryDDL(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("KEEP"))
	db.MustCreateRelation(kvSchema("DOOMED"))
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("KEEP", Tuple{Int(1), String("x")})
	})
	if err := db.DropRelation("DOOMED"); err != nil {
		t.Fatal(err)
	}
	gen := db.Generation()
	db.Close()

	re := durableDB(t, dir)
	defer re.Close()
	if re.HasRelation("DOOMED") {
		t.Fatal("dropped relation came back")
	}
	if !re.HasRelation("KEEP") || re.MustRelation("KEEP").Count() != 1 {
		t.Fatal("created relation or its rows lost")
	}
	if g := re.Generation(); g != gen {
		t.Fatalf("recovered generation = %d, want %d", g, gen)
	}
}

// TestOldKeyPrefixIndexReopens: a checkpoint written while an ownership
// crossing still needed an edge index declares one over a leading prefix
// of the owned relation's key. Such a data directory opens with no
// conversion: the index is rebuilt and maintained, the planner never
// chooses it (the row tree serves the set), and every lookup answers as
// it did before the reopen, and after a write as the row tree does.
func TestOldKeyPrefixIndexReopens(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(gradesSchema(t))
	mustCommit(t, db, func(tx *Tx) error {
		for pid := int64(0); pid < 400; pid++ {
			if err := tx.Insert("GRADES", grade(fmt.Sprintf("CS%d", pid%7), pid, string(rune('A'+pid%4)))); err != nil {
				return err
			}
		}
		return nil
	})
	const old = "conn_course-grades_to"
	if err := db.MustRelation("GRADES").CreateIndex(old, []string{"CourseID"}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// answers renders every course's and every grade's rows, through
	// MatchEqual and Select, with what each charged.
	answers := func(db *Database) string {
		t.Helper()
		r := db.MustRelation("GRADES")
		var b strings.Builder
		for _, q := range []struct {
			attr string
			vals []Value
		}{
			{"CourseID", []Value{String("CS0"), String("CS3"), String("CS6"), String("CS9")}},
			{"Grade", []Value{String("A"), String("D")}},
		} {
			for _, v := range q.vals {
				var st, sst MatchStats
				got, err := matchStats(r, []string{q.attr}, Tuple{v}, &st)
				if err != nil {
					t.Fatal(err)
				}
				sel, err := r.SelectStats(Eq(q.attr, v), &sst)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s=%s %+v %v\n%+v %v\n", q.attr, v, st, got, sst, sel)
			}
		}
		return b.String()
	}
	want := answers(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := durableDB(t, dir)
	defer re.Close()
	r := re.MustRelation("GRADES")
	if names := r.IndexNames(); len(names) != 1 || names[0] != old {
		t.Fatalf("reopened indexes = %v, want [%s]", names, old)
	}
	if pl, err := r.planFor("test", []string{"CourseID"}); err != nil || pl.kind != planKeyPrefix {
		t.Fatalf("reopened plan = %+v, %v; want the row tree's key prefix", pl, err)
	}
	if got := answers(re); got != want {
		t.Fatalf("answers after reopen:\n%s\nwant:\n%s", got, want)
	}
	mustCommit(t, re, func(tx *Tx) error {
		if _, err := tx.Delete("GRADES", Tuple{String("CS0"), Int(7)}); err != nil {
			return err
		}
		return tx.Insert("GRADES", grade("CS0", 1000, "A"))
	})
	r = re.MustRelation("GRADES")
	var entries []Row
	r.indexes[old].tree.ascend("", func(_ string, row Row) bool { entries = append(entries, row); return true })
	sameTuples(t, "the kept index after a write", entries, tuplesOf(r.All()))
}

// TestRecoveryTornTail: bytes of an unfinished append at the end of the
// last segment are discarded and the file is truncated back to the
// acknowledged prefix.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("R"))
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String("durable")})
	})
	gen := db.Generation()
	db.Close()

	segs, err := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	// Simulate a crash mid-append: garbage that parses as a frame header
	// whose record extends past EOF.
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x40, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := durableDB(t, dir)
	defer re.Close()
	if g := re.Generation(); g != gen {
		t.Fatalf("recovered generation = %d, want %d", g, gen)
	}
	if n := re.MustRelation("R").Count(); n != 1 {
		t.Fatalf("recovered %d rows, want 1", n)
	}
	// And the torn bytes are gone: appending continues cleanly.
	mustCommit(t, re, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(2), String("after")})
	})
	re.Close()
	re2 := durableDB(t, dir)
	defer re2.Close()
	if n := re2.MustRelation("R").Count(); n != 2 {
		t.Fatalf("after truncate-and-append: %d rows, want 2", n)
	}
}

// TestRecoveryMidLogCorruption: a damaged record that is not the tail
// cannot be a torn append — recovery must refuse with ErrWALCorrupt,
// never silently drop committed data after it.
func TestRecoveryMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("R"))
	for i := 0; i < 4; i++ {
		i := i
		mustCommit(t, db, func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(int64(i)), String("v")})
		})
	}
	db.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the file, away from the final record.
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x20
	if err := os.WriteFile(segs[0], mut, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDatabase(dir)
	if err == nil {
		t.Fatal("mid-log corruption accepted")
	}
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("error does not wrap ErrWALCorrupt: %v", err)
	}
}

func TestCheckpointAndPrune(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("R"))
	for i := 0; i < 10; i++ {
		i := i
		mustCommit(t, db, func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(int64(i)), String("v")})
		})
	}
	ckGen, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckGen != db.Generation() {
		t.Fatalf("checkpoint gen %d, head %d", ckGen, db.Generation())
	}
	// Post-checkpoint traffic lands in the new tail segment.
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(100), String("tail")})
	})
	gen := db.Generation()
	db.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("snapshots after checkpoint: %v", snaps)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if len(segs) != 1 {
		t.Fatalf("segments after prune: %v", segs)
	}

	re := durableDB(t, dir)
	defer re.Close()
	if g := re.Generation(); g != gen {
		t.Fatalf("recovered generation = %d, want %d", g, gen)
	}
	if n := re.MustRelation("R").Count(); n != 11 {
		t.Fatalf("recovered %d rows, want 11", n)
	}
}

// TestCheckpointTmpStrayIgnored: a crash before the snapshot rename
// leaves only a .tmp file, which open deletes and ignores.
func TestCheckpointTmpStrayIgnored(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("R"))
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String("v")})
	})
	gen := db.Generation()
	db.Close()

	stray := filepath.Join(dir, snapshotName(gen)+tmpSuffix)
	if err := os.WriteFile(stray, []byte("half a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := durableDB(t, dir)
	defer re.Close()
	if g := re.Generation(); g != gen {
		t.Fatalf("recovered generation = %d, want %d", g, gen)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray .tmp not cleaned up: %v", err)
	}
}

// TestRecoveryCorruptSnapshot: a named snapshot that fails its CRC is
// genuine damage (the rename protocol means it was complete once);
// recovery reports it rather than silently falling back.
func TestRecoveryCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("R"))
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String("v")})
	})
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("snapshots: %v", snaps)
	}
	data, _ := os.ReadFile(snaps[0])
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenDatabase(dir)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot: error = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestRecoveryMissingSegment: deleting a segment recovery still needs
// leaves a generation gap, which must be refused, not bridged.
func TestRecoveryMissingSegment(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("R"))
	for i := 0; i < 3; i++ {
		i := i
		mustCommit(t, db, func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(int64(i)), String("v")})
		})
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(50), String("tail")})
	})
	db.Close()

	// Delete the snapshot: the remaining tail segment starts above
	// generation 0, so the log no longer reaches the empty state.
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	for _, s := range snaps {
		os.Remove(s)
	}
	_, err := OpenDatabase(dir)
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("generation gap: error = %v, want ErrWALCorrupt", err)
	}
}

func TestCloseIdempotentAndCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir)
	db.MustCreateRelation(kvSchema("R"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	err := db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String("v")})
	})
	if !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("commit after close: %v, want ErrDatabaseClosed", err)
	}
	// In-memory databases: Close is a no-op, Checkpoint refuses.
	mem := NewDatabase()
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Checkpoint(); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("in-memory checkpoint: %v, want ErrNotDurable", err)
	}
}

// TestSyncModes: the relaxed mode still recovers what reached the OS.
func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncNone} {
		dir := t.TempDir()
		db, err := OpenDatabaseWith(dir, OpenOptions{Sync: mode})
		if err != nil {
			t.Fatal(err)
		}
		db.MustCreateRelation(kvSchema("R"))
		mustCommit(t, db, func(tx *Tx) error {
			return tx.Insert("R", Tuple{Int(1), String("v")})
		})
		gen := db.Generation()
		db.Close()
		re := durableDB(t, dir)
		if g := re.Generation(); g != gen {
			t.Fatalf("mode %d: recovered generation = %d, want %d", mode, g, gen)
		}
		re.Close()
	}
}

// TestCheckpointRacesGroupCommit pins the syncer/roll ordering: a
// checkpoint roll closes the segment it replaces, and a sync pass that
// sampled that handle before the roll used to fsync it after the close,
// leaving a sticky "file already closed" error that failed every later
// commit. Four SyncCommit committers race a tight Checkpoint loop; no
// commit may fail and the recovered state must equal the live one.
func TestCheckpointRacesGroupCommit(t *testing.T) {
	const committers, commits = 4, 500
	dir := t.TempDir()
	db, err := OpenDatabaseWith(dir, OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateRelation(kvSchema("R"))

	stop := make(chan struct{})
	ckptDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckptDone <- nil
				return
			default:
			}
			if _, err := db.Checkpoint(); err != nil {
				ckptDone <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < commits && errs[c] == nil; i++ {
				k := int64(c*commits + i)
				errs[c] = db.RunInTx(func(tx *Tx) error {
					return tx.Insert("R", Tuple{Int(k), String("v")})
				})
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	if err := <-ckptDone; err != nil {
		t.Errorf("checkpoint: %v", err)
	}
	for c, err := range errs {
		if err != nil {
			t.Errorf("committer %d: %v", c, err)
		}
	}
	gen, want := db.Generation(), rowsOf(t, db, "R")
	if len(want) != committers*commits {
		t.Errorf("live database holds %d rows, want %d", len(want), committers*commits)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := durableDB(t, dir)
	defer re.Close()
	if g := re.Generation(); g != gen {
		t.Errorf("recovered generation = %d, want %d", g, gen)
	}
	if got := rowsOf(t, re, "R"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered %d rows differ from the %d live ones", len(got), len(want))
	}
}

// TestRecoveryKeepsReplacesOfEqualValues: a replace whose new values are
// Equal to the old but not Identical — a number for a NaN, 0 for -0, a
// Float for the Int it equals in a Float column — is a change the log
// must carry: after a reopen each value reads back Identical to what
// the commit stored.
func TestRecoveryKeepsReplacesOfEqualValues(t *testing.T) {
	dir := t.TempDir()
	opts := OpenOptions{Sync: SyncNone, CheckpointInterval: -1}
	db, err := OpenDatabaseWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt},
		{Name: "F", Type: KindFloat, Nullable: true},
	}, []string{"K"})); err != nil {
		t.Fatal(err)
	}
	was := []Value{Float(math.NaN()), Float(math.Copysign(0, -1)), Int(1)}
	now := []Value{Float(5), Float(0), Float(1)}
	mustCommit(t, db, func(tx *Tx) error {
		for k, v := range was {
			if err := tx.Insert("R", Tuple{Int(int64(k)), v}); err != nil {
				return err
			}
		}
		return nil
	})
	mustCommit(t, db, func(tx *Tx) error {
		for k, v := range now {
			if _, err := tx.Replace("R", Tuple{Int(int64(k))}, Tuple{Int(int64(k)), v}); err != nil {
				return err
			}
		}
		return nil
	})
	check := func(what string, db *Database) {
		t.Helper()
		r, err := db.Relation("R")
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range now {
			row, ok := r.Get(Tuple{Int(int64(k))})
			if !ok || !row.At(1).Identical(v) {
				t.Errorf("%s: row %d holds %#v, want %#v (replaced %#v)", what, k, row.At(1), v, was[k])
			}
		}
	}
	check("live", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDatabaseWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check("reopened", re)
}

// TestStringTooLongToReadBackRefused: the schema check refuses a string
// longer than the snapshot and WAL readers accept, so a commit cannot
// log a value recovery would refuse; one of exactly the limit commits
// and reopens.
func TestStringTooLongToReadBackRefused(t *testing.T) {
	dir := t.TempDir()
	opts := OpenOptions{Sync: SyncNone, CheckpointInterval: -1}
	db, err := OpenDatabaseWith(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(kvSchema("R")); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", maxStringBytes+1)
	if err := db.RunInTx(func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(1), String(long)})
	}); err == nil {
		t.Fatalf("a %d-byte string committed; readers accept at most %d", len(long), maxStringBytes)
	}
	mustCommit(t, db, func(tx *Tx) error {
		return tx.Insert("R", Tuple{Int(2), String(long[1:])})
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenDatabaseWith(dir, opts)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer re.Close()
	r, err := re.Relation("R")
	if err != nil {
		t.Fatal(err)
	}
	if row, ok := r.Get(Tuple{Int(2)}); !ok || len(row.At(1).MustString()) != maxStringBytes || r.Count() != 1 {
		t.Fatalf("reopened relation holds %d rows; row 2 found %v", r.Count(), ok)
	}
}
