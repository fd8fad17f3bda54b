package reldb

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func snapshotDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	r := db.MustCreateRelation(MustSchema("MIXED", []Attribute{
		{Name: "ID", Type: KindInt},
		{Name: "Name", Type: KindString, Nullable: true},
		{Name: "Score", Type: KindFloat, Nullable: true},
		{Name: "Active", Type: KindBool, Nullable: true},
	}, []string{"ID"}))
	if err := r.CreateIndex("byName", []string{"Name"}); err != nil {
		t.Fatal(err)
	}
	rows := []Tuple{
		{Int(1), String("alice"), Float(3.75), Bool(true)},
		{Int(2), String("bob"), Null(), Bool(false)},
		{Int(3), Null(), Float(math.Inf(1)), Null()},
		{Int(-4), String("weird \x00 bytes"), Float(-0.0), Bool(true)},
		{Int(maxExactInt), String(""), Float(math.SmallestNonzeroFloat64), Bool(false)},
	}
	for _, row := range rows {
		if err := r.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	db.MustCreateRelation(MustSchema("EMPTY", []Attribute{
		{Name: "K", Type: KindString},
	}, []string{"K"}))
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := snapshotDB(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got.Names(), ",") != strings.Join(db.Names(), ",") {
		t.Fatalf("relation names differ: %v vs %v", got.Names(), db.Names())
	}
	for _, name := range db.Names() {
		orig := db.MustRelation(name)
		load := got.MustRelation(name)
		if orig.Schema().String() != load.Schema().String() {
			t.Fatalf("%s: schema differs:\n%s\n%s", name, orig.Schema(), load.Schema())
		}
		o, l := orig.All(), load.All()
		if len(o) != len(l) {
			t.Fatalf("%s: %d vs %d rows", name, len(o), len(l))
		}
		for i := range o {
			if !o[i].Equal(l[i]) {
				t.Fatalf("%s row %d: %v vs %v", name, i, o[i], l[i])
			}
		}
		if strings.Join(orig.IndexNames(), ",") != strings.Join(load.IndexNames(), ",") {
			t.Fatalf("%s: indexes differ", name)
		}
	}
	// The rebuilt index works.
	rows, err := indexLookup(t, got.MustRelation("MIXED"), []string{"Name"}, Tuple{String("alice")})
	if err != nil || len(rows) != 1 {
		t.Fatalf("rebuilt index lookup = %d rows, %v", len(rows), err)
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	var buf bytes.Buffer
	if err := NewDatabase().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names()) != 0 {
		t.Fatalf("names = %v", got.Names())
	}
}

func TestSnapshotBadMagic(t *testing.T) {
	if _, err := ReadSnapshot(strings.NewReader("XXXX\x00\x01")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSnapshotBadVersion(t *testing.T) {
	var buf bytes.Buffer
	_ = NewDatabase().WriteSnapshot(&buf)
	b := buf.Bytes()
	b[4] = 0xFF // clobber version
	if _, err := ReadSnapshot(bytes.NewReader(b)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestSnapshotTruncated(t *testing.T) {
	db := snapshotDB(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail, never panic or succeed.
	for _, cut := range []int{0, 1, 4, 6, 10, len(full) / 2, len(full) - 1} {
		if cut >= len(full) {
			continue
		}
		if _, err := ReadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated snapshot at %d accepted", cut)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	db := snapshotDB(t)
	var a, b bytes.Buffer
	if err := db.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshots of the same database differ")
	}
}
