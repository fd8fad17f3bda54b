package reldb

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// edgeNaN is a NaN with a payload other than the one math.NaN returns:
// the durable codecs must carry its bits, not just its NaN-ness.
var edgeNaN = math.Float64frombits(0x7ff0000000000001)

// Digests of the durable bytes goldenDurableDB writes. They pin the
// snapshot and WAL formats: a change to how a Value is held in memory
// must leave both byte streams exactly as they were.
const (
	goldenSnapshotSHA = "e120ce524edac47edcf0b3657c42ff6da795edccfc959b0f15e3befaba2506f2"
	goldenWALSHA      = "8a8af0576e3bd4fc799f915ea05cdf8c83be0728a05b12a0813e2c01e1f4cecb"
)

// goldenDurableDB builds a fixed durable database in dir whose rows hold
// every value edge case (the int64 extremes and the first int past the
// key codec's exact domain, negative zero, both infinities, a NaN with a
// payload, the empty string, non-UTF-8 bytes around a NUL, both bools
// and null), through a create record and three commits: an insert, then
// a replace and a delete of one extra row, so the snapshot still holds
// every edge value.
func goldenDurableDB(t *testing.T, dir string) *Database {
	t.Helper()
	db, err := OpenDatabaseWith(dir, OpenOptions{Sync: SyncNone, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(MustSchema("EDGES", []Attribute{
		{Name: "K", Type: KindString},
		{Name: "I", Type: KindInt, Nullable: true},
		{Name: "F", Type: KindFloat, Nullable: true},
		{Name: "B", Type: KindBool, Nullable: true},
	}, []string{"K"})); err != nil {
		t.Fatal(err)
	}
	rows := []Tuple{
		{String(""), Int(math.MinInt64), Float(math.Copysign(0, -1)), Bool(true)},
		{String("\x00\xff"), Int(maxExactInt + 1), Float(math.Inf(1)), Bool(false)},
		{String("max"), Int(math.MaxInt64), Float(math.Inf(-1)), Null()},
		{String("nan"), Null(), Float(edgeNaN), Bool(true)},
		{String("gone"), Int(1), Float(1.5), Null()},
	}
	mustCommit(t, db, func(tx *Tx) error {
		for _, r := range rows {
			if err := tx.Insert("EDGES", r); err != nil {
				return err
			}
		}
		return nil
	})
	mustCommit(t, db, func(tx *Tx) error {
		_, err := tx.Replace("EDGES", Tuple{String("gone")},
			Tuple{String("gone"), Int(-1), Float(edgeNaN), Bool(false)})
		return err
	})
	mustCommit(t, db, func(tx *Tx) error {
		_, err := tx.Delete("EDGES", Tuple{String("gone")})
		return err
	})
	return db
}

// walPayloads returns the record payloads of every WAL segment in dir,
// in log order, checking each frame's length and the segment magic.
func walPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var out [][]byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, []byte(walSegmentMagic)) {
			t.Fatalf("%s: no segment magic", seg)
		}
		b = b[len(walSegmentMagic):]
		for len(b) > 0 {
			if len(b) < 8 {
				t.Fatalf("%s: torn frame", seg)
			}
			n := int(binary.BigEndian.Uint32(b[0:4]))
			if len(b) < 8+n {
				t.Fatalf("%s: torn payload", seg)
			}
			out = append(out, b[8:8+n])
			b = b[8+n:]
		}
	}
	return out
}

func TestDurableBytesGolden(t *testing.T) {
	dir := t.TempDir()
	db := goldenDurableDB(t, dir)
	var snap bytes.Buffer
	if err := db.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	payloads := walPayloads(t, dir)
	if len(payloads) != 4 {
		t.Fatalf("WAL holds %d records, want 4 (create + 3 commits)", len(payloads))
	}
	wal := sha256.New()
	for _, p := range payloads {
		wal.Write(p)
	}
	snapSum := sha256.Sum256(snap.Bytes())
	if got := hex.EncodeToString(snapSum[:]); got != goldenSnapshotSHA {
		t.Errorf("snapshot sha256 = %s, want %s", got, goldenSnapshotSHA)
	}
	if got := hex.EncodeToString(wal.Sum(nil)); got != goldenWALSHA {
		t.Errorf("WAL payload sha256 = %s, want %s", got, goldenWALSHA)
	}
	// Loading the snapshot and writing it again gives back the same bytes.
	re, err := ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := re.WriteSnapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), snap.Bytes()) {
		t.Error("snapshot bytes changed across a load and rewrite")
	}
}
