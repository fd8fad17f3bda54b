package reldb

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// walPayload assembles a raw record payload: the type byte, the
// generation and a body written by body.
func walPayload(typ byte, gen uint64, body func(*bytes.Buffer)) []byte {
	var buf bytes.Buffer
	buf.WriteByte(typ)
	writeU64(&buf, gen)
	body(&buf)
	return buf.Bytes()
}

// TestWALRecordCountsBoundedByPayload: a count in a record is checked
// against the bytes left in the payload before anything is sized by it.
// Each payload below declares 1<<24 elements (under maxSnapshotCount)
// and carries none; decoding must fail without allocating for them —
// the tuple alone would be 512 MB.
func TestWALRecordCountsBoundedByPayload(t *testing.T) {
	const huge = 1 << 24
	cases := map[string][]byte{
		"commit tuple arity": walPayload(recCommit, 1, func(b *bytes.Buffer) {
			writeU32(b, 1) // one delta
			writeString(b, "R")
			writeU32(b, 1) // one insert
			writeU32(b, huge)
		}),
		"prepare participants": walPayload(recCrossPrepare, 0, func(b *bytes.Buffer) {
			writeString(b, "x")
			writeU32(b, huge)
		}),
		"create attributes": walPayload(recCreate, 1, func(b *bytes.Buffer) {
			writeString(b, "R")
			writeU32(b, huge)
		}),
	}
	for name, payload := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rec, err := decodeWALRecord(payload)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte payload decoded to %+v", name, len(payload), rec)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes", name, len(payload), alloc)
		}
	}
}

// encodeWALRecord re-encodes a decoded record with the encoder of its
// type.
func encodeWALRecord(rec *walRecord) []byte {
	switch rec.typ {
	case recCommit:
		return encodeCommitRecord(rec.batch)
	case recCrossPrepare:
		return encodeCrossPrepareRecord(rec.xid, rec.parts, rec.batch)
	case recCrossDecide:
		return encodeCrossDecideRecord(rec.xid, rec.commit, rec.gen)
	case recCreate:
		return encodeCreateRecord(rec.gen, rec.schema)
	default:
		return encodeDropRecord(rec.gen, rec.rel)
	}
}

// FuzzWALRecord feeds raw payloads to the WAL record decoder, the
// hostile-bytes boundary of recovery (a payload is CRC-checked, not
// trusted). No payload may panic it, and every record it accepts must be
// one its encoder writes: decode(encode(decode(p))) == decode(p). The
// seed corpus (testdata/fuzz/FuzzWALRecord) holds one encoder output per
// record type.
func FuzzWALRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return
		}
		back, err := decodeWALRecord(encodeWALRecord(rec))
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\n%+v", err, rec)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("record changed across re-encoding:\nfirst  %+v\nsecond %+v", rec, back)
		}
	})
}

// FuzzWALFrames feeds arbitrary bytes to the frame scanner as the final
// segment of a log, the place a torn tail is legitimate. No file may
// panic replaySegment, and the prefix it keeps is a fixed point:
// replaying the file cut to keep gives the same database and tears
// nothing more off (a file whose header was torn keeps 0 again). The
// seed corpus (testdata/fuzz/FuzzWALFrames) holds a segment a durable
// database wrote — creates, commits, a drop, and a committed and an
// aborted cross-shard transaction — whole, torn and with a flipped byte.
func FuzzWALFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		path := filepath.Join(t.TempDir(), walSegmentName(1))
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		db := NewDatabase()
		keep, err := replaySegment(db, path, true)
		if err != nil || keep < 0 {
			return
		}
		if keep > int64(len(seg)) {
			t.Fatalf("keep %d past the end of a %d-byte segment", keep, len(seg))
		}
		if err := os.Truncate(path, keep); err != nil {
			t.Fatal(err)
		}
		again := NewDatabase()
		keep2, err := replaySegment(again, path, true)
		if err != nil {
			t.Fatalf("the kept %d of %d bytes fail replay: %v", keep, len(seg), err)
		}
		want := int64(-1)
		if keep == 0 {
			want = 0
		}
		if keep2 != want {
			t.Fatalf("the kept %d of %d bytes replay to keep %d, want %d", keep, len(seg), keep2, want)
		}
		if a, b := replayState(t, db), replayState(t, again); !bytes.Equal(a, b) {
			t.Fatalf("replaying the kept %d of %d bytes gives another database", keep, len(seg))
		}
		if !reflect.DeepEqual(db.pendingX, again.pendingX) || !reflect.DeepEqual(db.decidedX, again.decidedX) {
			t.Fatalf("replaying the kept %d of %d bytes resolves cross-shard records differently", keep, len(seg))
		}
	})
}

// replayState is the database's snapshot bytes: its generation and
// every relation's schema and rows.
func replayState(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// offEncodings are value bytes AppendBinaryValue never writes, each
// beside the bytes of the value a lenient reader would take them for:
// the one value reader must refuse them, or a value would have a second
// encoding on disk.
var offEncodings = []struct {
	name string
	v    Value
	off  []byte
}{
	{"bool byte 2", Bool(false), []byte{byte(KindBool), 2}},
	{"over-long varint", Int(1), []byte{byte(KindInt), 0x82, 0x00}},
	{"varint past 64 bits", Int(math.MaxInt64), []byte{byte(KindInt), 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x03}},
}

// TestWALRecordRefusesOffEncodings: a commit record inserting a tuple
// whose value bytes AppendBinaryValue would not write is refused, and
// the same record with the value's own bytes decodes.
func TestWALRecordRefusesOffEncodings(t *testing.T) {
	record := func(value []byte) []byte {
		return walPayload(recCommit, 1, func(b *bytes.Buffer) {
			writeU32(b, 1) // one delta
			writeString(b, "R")
			writeU32(b, 1) // one insert, of arity 1
			writeU32(b, 1)
			b.Write(value)
			writeU32(b, 0) // no deletes
			writeU32(b, 0) // no replaces
		})
	}
	for _, c := range offEncodings {
		canonical := AppendBinaryValue(nil, c.v)
		if _, err := decodeWALRecord(record(canonical)); err != nil {
			t.Errorf("%s: the canonical bytes % x are refused: %v", c.name, canonical, err)
		}
		if rec, err := decodeWALRecord(record(c.off)); err == nil {
			t.Errorf("%s: % x decoded as %v", c.name, c.off, rec.batch.Deltas[0].Inserts[0])
		}
	}
}

// TestReplayRefusesShortImages: a commit record whose deleted or
// replaced image has fewer values than its relation's key reads fails
// replay with an error, where reading the key from it would run off the
// row.
func TestReplayRefusesShortImages(t *testing.T) {
	for name, images := range map[string]func(b *bytes.Buffer){
		"delete": func(b *bytes.Buffer) {
			writeU32(b, 0) // no inserts
			writeU32(b, 1) // one delete, of arity 0
			writeU32(b, 0)
			writeU32(b, 0) // no replaces
		},
		"replace": func(b *bytes.Buffer) {
			writeU32(b, 0) // no inserts
			writeU32(b, 0) // no deletes
			writeU32(b, 1) // one replace, from arity 0
			writeU32(b, 0)
			writeTuple(b, RowOf(Tuple{Int(1), String("v")}))
		},
	} {
		db := NewDatabase()
		db.MustCreateRelation(kvSchema("R"))
		rec, err := decodeWALRecord(walPayload(recCommit, db.gen+1, func(b *bytes.Buffer) {
			writeU32(b, 1) // one delta
			writeString(b, "R")
			images(b)
		}))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := applyWALRecord(db, rec); err == nil {
			t.Errorf("%s: a record with an empty image replays", name)
		}
	}
}
