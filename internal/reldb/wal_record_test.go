package reldb

import (
	"bytes"
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
func encodeWALRecord(rec *walRecord) ([]byte, error) {
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
		again, err := encodeWALRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v\n%+v", err, rec)
		}
		back, err := decodeWALRecord(again)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v\n%+v", err, rec)
		}
		if !reflect.DeepEqual(back, rec) {
			t.Fatalf("record changed across re-encoding:\nfirst  %+v\nsecond %+v", rec, back)
		}
	})
}
