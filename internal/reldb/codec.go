package reldb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot persistence: a compact binary format holding every schema and
// every tuple. The format is versioned and self-describing enough to detect
// truncation and corruption. Secondary indexes are re-declared in the
// snapshot (names and attribute lists) and rebuilt on load.
//
// Version 2 layout (the only version read; version 1 files — no head
// generation, no CRC — are refused as unsupported):
//
//	magic "PNGW" | u16 version | u64 headGen | u32 nRelations
//	per relation:
//	  string name | u32 nAttrs | per attr: string name, u8 kind, u8 nullable
//	  u32 nKey | per key: u32 attrIndex
//	  u32 nIndexes | per index: string name, u32 nAttrs, per attr: u32 idx
//	  u32 nRows | per row: per attr: value
//	u32 crc32c over every preceding byte (magic included)
//	value: AppendBinaryValue's encoding (tuple.go), the bytes a stored
//	  row holds its values in
//
// A row's values are written as the row holds them, so writing a
// snapshot or a WAL record decodes nothing; readBinaryValue is the one
// decoder of those bytes, and refuses any that AppendBinaryValue would
// not have written.
//
// headGen is the database's commit generation at serialization time.
// Restoring it on load is what keeps every generation-keyed subsystem
// (delta subscriptions, materializer build generations)
// monotone across a restart: without it a post-restore commit would
// publish generation 1 and every consumer's clock would run backwards.
const (
	snapshotMagic    = "PNGW"
	snapshotVersion  = 2
	maxSnapshotCount = 1 << 24
	// maxStringBytes caps a string the snapshot and WAL readers accept,
	// a name or a value; the schema check refuses a longer value, so
	// nothing a commit stores is too long to read back.
	maxStringBytes = 1 << 24
)

// castagnoli is the CRC-32C table shared by the snapshot trailer and the
// WAL record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// byteWriter is the sink the encoders write into: bufio.Writer,
// bytes.Buffer, and the CRC-tracking crcWriter all satisfy it.
type byteWriter interface {
	io.Writer
	io.ByteWriter
	io.StringWriter
}

// byteReader is the source the decoders read from: bufio.Reader,
// bytes.Reader, and the CRC-tracking crcReader all satisfy it.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// overruns reports whether n elements of at least one byte each cannot
// fit in what r has left, so a corrupt count fails before it sizes an
// allocation. Only a reader that knows its length can tell: the
// *bytes.Reader over a WAL payload does. The streaming snapshot reader
// does not: it relies on the maxSnapshotCount caps, and grows what a
// count would size as the elements arrive.
func overruns(r byteReader, n uint32) bool {
	lr, ok := r.(interface{ Len() int })
	return ok && int64(n) > int64(lr.Len())
}

// crcWriter forwards to an underlying byteWriter while accumulating a
// CRC-32C of every byte written, so the snapshot trailer can guard the
// whole stream without buffering it.
type crcWriter struct {
	w   byteWriter
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	return cw.w.Write(p)
}

func (cw *crcWriter) WriteByte(b byte) error {
	cw.crc = crc32.Update(cw.crc, castagnoli, []byte{b})
	return cw.w.WriteByte(b)
}

func (cw *crcWriter) WriteString(s string) (int, error) {
	cw.crc = crc32.Update(cw.crc, castagnoli, []byte(s))
	return cw.w.WriteString(s)
}

// crcReader forwards to an underlying byteReader while accumulating a
// CRC-32C of every byte read. The snapshot trailer itself is read from
// the underlying reader directly, so it never hashes itself.
type crcReader struct {
	r   byteReader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, castagnoli, p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	b, err := cr.r.ReadByte()
	if err == nil {
		cr.crc = crc32.Update(cr.crc, castagnoli, []byte{b})
	}
	return b, err
}

// WriteSnapshot serializes the whole database to w in snapshot format v2.
//
// Serialization runs from a copy-on-write ReadTx snapshot, not under
// db.mu: the catalog lock is held only for the pointer copies of
// BeginRead, so commits proceed concurrently however large the database
// is. (An earlier revision held db.mu.RLock for the entire serialization,
// stalling every commit for the duration of a checkpoint.)
func (db *Database) WriteSnapshot(w io.Writer) error {
	rtx := db.BeginRead()
	defer rtx.Close()
	return rtx.WriteSnapshot(w)
}

// WriteSnapshot serializes the read transaction's pinned state — every
// relation version and the pinned commit generation — in snapshot format
// v2. The pinned versions are immutable, so no lock is held while the
// bytes are produced.
func (rtx *ReadTx) WriteSnapshot(w io.Writer) error {
	if rtx.done {
		return ErrTxDone
	}
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}
	if _, err := cw.WriteString(snapshotMagic); err != nil {
		return err
	}
	writeU16(cw, snapshotVersion)
	writeU64(cw, rtx.gen)
	names := rtx.Names()
	writeU32(cw, uint32(len(names)))
	for _, n := range names {
		if err := writeRelation(cw, rtx.rels[n]); err != nil {
			return err
		}
	}
	writeU32(bw, cw.crc) // trailer: unhashed, guards everything above
	return bw.Flush()
}

// ReadSnapshot deserializes a database previously written by
// WriteSnapshot, restoring the head commit generation. The stream is
// CRC-verified end to end: a torn or bit-flipped file fails with an
// error wrapping ErrSnapshotCorrupt instead of loading as garbage or a
// confusing mid-row error. Any other format version is refused.
func ReadSnapshot(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br}
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("reldb: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("reldb: bad snapshot magic %q", magic)
	}
	version, err := readU16(cr)
	if err != nil {
		return nil, err
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("reldb: unsupported snapshot version %d", version)
	}
	headGen, err := readU64(cr)
	if err != nil {
		return nil, corruptSnapshot(err)
	}
	db := NewDatabase()
	if err := readSnapshotBody(cr, db); err != nil {
		return nil, corruptSnapshot(err)
	}
	want := cr.crc
	got, err := readU32(br) // trailer was never hashed
	if err != nil {
		return nil, corruptSnapshot(fmt.Errorf("reading CRC trailer: %w", err))
	}
	if got != want {
		return nil, corruptSnapshot(fmt.Errorf("CRC mismatch: stored %08x, computed %08x", got, want))
	}
	// Restore the head generation. Loading created each relation
	// through CreateRelation, which advanced the counter from zero;
	// the stored head is always at least that (every relation's
	// creation advanced the original counter too), so restoring it
	// keeps generation-keyed consumers monotone across the restart.
	if headGen > db.gen {
		db.gen = headGen
	}
	return db, nil
}

// corruptSnapshot tags a version-2 decode failure as corruption: with a
// CRC-guarded format, any structural failure means the file does not
// carry what was written.
func corruptSnapshot(err error) error {
	return fmt.Errorf("reldb: snapshot: %w: %w", ErrSnapshotCorrupt, err)
}

// readSnapshotBody decodes the relation-count-prefixed relation list
// into db.
func readSnapshotBody(r byteReader, db *Database) error {
	n, err := readU32(r)
	if err != nil {
		return err
	}
	if n > maxSnapshotCount {
		return fmt.Errorf("reldb: snapshot relation count %d too large", n)
	}
	for i := uint32(0); i < n; i++ {
		if err := readRelation(r, db); err != nil {
			return err
		}
	}
	return nil
}

func writeRelation(w byteWriter, rel *Relation) error {
	writeSchema(w, rel.Schema())
	ixNames := rel.IndexNames()
	writeU32(w, uint32(len(ixNames)))
	for _, name := range ixNames {
		ix := rel.indexes[name]
		writeString(w, name)
		writeU32(w, uint32(len(ix.attrs)))
		for _, a := range ix.attrs {
			writeU32(w, uint32(a))
		}
	}
	writeU32(w, uint32(rel.Count()))
	// Write, not WriteString: the CRC writer would copy a string to hash it.
	var buf []byte
	var err error
	rel.rows.ascend("", func(_ string, row Row) bool {
		buf = append(buf[:0], row.s[row.pos(0):]...)
		_, err = w.Write(buf)
		return err == nil
	})
	return err
}

// writeSchema serializes a schema's name, attributes, and primary key —
// shared by the snapshot relation records and the WAL's create-relation
// records. Like the other writers it leaves errors to w: a bytes.Buffer
// has none, and a snapshot's bufio.Writer keeps its first for Flush.
func writeSchema(w byteWriter, s *Schema) {
	writeString(w, s.Name())
	writeU32(w, uint32(s.Arity()))
	for i := 0; i < s.Arity(); i++ {
		a := s.Attr(i)
		writeString(w, a.Name)
		w.WriteByte(byte(a.Type))
		if a.Nullable {
			w.WriteByte(1)
		} else {
			w.WriteByte(0)
		}
	}
	key := s.Key()
	writeU32(w, uint32(len(key)))
	for _, k := range key {
		writeU32(w, uint32(k))
	}
}

// readSchema decodes what writeSchema produced.
func readSchema(r byteReader) (*Schema, error) {
	name, err := readString(r)
	if err != nil {
		return nil, err
	}
	nAttrs, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nAttrs > maxSnapshotCount || overruns(r, nAttrs) {
		return nil, fmt.Errorf("reldb: snapshot %s: attribute count %d too large", name, nAttrs)
	}
	// A streaming reader cannot check nAttrs against the bytes left, so
	// attrs grows as attributes arrive instead of being sized by it.
	attrs := make([]Attribute, 0, min(nAttrs, 64))
	for i := uint32(0); i < nAttrs; i++ {
		an, err := readString(r)
		if err != nil {
			return nil, err
		}
		kb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		nb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, Attribute{Name: an, Type: Kind(kb), Nullable: nb == 1})
	}
	nKey, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nKey > nAttrs {
		return nil, fmt.Errorf("reldb: snapshot %s: key width %d exceeds arity %d", name, nKey, nAttrs)
	}
	keyNames := make([]string, nKey)
	for i := range keyNames {
		ki, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if int(ki) >= len(attrs) {
			return nil, fmt.Errorf("reldb: snapshot %s: key index %d out of range", name, ki)
		}
		keyNames[i] = attrs[ki].Name
	}
	schema, err := NewSchema(name, attrs, keyNames)
	if err != nil {
		return nil, fmt.Errorf("reldb: snapshot: %w", err)
	}
	return schema, nil
}

func readRelation(r byteReader, db *Database) error {
	schema, err := readSchema(r)
	if err != nil {
		return err
	}
	name := schema.Name()
	rel, err := db.CreateRelation(schema)
	if err != nil {
		return err
	}
	nIx, err := readU32(r)
	if err != nil {
		return err
	}
	if nIx > maxSnapshotCount {
		return fmt.Errorf("reldb: snapshot %s: index count %d too large", name, nIx)
	}
	attrs := schema.Attrs()
	for i := uint32(0); i < nIx; i++ {
		ixName, err := readString(r)
		if err != nil {
			return err
		}
		nIA, err := readU32(r)
		if err != nil {
			return err
		}
		if nIA > uint32(len(attrs)) {
			return fmt.Errorf("reldb: snapshot %s: index width %d exceeds arity %d", name, nIA, len(attrs))
		}
		ixAttrNames := make([]string, nIA)
		for j := range ixAttrNames {
			ai, err := readU32(r)
			if err != nil {
				return err
			}
			if int(ai) >= len(attrs) {
				return fmt.Errorf("reldb: snapshot %s: index attr %d out of range", name, ai)
			}
			ixAttrNames[j] = attrs[ai].Name
		}
		if err := rel.CreateIndex(ixName, ixAttrNames); err != nil {
			return err
		}
	}
	nRows, err := readU32(r)
	if err != nil {
		return err
	}
	if nRows > maxSnapshotCount {
		return fmt.Errorf("reldb: snapshot %s: row count %d too large", name, nRows)
	}
	var buf []byte
	for i := uint32(0); i < nRows; i++ {
		var row Row
		row, buf, err = readRow(r, uint32(schema.Arity()), buf)
		if err == nil {
			err = rel.insertRow(row)
		}
		if err != nil {
			return fmt.Errorf("reldb: snapshot %s row %d: %w", name, i, err)
		}
	}
	return nil
}

// writeTuple writes a row's values with an arity prefix, the bytes the
// row holds them in (WAL records carry tuples for relations whose schema
// is only known at replay time, so the count makes each record
// self-delimiting).
func writeTuple(w byteWriter, r Row) {
	writeU32(w, uint32(r.Len()))
	w.WriteString(r.s[r.pos(0):])
}

// readTuple decodes what writeTuple wrote into a row with no key.
func readTuple(r byteReader, buf []byte) (Row, []byte, error) {
	n, err := readU32(r)
	if err != nil {
		return Row{}, buf, err
	}
	if n > maxSnapshotCount || overruns(r, n) {
		return Row{}, buf, fmt.Errorf("reldb: tuple arity %d too large", n)
	}
	return readRow(r, n, buf)
}

// readRow reads n values into a row with no key, each checked by
// readBinaryValue. buf is scratch space, returned for the next call.
func readRow(r byteReader, n uint32, buf []byte) (Row, []byte, error) {
	buf = append(buf[:0], 0)
	var err error
	for ; n > 0 && err == nil; n-- {
		buf, err = readBinaryValue(r, buf)
	}
	if err != nil {
		return Row{}, buf, err
	}
	return Row{string(buf)}, buf, nil
}

func writeString(w byteWriter, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func readString(r byteReader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxStringBytes || overruns(r, n) {
		return "", fmt.Errorf("reldb: snapshot string length %d too large", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeU16(w byteWriter, v uint16) {
	var buf [2]byte
	binary.BigEndian.PutUint16(buf[:], v)
	w.Write(buf[:])
}

func readU16(r byteReader) (uint16, error) {
	var buf [2]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(buf[:]), nil
}

func writeU32(w byteWriter, v uint32) {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	w.Write(buf[:])
}

func readU32(r byteReader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(buf[:]), nil
}

func writeU64(w byteWriter, v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	w.Write(buf[:])
}

func readU64(r byteReader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[:]), nil
}
