package reldb

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"penguin/internal/obs"
)

// The write-ahead log: the durable, on-disk form of the per-commit delta
// stream. Every generation advance — a publishing commit, a
// CreateRelation, a DropRelation — appends exactly one record before the
// new state becomes visible in memory, so the log is a gap-free sequence
// of generations and recovery can prove it replayed a committed prefix.
//
// Segment files are named wal-%016x.log, where the hex value is the
// generation the segment starts after: every record in the segment has a
// strictly greater generation. Each segment begins with an 8-byte magic
// header; records follow back to back:
//
//	u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u8 recordType | u64 gen | body
//	  recordType 1 (commit): u32 nDeltas | per delta:
//	    string relation | u32 nIns | tuple* | u32 nDel | tuple* |
//	    u32 nRep | (oldTuple, newTuple)*
//	  recordType 2 (create): schema (name, attrs, key — codec.go layout)
//	  recordType 3 (drop):   string relation
//	  recordType 4 (cross-prepare): string xid | u32 nParts | u32* parts |
//	    commit body (gen field is 0 — assigned by the decide)
//	  recordType 5 (cross-decide): string xid | u8 commit (gen field is
//	    the published generation for commits, 0 for aborts)
//
// A tuple is its arity and its values' bytes, the bytes a stored row
// holds them in (codec.go's writeTuple); names and schemas use the
// snapshot's layout, so the log is the serialized DeltaBatch stream.
//
// Group commit: records are appended (buffered in the OS page cache)
// under the writer lock, in generation order, before the commit
// publishes in memory; the commit then releases the writer lock and —
// in SyncCommit mode — waits for the background syncer to push the
// durable high-water mark past its generation. While one fsync is in
// flight further commits keep appending, so one fsync acknowledges a
// whole batch of commits and throughput under concurrency is bounded by
// fsync bandwidth, not fsync latency times commits.
//
// Derived-state caveat: secondary indexes built outside a generation
// advance (Relation.CreateIndex during setup, the auto-registered edge
// indexes) are not logged — they are derived state, re-declared by
// snapshots and rebuilt on load. Losing post-snapshot index declarations
// affects lookup speed after recovery, never correctness.

// SyncMode selects when WAL appends are made durable.
type SyncMode int

const (
	// SyncCommit fsyncs before Commit returns (group-batched): an
	// acknowledged commit survives kill -9. The default.
	SyncCommit SyncMode = iota
	// SyncNone never fsyncs (tests and bulk loads): durability is
	// whatever the OS page cache survives.
	SyncNone
)

const (
	walSegmentMagic = "PNGWAL01"
	walSegPrefix    = "wal-"
	walSegSuffix    = ".log"
	snapPrefix      = "snap-"
	snapSuffix      = ".pngw"
	tmpSuffix       = ".tmp"

	recCommit byte = 1
	recCreate byte = 2
	recDrop   byte = 3
	// recCrossPrepare and recCrossDecide are the two-shard commit
	// protocol's markers (see prepared.go): a prepare carries a pending
	// delta batch with no generation assigned yet (gen field 0), a decide
	// resolves it — commit decides carry the generation the batch
	// publishes as, abort decides carry gen 0.
	recCrossPrepare byte = 4
	recCrossDecide  byte = 5

	// maxWALRecord caps a record's payload length: a frame claiming more
	// is treated as damage, not as an allocation request.
	maxWALRecord = 1 << 30
)

func walSegmentName(startGen uint64) string {
	return fmt.Sprintf("%s%016x%s", walSegPrefix, startGen, walSegSuffix)
}

func snapshotName(gen uint64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, gen, snapSuffix)
}

// wal is the append side of the log. Appends are serialized by the
// database writer lock (they happen inside Commit/DDL while it is held),
// so wal.mu only coordinates appends with the background syncer and with
// checkpoint rolls.
type wal struct {
	dir  string
	mode SyncMode
	// slot is the shard label slot (obs.Default.Shards) the log's obs
	// counters are recorded under. Set once at open.
	slot int

	// mu guards the active file handle and the append-side watermarks.
	mu       sync.Mutex
	f        *os.File
	segStart uint64 // generation the active segment starts after
	appended uint64 // highest generation appended
	seq      uint64 // appends so far; each append's sequence number

	// fsyncMu serializes fsync-and-close against the active file: the
	// syncer fsyncs under it, and a checkpoint roll swaps files and
	// closes the old handle under it, so a handle is never closed while
	// a sync on it is in flight.
	fsyncMu sync.Mutex

	// smu guards the durability watermark and wakes the syncer. The
	// watermark counts append sequence numbers, not generations: prepare
	// records of the two-shard commit protocol are appended before their
	// generation is assigned, and an aborted prepare's provisional
	// generation may be reused by a later commit, so generations are not
	// unique per record — sequence numbers are.
	smu    sync.Mutex
	scond  *sync.Cond
	want   uint64 // highest append sequence some committer wants durable
	synced uint64 // highest append sequence known durable
	serr   error  // sticky fsync failure: fail all later commits loudly
	closed bool
	done   chan struct{} // syncer exit
}

func newWAL(dir string, mode SyncMode, f *os.File, segStart, head uint64, slot int) *wal {
	w := &wal{
		dir:      dir,
		mode:     mode,
		f:        f,
		segStart: segStart,
		appended: head,
		slot:     slot,
		done:     make(chan struct{}),
	}
	w.scond = sync.NewCond(&w.smu)
	if mode == SyncCommit {
		go w.syncLoop()
	} else {
		close(w.done)
	}
	return w
}

// append writes one framed record for gen and returns the record's
// append sequence number (the handle to waitDurable on). The caller
// holds the database writer lock, so calls arrive in order; generations
// are non-decreasing, with gen 0 marking records that carry no
// generation (cross-shard prepares and abort decides). The bytes reach
// the OS (buffered); durability is the syncer's job.
func (w *wal) append(gen uint64, payload []byte) (uint64, error) {
	var frame [8]byte
	putU32(frame[0:4], uint32(len(payload)))
	putU32(frame[4:8], crc32.Checksum(payload, castagnoli))
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return 0, ErrDatabaseClosed
	}
	if _, err := w.f.Write(frame[:]); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("reldb: wal append gen %d: %w", gen, err)
	}
	if _, err := w.f.Write(payload); err != nil {
		w.mu.Unlock()
		return 0, fmt.Errorf("reldb: wal append gen %d: %w", gen, err)
	}
	if gen > w.appended {
		w.appended = gen
	}
	w.seq++
	seq := w.seq
	w.mu.Unlock()
	obs.Default.WALAppendsByShard.At(w.slot).Inc()
	obs.Default.WALBytesByShard.At(w.slot).Add(int64(len(frame) + len(payload)))
	if w.mode == SyncCommit {
		w.smu.Lock()
		if seq > w.want {
			w.want = seq
		}
		w.smu.Unlock()
		w.scond.Broadcast()
	}
	return seq, nil
}

// waitDurable blocks until the log is durable through the given append
// sequence (SyncCommit mode; SyncNone acknowledges immediately).
// A sticky fsync error fails every waiter: durability can no longer be
// promised.
func (w *wal) waitDurable(seq uint64) error {
	if w.mode != SyncCommit {
		return nil
	}
	w.smu.Lock()
	defer w.smu.Unlock()
	for w.synced < seq && w.serr == nil && !w.closed {
		w.scond.Wait()
	}
	if w.serr != nil {
		return w.serr
	}
	if w.synced < seq {
		return ErrDatabaseClosed
	}
	return nil
}

// syncLoop is the group-commit engine: each pass fsyncs once and
// advances the durability watermark to everything appended before the
// fsync started, acknowledging every commit in that window together.
func (w *wal) syncLoop() {
	defer close(w.done)
	for {
		w.smu.Lock()
		for w.want <= w.synced && !w.closed {
			w.scond.Wait()
		}
		if w.closed && w.want <= w.synced {
			w.smu.Unlock()
			return
		}
		w.smu.Unlock()
		w.syncPass()
	}
}

// syncPass fsyncs the active segment and advances the durability
// watermark to the append watermark read before the fsync. The handle is
// sampled and fsynced under fsyncMu (taken before mu, the order roll
// uses), so a checkpoint roll can neither close it mid-pass nor swap it
// between the sample and the fsync; segments rolled away earlier were
// fsynced by their roll, so the watermark advance is sound.
func (w *wal) syncPass() {
	w.fsyncMu.Lock()
	w.mu.Lock()
	target := w.seq
	f := w.f
	w.mu.Unlock()
	var err error
	if f != nil {
		start := time.Now()
		err = f.Sync()
		obs.Default.WALFsyncNs.Observe(time.Since(start).Nanoseconds())
		obs.Default.WALFsyncsByShard.At(w.slot).Inc()
	}
	w.fsyncMu.Unlock()
	w.smu.Lock()
	if err != nil && w.serr == nil {
		w.serr = fmt.Errorf("reldb: wal fsync: %w", err)
	}
	if err == nil && target > w.synced {
		w.synced = target
	}
	w.smu.Unlock()
	w.scond.Broadcast()
}

// roll closes the active segment (fsynced) and starts a fresh one that
// begins after the current append watermark. Called by checkpoints;
// roll takes only wal-internal locks, so it runs concurrently with
// commits. Returns the generation the new segment starts after. An
// already-empty active segment is reused as is.
func (w *wal) roll() (uint64, error) {
	w.fsyncMu.Lock()
	defer w.fsyncMu.Unlock()
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return 0, ErrDatabaseClosed
	}
	if w.appended == w.segStart {
		start := w.segStart
		w.mu.Unlock()
		return start, nil
	}
	start := w.appended
	old := w.f
	nf, err := createSegment(filepath.Join(w.dir, walSegmentName(start)))
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.f = nf
	w.segStart = start
	w.mu.Unlock()
	// Everything in the old segment becomes durable at the roll: later
	// syncPasses fsync only the new file, so this fsync is what lets
	// them advance the watermark past the old segment's records.
	syncErr := old.Sync()
	obs.Default.WALFsyncsByShard.At(w.slot).Inc()
	closeErr := old.Close()
	if syncErr != nil {
		return 0, fmt.Errorf("reldb: wal roll: %w", syncErr)
	}
	if closeErr != nil {
		return 0, fmt.Errorf("reldb: wal roll: %w", closeErr)
	}
	return start, nil
}

// close stops the syncer and closes the active segment, fsyncing it
// first whatever the mode.
func (w *wal) close() error {
	w.smu.Lock()
	if w.closed {
		w.smu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	w.smu.Unlock()
	w.scond.Broadcast()
	<-w.done
	w.mu.Lock()
	f := w.f
	w.f = nil
	w.mu.Unlock()
	if f == nil {
		return nil
	}
	syncErr := f.Sync()
	closeErr := f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// createSegment creates a fresh segment file carrying just the magic
// header. The file is not fsynced here: its records gain durability from
// the first syncPass (or roll) that covers them.
func createSegment(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(walSegmentMagic); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// encodeCommitRecord serializes a commit's DeltaBatch as a WAL payload.
// The batch's Gen must already be stamped. Structural deltas never occur
// here — DDL writes its own record types.
func encodeCommitRecord(batch DeltaBatch) []byte {
	var buf bytes.Buffer
	buf.WriteByte(recCommit)
	writeU64(&buf, batch.Gen)
	writeBatchBody(&buf, batch)
	return buf.Bytes()
}

// writeBatchBody serializes a DeltaBatch's deltas (the commit-record body
// layout, shared with cross-shard prepare records).
func writeBatchBody(buf *bytes.Buffer, batch DeltaBatch) {
	writeU32(buf, uint32(len(batch.Deltas)))
	for _, d := range batch.Deltas {
		writeString(buf, d.Relation)
		writeU32(buf, uint32(len(d.Inserts)))
		for _, t := range d.Inserts {
			writeTuple(buf, t)
		}
		writeU32(buf, uint32(len(d.Deletes)))
		for _, t := range d.Deletes {
			writeTuple(buf, t)
		}
		writeU32(buf, uint32(len(d.Replaces)))
		for _, rc := range d.Replaces {
			writeTuple(buf, rc.Old)
			writeTuple(buf, rc.New)
		}
	}
}

// encodeCrossPrepareRecord serializes a two-shard commit prepare: the
// transaction id, the participant shard indices, and the pending delta
// batch. The record carries gen 0 — the generation is assigned by the
// decide record that resolves it.
func encodeCrossPrepareRecord(xid string, parts []int, batch DeltaBatch) []byte {
	var buf bytes.Buffer
	buf.WriteByte(recCrossPrepare)
	writeU64(&buf, 0)
	writeString(&buf, xid)
	writeU32(&buf, uint32(len(parts)))
	for _, p := range parts {
		writeU32(&buf, uint32(p))
	}
	writeBatchBody(&buf, batch)
	return buf.Bytes()
}

// encodeCrossDecideRecord serializes a two-shard commit decision. Commit
// decisions carry the generation the pending batch publishes as; abort
// decisions carry gen 0 (no generation is consumed).
func encodeCrossDecideRecord(xid string, commit bool, gen uint64) []byte {
	var buf bytes.Buffer
	buf.WriteByte(recCrossDecide)
	writeU64(&buf, gen)
	writeString(&buf, xid)
	if commit {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

// encodeCreateRecord serializes a CreateRelation as a WAL payload.
func encodeCreateRecord(gen uint64, schema *Schema) []byte {
	var buf bytes.Buffer
	buf.WriteByte(recCreate)
	writeU64(&buf, gen)
	writeSchema(&buf, schema)
	return buf.Bytes()
}

// encodeDropRecord serializes a DropRelation as a WAL payload.
func encodeDropRecord(gen uint64, name string) []byte {
	var buf bytes.Buffer
	buf.WriteByte(recDrop)
	writeU64(&buf, gen)
	writeString(&buf, name)
	return buf.Bytes()
}

// walRecord is one decoded log record.
type walRecord struct {
	typ    byte
	gen    uint64
	batch  DeltaBatch // recCommit, recCrossPrepare
	schema *Schema    // recCreate
	rel    string     // recDrop
	xid    string     // recCrossPrepare, recCrossDecide
	parts  []int      // recCrossPrepare
	commit bool       // recCrossDecide
}

// decodeWALRecord parses a CRC-verified payload.
func decodeWALRecord(payload []byte) (*walRecord, error) {
	r := bytes.NewReader(payload)
	typ, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	gen, err := readU64(r)
	if err != nil {
		return nil, err
	}
	rec := &walRecord{typ: typ, gen: gen}
	switch typ {
	case recCommit:
		if rec.batch, err = readBatchBody(r, gen); err != nil {
			return nil, err
		}
	case recCrossPrepare:
		if gen != 0 {
			// A prepare has no generation yet; its decide assigns one.
			return nil, fmt.Errorf("prepare record carries gen %d", gen)
		}
		if rec.xid, err = readString(r); err != nil {
			return nil, err
		}
		nParts, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if nParts > maxSnapshotCount || overruns(r, nParts) {
			return nil, fmt.Errorf("participant count %d too large", nParts)
		}
		rec.parts = make([]int, nParts)
		for i := range rec.parts {
			p, err := readU32(r)
			if err != nil {
				return nil, err
			}
			rec.parts[i] = int(p)
		}
		if rec.batch, err = readBatchBody(r, 0); err != nil {
			return nil, err
		}
	case recCrossDecide:
		if rec.xid, err = readString(r); err != nil {
			return nil, err
		}
		cb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		rec.commit = cb == 1
	case recCreate:
		if rec.schema, err = readSchema(r); err != nil {
			return nil, err
		}
	case recDrop:
		if rec.rel, err = readString(r); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown record type %d", typ)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("record gen %d: %d trailing bytes", gen, r.Len())
	}
	return rec, nil
}

// readBatchBody decodes what writeBatchBody produced, stamping every
// delta with gen.
func readBatchBody(r *bytes.Reader, gen uint64) (DeltaBatch, error) {
	var batch DeltaBatch
	nDeltas, err := readU32(r)
	if err != nil {
		return batch, err
	}
	if nDeltas > maxSnapshotCount || overruns(r, nDeltas) {
		return batch, fmt.Errorf("delta count %d too large", nDeltas)
	}
	batch.Gen = gen
	var buf []byte
	// rows reads a count and that many tuples.
	rows := func() ([]Row, error) {
		n, err := readU32(r)
		if err != nil {
			return nil, err
		}
		var out []Row
		for ; n > 0; n-- {
			var row Row
			if row, buf, err = readTuple(r, buf); err != nil {
				return nil, err
			}
			out = append(out, row)
		}
		return out, nil
	}
	for i := uint32(0); i < nDeltas; i++ {
		d := Delta{Gen: gen}
		if d.Relation, err = readString(r); err != nil {
			return batch, err
		}
		if d.Inserts, err = rows(); err != nil {
			return batch, err
		}
		if d.Deletes, err = rows(); err != nil {
			return batch, err
		}
		nRep, err := readU32(r)
		if err != nil {
			return batch, err
		}
		for j := uint32(0); j < nRep; j++ {
			var old, nw Row
			if old, buf, err = readTuple(r, buf); err != nil {
				return batch, err
			}
			if nw, buf, err = readTuple(r, buf); err != nil {
				return batch, err
			}
			d.Replaces = append(d.Replaces, TupleChange{Old: old, New: nw})
		}
		batch.Deltas = append(batch.Deltas, d)
	}
	return batch, nil
}
