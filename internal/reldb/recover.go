package reldb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"penguin/internal/obs"
)

// Recovery: OpenDatabase loads the newest snapshot, replays the WAL tail
// on top of it, and resumes the generation counter exactly where the
// crashed process left it, so every generation-keyed consumer — delta
// subscribers, materializer build generations — stays
// monotone across the restart.
//
// Invariants recovery enforces:
//
//   - Generation continuity: every record applied on top of the loaded
//     state must carry generation db.gen+1 (records at or below the
//     snapshot's generation are skipped — they are already folded in).
//     A gap means a segment is missing: ErrWALCorrupt.
//   - Torn tail, not torn state: a record at the very end of the last
//     segment that is incomplete or fails its CRC is the unfinished
//     append of the crashed process. It is discarded and the file is
//     truncated back to the last record boundary — the acknowledged
//     prefix is untouched. The same damage anywhere else (mid-file, or
//     in a non-final segment) cannot be a torn append and fails with
//     ErrWALCorrupt rather than silently dropping committed data.
//   - Snapshots are atomic or absent: checkpoints write to a .tmp name,
//     fsync, then rename. A *.tmp stray is a crashed checkpoint and is
//     deleted; a named snapshot that fails its CRC was damaged after
//     the fact and fails with ErrSnapshotCorrupt (no silent fallback to
//     an older snapshot, which would be a state the log may no longer
//     reach).

// OpenOptions tunes a durable database opened with OpenDatabaseWith.
// The zero value is the production default: fsync-per-commit (group
// batched) and a 30-second background checkpointer.
type OpenOptions struct {
	// Sync selects the WAL durability mode (default SyncCommit).
	Sync SyncMode
	// CheckpointInterval is the background checkpoint period. Zero means
	// the 30-second default; negative disables the background
	// checkpointer (Checkpoint can still be called manually).
	CheckpointInterval time.Duration
	// CheckpointPhase delays the background checkpointer's first tick,
	// staggering checkpoints across databases that share an interval: N
	// shards opened with phase i*interval/N snapshot in rotation instead
	// of fsyncing simultaneously. Zero means no extra delay.
	CheckpointPhase time.Duration
	// ShardLabel is the shard label value the database's WAL metrics are
	// recorded under (the reldb.wal.* families, by obs.Default.Shards).
	// Empty means "0": a database is a 1-shard cluster.
	ShardLabel string
}

const defaultCheckpointInterval = 30 * time.Second

// OpenDatabase opens (or creates) a durable database in dir with default
// options: every acknowledged commit survives kill -9, and a background
// checkpointer bounds replay time. The caller must Close it.
func OpenDatabase(dir string) (*Database, error) {
	return OpenDatabaseWith(dir, OpenOptions{})
}

// OpenDatabaseWith is OpenDatabase with explicit durability options.
func OpenDatabaseWith(dir string, opts OpenOptions) (*Database, error) {
	ckptEvery := opts.CheckpointInterval
	if ckptEvery == 0 {
		ckptEvery = defaultCheckpointInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapGens, segStarts, err := scanDataDir(dir)
	if err != nil {
		return nil, err
	}

	// Load the newest snapshot, if any.
	db := NewDatabase()
	if len(snapGens) > 0 {
		g := snapGens[len(snapGens)-1]
		path := filepath.Join(dir, snapshotName(g))
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		db, err = ReadSnapshot(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}

	// Replay the log on top of it.
	for i, start := range segStarts {
		path := filepath.Join(dir, walSegmentName(start))
		last := i == len(segStarts)-1
		keep, err := replaySegment(db, path, last)
		if err != nil {
			return nil, err
		}
		if keep >= 0 {
			// Torn tail: cut the unfinished append off the file so the
			// attach below appends from a clean record boundary.
			if err := os.Truncate(path, keep); err != nil {
				return nil, err
			}
		}
	}

	// Attach the tail segment for appending (creating one if the log is
	// empty or the tail was torn down to nothing).
	var tail *os.File
	var tailStart uint64
	if len(segStarts) > 0 {
		tailStart = segStarts[len(segStarts)-1]
		path := filepath.Join(dir, walSegmentName(tailStart))
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if info.Size() < int64(len(walSegmentMagic)) {
			// The crash tore even the segment header off; rebuild it.
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			if tail, err = createSegment(path); err != nil {
				return nil, err
			}
		} else if tail, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return nil, err
		}
	} else {
		tailStart = db.gen
		if tail, err = createSegment(filepath.Join(dir, walSegmentName(tailStart))); err != nil {
			return nil, err
		}
	}

	db.dataDir = dir
	label := opts.ShardLabel
	if label == "" {
		label = "0"
	}
	db.wal = newWAL(dir, opts.Sync, tail, tailStart, db.gen, obs.Default.Shards.Intern(label))
	if ckptEvery > 0 {
		db.ckptStop = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointLoop(ckptEvery, opts.CheckpointPhase)
	}
	return db, nil
}

// scanDataDir inventories the data directory: sorted snapshot
// generations, sorted segment start generations. Crashed checkpoints
// (*.tmp strays) are deleted.
func scanDataDir(dir string) (snapGens, segStarts []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, err
			}
		case strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix):
			g, err := parseHexGen(name, snapPrefix, snapSuffix)
			if err != nil {
				return nil, nil, fmt.Errorf("reldb: %s: %w", name, err)
			}
			snapGens = append(snapGens, g)
		case strings.HasPrefix(name, walSegPrefix) && strings.HasSuffix(name, walSegSuffix):
			g, err := parseHexGen(name, walSegPrefix, walSegSuffix)
			if err != nil {
				return nil, nil, fmt.Errorf("reldb: %s: %w", name, err)
			}
			segStarts = append(segStarts, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })
	return snapGens, segStarts, nil
}

func parseHexGen(name, prefix, suffix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 16, 64)
}

// replaySegment applies one segment's records to db. last marks the
// final segment, the only place a torn tail is legitimate. The return
// value keep is -1 when the whole file was consumed cleanly, or the
// offset the file must be truncated to when a torn tail was discarded.
func replaySegment(db *Database, path string, last bool) (keep int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return -1, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return -1, err
	}
	size := info.Size()

	torn := func(off int64, what string) (int64, error) {
		if last {
			return off, nil
		}
		return -1, fmt.Errorf("reldb: %s: %w: %s at offset %d in non-final segment", path, ErrWALCorrupt, what, off)
	}

	hdr := make([]byte, len(walSegmentMagic))
	if _, err := io.ReadFull(f, hdr); err != nil {
		return torn(0, "short segment header")
	}
	if string(hdr) != walSegmentMagic {
		return -1, fmt.Errorf("reldb: %s: %w: bad segment magic %q", path, ErrWALCorrupt, hdr)
	}
	off := int64(len(walSegmentMagic))
	br := bufio.NewReader(f)
	var frame [8]byte
	for {
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if err == io.EOF {
				return -1, nil // clean end at a record boundary
			}
			return torn(off, "torn record frame")
		}
		length := int64(binary.BigEndian.Uint32(frame[0:4]))
		crc := binary.BigEndian.Uint32(frame[4:8])
		if off+8+length > size {
			return torn(off, "record extends past end of segment")
		}
		if length > maxWALRecord {
			return -1, fmt.Errorf("reldb: %s: %w: record length %d at offset %d", path, ErrWALCorrupt, length, off)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			return torn(off, "torn record payload")
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			if off+8+length == size {
				// The damaged record is the file's final bytes: the
				// append the crash interrupted.
				return torn(off, "checksum mismatch in final record")
			}
			return -1, fmt.Errorf("reldb: %s: %w: checksum mismatch at offset %d", path, ErrWALCorrupt, off)
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return -1, fmt.Errorf("reldb: %s: %w: record at offset %d: %v", path, ErrWALCorrupt, off, err)
		}
		switch rec.typ {
		case recCrossPrepare:
			// No generation yet: stash the pending batch until a decide
			// resolves it. A leftover at the end of replay is in-doubt.
			if db.pendingX == nil {
				db.pendingX = make(map[string]*pendingCross)
			}
			db.pendingX[rec.xid] = &pendingCross{batch: rec.batch, parts: rec.parts}
			obs.Default.WALReplayed.Inc()
		case recCrossDecide:
			if err := replayCrossDecide(db, rec); err != nil {
				return -1, fmt.Errorf("reldb: %s: %w: cross-decide %s: %v", path, ErrWALCorrupt, rec.xid, err)
			}
			obs.Default.WALReplayed.Inc()
		default:
			if rec.gen > db.gen {
				if rec.gen != db.gen+1 {
					return -1, fmt.Errorf("reldb: %s: %w: generation gap — record %d on state %d (missing segment?)",
						path, ErrWALCorrupt, rec.gen, db.gen)
				}
				if err := applyWALRecord(db, rec); err != nil {
					return -1, fmt.Errorf("reldb: %s: %w: applying record gen %d: %v", path, ErrWALCorrupt, rec.gen, err)
				}
				obs.Default.WALReplayed.Inc()
			}
		}
		off += 8 + length
	}
}

// replayCrossDecide resolves a stashed cross-shard prepare during
// replay. Abort decides drop the pending batch; commit decides apply it
// at the generation the decide carries (subject to the same continuity
// check as ordinary commits — the snapshot may already cover it). Either
// way the decision is remembered so the sharded open can resolve a
// sibling shard's in-doubt prepare against it.
func replayCrossDecide(db *Database, rec *walRecord) error {
	if db.decidedX == nil {
		db.decidedX = make(map[string]bool)
	}
	db.decidedX[rec.xid] = rec.commit
	p := db.pendingX[rec.xid]
	delete(db.pendingX, rec.xid)
	if !rec.commit {
		return nil
	}
	if rec.gen <= db.gen {
		// Already folded into the snapshot the replay started from.
		return nil
	}
	if rec.gen != db.gen+1 {
		return fmt.Errorf("generation gap — decide %d on state %d", rec.gen, db.gen)
	}
	if p == nil {
		return fmt.Errorf("commit decision without a prepare")
	}
	for _, d := range p.batch.Deltas {
		rel, ok := db.relations[d.Relation]
		if !ok {
			return fmt.Errorf("delta for unknown relation %s", d.Relation)
		}
		if err := applyDelta(rel, d); err != nil {
			return err
		}
		rel.gen = rec.gen
	}
	db.gen = rec.gen
	return nil
}

// applyWALRecord folds one record into the recovering database. Recovery
// is single-threaded and nothing else holds references into db, so it
// uses the setup-phase exception: direct relation mutation, no
// transactions, no locks.
func applyWALRecord(db *Database, rec *walRecord) error {
	switch rec.typ {
	case recCreate:
		name := rec.schema.Name()
		if _, dup := db.relations[name]; dup {
			return fmt.Errorf("create %s: relation already exists", name)
		}
		r := NewRelation(rec.schema)
		r.gen = rec.gen
		db.relations[name] = r
	case recDrop:
		if _, ok := db.relations[rec.rel]; !ok {
			return fmt.Errorf("drop %s: no such relation", rec.rel)
		}
		delete(db.relations, rec.rel)
	case recCommit:
		for _, d := range rec.batch.Deltas {
			rel, ok := db.relations[d.Relation]
			if !ok {
				return fmt.Errorf("delta for unknown relation %s", d.Relation)
			}
			if err := applyDelta(rel, d); err != nil {
				return err
			}
			rel.gen = rec.gen
		}
	}
	db.gen = rec.gen
	return nil
}

// syncDir fsyncs a directory, making renames and removals in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
