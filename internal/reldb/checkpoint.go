package reldb

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"penguin/internal/obs"
)

// Checkpointing: bound recovery time by folding the log's prefix into a
// snapshot and discarding the segments below it.
//
// Protocol (crash-safe at every step):
//
//  1. Pin a generation boundary G with a copy-on-write ReadTx and
//     serialize it — commits keep running, the pinned versions are
//     immutable, and the snapshot is exactly the state the log reaches
//     at G.
//  2. Write to snap-G.pngw.tmp, fsync, rename to snap-G.pngw, fsync
//     the directory. A crash before the rename leaves only a .tmp
//     stray (deleted on open); after it, the snapshot is complete —
//     rename is the commit point.
//  3. Roll the WAL so the active segment starts at the current append
//     watermark (>= G) and new records land above the snapshot.
//  4. Prune: delete snapshots older than G, and delete every segment
//     whose successor segment starts at or below G — all its records
//     are then <= G, folded into the snapshot. The tail segment is
//     never deleted. A crash mid-prune just leaves extra files; replay
//     skips records at or below the snapshot's generation.

// Checkpoint writes a snapshot at the current generation boundary and
// truncates the log below it, returning the checkpointed generation.
// Manual checkpoints and the background checkpointer serialize on the
// same mutex. Returns ErrNotDurable for an in-memory database.
func (db *Database) Checkpoint() (uint64, error) {
	if db.wal == nil {
		return 0, ErrNotDurable
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	// An unresolved cross-shard prepare (replayed from the log, awaiting
	// the sharded open's resolution) must stay reachable: a snapshot
	// would not carry it and the prune would drop its record. Live
	// prepares can't get here — PreparedTx holds ckptMu.
	db.mu.RLock()
	pending := len(db.pendingX)
	db.mu.RUnlock()
	if pending > 0 {
		return 0, fmt.Errorf("reldb: checkpoint deferred: %d in-doubt cross-shard transactions", pending)
	}

	rtx := db.BeginRead()
	gen := rtx.Generation()
	tmp := filepath.Join(db.dataDir, snapshotName(gen)+tmpSuffix)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		rtx.Close()
		return 0, err
	}
	err = rtx.WriteSnapshot(f)
	rtx.Close()
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(db.dataDir, snapshotName(gen))); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := syncDir(db.dataDir); err != nil {
		return 0, err
	}
	if _, err := db.wal.roll(); err != nil {
		return 0, err
	}
	if err := db.pruneBelow(gen); err != nil {
		return 0, err
	}
	obs.Default.WALCheckpointsByShard.At(db.wal.slot).Inc()
	return gen, nil
}

// pruneBelow removes snapshots older than gen and segments wholly
// covered by the snapshot at gen.
func (db *Database) pruneBelow(gen uint64) error {
	snapGens, segStarts, err := scanDataDir(db.dataDir)
	if err != nil {
		return err
	}
	removed := false
	for _, g := range snapGens {
		if g < gen {
			if err := os.Remove(filepath.Join(db.dataDir, snapshotName(g))); err != nil {
				return err
			}
			removed = true
		}
	}
	// Segment i holds records in (segStarts[i], segStarts[i+1]]; it is
	// dead once its successor starts at or below the snapshot.
	for i := 0; i+1 < len(segStarts); i++ {
		if segStarts[i+1] <= gen {
			if err := os.Remove(filepath.Join(db.dataDir, walSegmentName(segStarts[i]))); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return syncDir(db.dataDir)
	}
	return nil
}

// checkpointLoop is the background checkpointer: every interval, if the
// generation moved since the last checkpoint, take one. Errors are
// counted and retried next tick — a full disk during a checkpoint must
// not kill the writer path. phase delays the first tick so databases
// sharing an interval (the shards of a cluster) snapshot in rotation
// instead of fsyncing simultaneously.
func (db *Database) checkpointLoop(interval, phase time.Duration) {
	defer close(db.ckptDone)
	if phase > 0 {
		pt := time.NewTimer(phase)
		select {
		case <-db.ckptStop:
			pt.Stop()
			return
		case <-pt.C:
		}
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	last := db.Generation()
	for {
		select {
		case <-db.ckptStop:
			return
		case <-t.C:
			if g := db.Generation(); g != last {
				if gen, err := db.Checkpoint(); err == nil {
					last = gen
				}
			}
		}
	}
}

// Close stops the background checkpointer and the WAL syncer, fsyncs
// and closes the active segment, and marks the database closed. Commits
// after Close fail; Close on an in-memory database is a no-op. Close is
// idempotent.
func (db *Database) Close() error {
	db.closeOnce.Do(func() {
		if db.ckptStop != nil {
			close(db.ckptStop)
			<-db.ckptDone
		}
		if db.wal != nil {
			db.closeErr = db.wal.close()
		}
	})
	return db.closeErr
}
