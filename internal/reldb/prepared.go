package reldb

import (
	"fmt"

	"penguin/internal/obs"
)

// Two-shard commit: the participant half of the sharded coordinator's
// commit protocol (internal/reldb/shard). A cross-shard view-object
// update translates into write transactions on every participant shard;
// instead of committing each independently (a crash between them would
// leave half an island updated), the coordinator:
//
//  1. Prepares every participant (ascending shard order): the
//     transaction's delta batch is frozen and logged as a cross-prepare
//     record — no generation assigned, nothing published, the writer
//     lock and the checkpoint mutex stay held.
//  2. Waits for every prepare to be durable.
//  3. Decides commit on every participant: a cross-decide record
//     carrying the generation is appended and the batch publishes in
//     memory exactly like a normal commit.
//  4. Waits for every decide to be durable, then releases the writers
//     in ascending shard order.
//
// Crash recovery (presumed abort): replay stashes prepares it finds no
// decision for (Database.InDoubt); the sharded open resolves each
// in-doubt xid by asking every sibling shard whether it replayed a
// commit decision for it (CrossDecision) — if any did, the decision was
// the cluster's commit point and the batch commits here too
// (ResolveInDoubt); if none did, no acknowledgment can have been issued
// and the prepare is aborted. Either way both shards end up on the same
// side: no half-committed island is observable after recovery.
//
// Holding the checkpoint mutex from Prepare to Release keeps the
// prepare record (and any decide that follows it) out of reach of
// segment pruning while the outcome is unresolved, so a crash anywhere
// inside the protocol leaves enough log on every participant to decide.

// pendingCross is an undecided cross-shard prepare: the frozen delta
// batch and the participant shard set, keyed by xid in Database.pendingX.
type pendingCross struct {
	batch DeltaBatch
	parts []int
}

// PreparedTx is a write transaction frozen between the two phases of a
// cross-shard commit: its delta batch is logged, its writer lock and
// checkpoint mutex are held, and nothing is published. Exactly one of
// CommitDecided (followed by Release) or Abort must be called.
type PreparedTx struct {
	tx        *Tx
	xid       string
	batch     DeltaBatch
	prepSeq   uint64
	decideSeq uint64
	decided   bool
	released  bool
}

// Prepare freezes the transaction as a participant in the two-shard
// commit protocol: the delta batch is built and appended to the WAL as a
// cross-prepare record (durable database), and the writer lock plus the
// checkpoint mutex remain held until CommitDecided/Release or Abort.
// parts names the participant shard indices (diagnostics; recovery does
// not depend on it). On an append failure the transaction is rolled
// back cleanly and the error returned.
func (tx *Tx) Prepare(xid string, parts []int) (*PreparedTx, error) {
	if tx.done {
		obs.Default.TxDoneHits.Inc()
		return nil, ErrTxDone
	}
	tx.done = true
	// Block checkpoints for the duration of the protocol: a checkpoint's
	// segment prune must never drop a prepare record whose decision is
	// still unresolved. Safe against deadlock — Checkpoint holds ckptMu
	// while taking only db.mu.RLock, never the writer lock we hold.
	tx.db.ckptMu.Lock()
	p := &PreparedTx{tx: tx, xid: xid}
	if tx.db.wal != nil {
		// The prepare record logs the batch the decision publishes. An
		// in-memory database builds it at the decision, for subscribers.
		tx.db.mu.RLock()
		p.batch = tx.batchLocked()
		tx.db.mu.RUnlock()
		var err error
		if p.prepSeq, err = tx.db.wal.append(0, encodeCrossPrepareRecord(xid, parts, p.batch)); err != nil {
			tx.db.ckptMu.Unlock()
			tx.end()
			obs.Default.Rollbacks.Inc()
			return nil, fmt.Errorf("reldb: prepare %s aborted: %w", xid, err)
		}
	}
	obs.Default.CrossPrepares.Inc()
	return p, nil
}

// WaitPrepared blocks until the prepare record is durable (SyncCommit
// mode; immediate otherwise).
func (p *PreparedTx) WaitPrepared() error {
	if p.tx.db.wal == nil {
		return nil
	}
	return p.tx.db.wal.waitDurable(p.prepSeq)
}

// CommitDecided appends the commit decision and publishes the prepared
// batch as the shard's next generation. The writer lock stays held —
// call Release (after WaitDecided, for durability) to let the next
// writer in. The decision is final: once any participant's decide
// record is durable the cluster-level outcome is commit, so an append
// failure here does not un-publish — the error reports that durability
// can no longer be promised, like a failed group-commit fsync.
func (p *PreparedTx) CommitDecided() error {
	if p.decided || p.released {
		return ErrTxDone
	}
	p.decided = true
	tx := p.tx
	var appendErr error
	tx.db.mu.RLock()
	gen := tx.db.gen + 1
	tx.db.mu.RUnlock()
	if tx.db.wal != nil {
		p.decideSeq, appendErr = tx.db.wal.append(gen, encodeCrossDecideRecord(p.xid, true, gen))
	}
	tx.db.mu.Lock()
	if tx.db.wal == nil && len(tx.db.subs) > 0 {
		p.batch = tx.batchLocked()
	}
	tx.install()
	p.batch.stamp(gen)
	tx.db.publishLocked(p.batch)
	tx.db.mu.Unlock()
	tx.dirty, tx.written = nil, nil
	obs.Default.Commits.Inc()
	obs.Default.CrossCommits.Inc()
	if appendErr != nil {
		return fmt.Errorf("reldb: cross-commit %s gen %d published but not logged: %w", p.xid, gen, appendErr)
	}
	return nil
}

// WaitDecided blocks until the commit decision is durable.
func (p *PreparedTx) WaitDecided() error {
	if !p.decided || p.tx.db.wal == nil {
		return nil
	}
	return p.tx.db.wal.waitDurable(p.decideSeq)
}

// Release ends the protocol on this participant: the checkpoint mutex
// and the writer lock are released. Idempotent.
func (p *PreparedTx) Release() {
	if p.released {
		return
	}
	p.released = true
	p.tx.db.ckptMu.Unlock()
	p.tx.db.writer.Unlock()
}

// Abort resolves the prepare as aborted: an abort decision is logged
// (best effort — presumed abort makes it advisory), the working set is
// discarded, and the locks are released. Nothing was published.
func (p *PreparedTx) Abort() error {
	if p.decided || p.released {
		return ErrTxDone
	}
	p.released = true
	tx := p.tx
	if tx.db.wal != nil {
		_, _ = tx.db.wal.append(0, encodeCrossDecideRecord(p.xid, false, 0))
	}
	tx.db.ckptMu.Unlock()
	tx.end()
	obs.Default.Rollbacks.Inc()
	obs.Default.CrossAborts.Inc()
	return nil
}

// InDoubt returns the xids of cross-shard prepares replayed from the
// log that have no decision — the set the sharded open must resolve.
func (db *Database) InDoubt() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	xids := make([]string, 0, len(db.pendingX))
	for xid := range db.pendingX {
		xids = append(xids, xid)
	}
	return xids
}

// CrossDecision reports whether this shard's log carried a decision for
// xid: known=false means neither outcome was seen here.
func (db *Database) CrossDecision(xid string) (commit, known bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	commit, known = db.decidedX[xid]
	return commit, known
}

// ResolveInDoubt resolves a replayed in-doubt prepare: commit publishes
// the pending batch as the next generation (logging the decide record so
// later recoveries see it resolved), abort discards it (logging an
// advisory abort decide). Called by the sharded open, before concurrent
// traffic starts.
func (db *Database) ResolveInDoubt(xid string, commit bool) error {
	db.writer.Lock()
	defer db.writer.Unlock()
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.mu.RLock()
	p := db.pendingX[xid]
	db.mu.RUnlock()
	if p == nil {
		return fmt.Errorf("reldb: resolve %s: no such in-doubt transaction", xid)
	}
	if !commit {
		if db.wal != nil {
			_, _ = db.wal.append(0, encodeCrossDecideRecord(xid, false, 0))
		}
		db.mu.Lock()
		delete(db.pendingX, xid)
		if db.decidedX == nil {
			db.decidedX = make(map[string]bool)
		}
		db.decidedX[xid] = false
		db.mu.Unlock()
		obs.Default.CrossAborts.Inc()
		return nil
	}
	var walSeq uint64
	db.mu.RLock()
	gen := db.gen + 1
	db.mu.RUnlock()
	p.batch.stamp(gen)
	if db.wal != nil {
		var err error
		if walSeq, err = db.wal.append(gen, encodeCrossDecideRecord(xid, true, gen)); err != nil {
			return err
		}
	}
	db.mu.Lock()
	db.gen++
	for _, d := range p.batch.Deltas {
		rel, ok := db.relations[d.Relation]
		if !ok {
			db.mu.Unlock()
			return fmt.Errorf("reldb: resolve %s: delta for unknown relation %s", xid, d.Relation)
		}
		c := rel.clone()
		if err := applyDelta(c, d); err != nil {
			db.mu.Unlock()
			return fmt.Errorf("reldb: resolve %s: %w", xid, err)
		}
		c.freeze()
		c.gen = db.gen
		db.relations[d.Relation] = c
	}
	db.publishLocked(p.batch)
	delete(db.pendingX, xid)
	if db.decidedX == nil {
		db.decidedX = make(map[string]bool)
	}
	db.decidedX[xid] = true
	db.mu.Unlock()
	obs.Default.Commits.Inc()
	obs.Default.CrossCommits.Inc()
	if db.wal != nil {
		return db.wal.waitDurable(walSeq)
	}
	return nil
}

// applyDelta folds one net-effect delta into a relation (a private clone
// or a recovering database's live relation).
func applyDelta(rel *Relation, d Delta) error {
	s := rel.Schema()
	for _, t := range d.Inserts {
		if err := rel.insertRow(t); err != nil {
			return err
		}
	}
	// A deleted or replaced image is checked too: its key is read from
	// it, and a WAL record's rows have the arity the record gave them.
	for _, t := range d.Deletes {
		err := s.CheckRow(t)
		if err == nil {
			_, err = rel.Delete(t.Key(s))
		}
		if err != nil {
			return err
		}
	}
	for _, rc := range d.Replaces {
		nt, err := rel.storableRow(rc.New)
		if err == nil {
			err = s.CheckRow(rc.Old)
		}
		if err == nil {
			_, err = rel.replace(rc.Old.Key(s), nt)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
