package reldb

import (
	"fmt"
	"time"

	"penguin/internal/obs"
)

// Tx is a write transaction over a Database, implemented with copy-on-
// write: the first access to a relation clones it into the transaction's
// private working set — a new version sharing the committed one's trees,
// which copies only the root-to-leaf paths it writes — all reads and
// writes inside the transaction go to the clone (read-your-writes), and
// Commit publishes the modified clones back into the catalog by pointer
// swap. Committed relation versions are
// never mutated, so concurrent readers holding a snapshot are undisturbed
// for as long as they like.
//
// Write transactions are serialized by the database's writer lock from
// Begin until Commit or Rollback — the single-writer discipline of the
// paper's §5 update pipeline. Rollback simply discards the working set;
// the committed state was never touched, so no undo log is needed. If any
// step of a view-object translation is rejected, the whole update rolls
// back, as §5.1 requires ("the transaction cannot be completed and has to
// be rolled back").
type Tx struct {
	db      *Database
	dirty   map[string]*Relation // private clones, by relation name
	written map[string]bool      // clones with at least one successful op
	ops     int
	start   time.Time
	done    bool
	// op is the causal trace context of the operation driving this
	// transaction (zero when untraced). Commit and Rollback report
	// themselves as child spans of it, so a view-object update's span
	// tree reaches into the engine.
	op obs.Op
}

// Begin starts a write transaction, acquiring the database writer lock.
func (db *Database) Begin() *Tx {
	db.writer.Lock()
	return &Tx{
		db:      db,
		dirty:   make(map[string]*Relation),
		written: make(map[string]bool),
		start:   time.Now(),
	}
}

// Relation returns the transaction's private copy of the named relation.
// Reads through it observe the transaction's own uncommitted writes. It
// fails with ErrTxDone after Commit or Rollback, so a finished transaction
// cannot leak mutable state.
func (tx *Tx) Relation(name string) (*Relation, error) {
	if tx.done {
		obs.Default.TxDoneHits.Inc()
		return nil, ErrTxDone
	}
	if r, ok := tx.dirty[name]; ok {
		return r, nil
	}
	tx.db.mu.RLock()
	r, ok := tx.db.relations[name]
	tx.db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("reldb: relation %s: %w", name, ErrNoSuchRelation)
	}
	c := r.clone()
	tx.dirty[name] = c
	return c, nil
}

// Insert adds a tuple to the named relation.
func (tx *Tx) Insert(relName string, t Tuple) error {
	if tx.done {
		obs.Default.TxDoneHits.Inc()
		return ErrTxDone
	}
	r, err := tx.Relation(relName)
	if err != nil {
		return err
	}
	if err := r.Insert(t); err != nil {
		return err
	}
	tx.written[relName] = true
	tx.ops++
	return nil
}

// Delete removes the tuple with the given key from the named relation and
// returns the deleted row.
func (tx *Tx) Delete(relName string, key Tuple) (Row, error) {
	if tx.done {
		obs.Default.TxDoneHits.Inc()
		return Row{}, ErrTxDone
	}
	r, err := tx.Relation(relName)
	if err != nil {
		return Row{}, err
	}
	old, err := r.Delete(key)
	if err != nil {
		return Row{}, err
	}
	tx.written[relName] = true
	tx.ops++
	return old, nil
}

// Replace substitutes the tuple at oldKey with newTuple (possibly changing
// the key) and returns the replaced row.
func (tx *Tx) Replace(relName string, oldKey Tuple, newTuple Tuple) (Row, error) {
	if tx.done {
		obs.Default.TxDoneHits.Inc()
		return Row{}, ErrTxDone
	}
	r, err := tx.Relation(relName)
	if err != nil {
		return Row{}, err
	}
	nt, err := r.storable(newTuple)
	if err != nil {
		return Row{}, err
	}
	old, err := r.replace(oldKey, nt)
	if err != nil {
		return Row{}, err
	}
	tx.written[relName] = true
	tx.ops++
	return old, nil
}

// OpCount returns the number of successful operations so far.
func (tx *Tx) OpCount() int { return tx.ops }

// SetTraceOp attaches the causal trace context whose child spans Commit
// and Rollback will become. Attaching the zero Op (the untraced case)
// is free; Begin cannot take the op itself because the driving
// operation typically starts its root span before acquiring the writer
// lock.
func (tx *Tx) SetTraceOp(op obs.Op) { tx.op = op }

// Commit publishes the transaction's modified relations into the catalog
// and releases the writer lock. Relations the transaction only read are
// not republished; one it only indexed is, under the same generation.
func (tx *Tx) Commit() error {
	if tx.done {
		obs.Default.TxDoneHits.Inc()
		return ErrTxDone
	}
	tx.done = true
	published := len(tx.written)
	// The commit span covers Begin→Commit, so it opens retroactively at
	// tx.start; delta publication nests inside it as its own child.
	traced := tx.op.Active()
	var commitOp obs.Op
	if traced {
		commitOp = tx.op.ChildAt("reldb.commit", tx.start)
	}
	// The delta batch is the diff of the versions the transaction cloned
	// and the ones it leaves, built only when something reads it. On a
	// durable database the log does: the batch is built outside the
	// exclusive catalog lock and appended before the commit becomes
	// visible (write-ahead), under the generation it will get — stable
	// under the writer lock. An append failure aborts the commit cleanly:
	// nothing was published, the committed state is untouched.
	var batch DeltaBatch
	var walSeq uint64
	durable := published > 0 && tx.db.wal != nil
	if durable {
		tx.db.mu.RLock()
		batch = tx.batchLocked()
		batch.stamp(tx.db.gen + 1)
		tx.db.mu.RUnlock()
		var err error
		if walSeq, err = tx.db.wal.append(batch.Gen, encodeCommitRecord(batch)); err != nil {
			tx.end()
			obs.Default.Rollbacks.Inc()
			return fmt.Errorf("reldb: commit aborted: %w", err)
		}
	}
	var pubStart time.Time
	var pubDur time.Duration
	tx.db.mu.Lock()
	if published > 0 {
		if !durable && len(tx.db.subs) > 0 {
			// Only subscribers read the batch: build it here, while the
			// catalog still holds the cloned versions. The read-only path
			// builds nothing and stays allocation-free.
			batch = tx.batchLocked()
		}
		tx.install()
		// Publish inside the same critical section that made the new
		// generation visible: subscribers see whole commits in generation
		// order, and a ReadTx pinning gen G is guaranteed every batch
		// with Gen <= G has already been pushed.
		batch.stamp(tx.db.gen)
		if traced {
			pubStart = time.Now()
		}
		tx.db.publishLocked(batch)
		if traced {
			pubDur = time.Since(pubStart)
		}
	}
	if published == 0 {
		tx.installIndexed()
	}
	gen := tx.db.gen
	tx.db.mu.Unlock()
	deltas := len(batch.Deltas)
	tx.end()
	obs.Default.Commits.Inc()
	obs.Default.CommitNs.Observe(time.Since(tx.start).Nanoseconds())
	if traced {
		// Spans are emitted outside the catalog lock; the publish window
		// itself was measured inside it.
		if published > 0 {
			commitOp.Span("reldb.delta.publish",
				fmt.Sprintf("gen=%d deltas=%d", gen, deltas), pubStart, pubDur)
		}
		commitOp.Finish(fmt.Sprintf("gen=%d relations=%d ops=%d", gen, published, tx.ops))
	}
	// Group commit: wait for the background syncer to make the log
	// durable through this commit's generation (SyncCommit mode). The
	// writer lock is already released, so the next transaction appends
	// while this one's fsync is in flight — one fsync acknowledges the
	// whole batch of commits appended before it started. On a sync
	// failure the commit is visible in memory but not provably durable;
	// the error says so.
	if durable {
		if err := tx.db.wal.waitDurable(walSeq); err != nil {
			return fmt.Errorf("reldb: commit gen %d published but not durable: %w", gen, err)
		}
	}
	return nil
}

// install advances the generation and swaps the written relations, and
// the only indexed ones (installIndexed), into the catalog, frozen: a
// published version never mutates a node in place again, and nothing
// about it — its edit token included — is written after this. Caller
// holds db.mu.
func (tx *Tx) install() {
	tx.db.gen++
	for name := range tx.written {
		r := tx.dirty[name]
		r.freeze()
		r.gen = tx.db.gen
		tx.db.relations[name] = r
	}
	tx.installIndexed()
}

// installIndexed swaps into the catalog, frozen, every clone the
// transaction wrote no tuple to but gave a new index (there is no
// DropIndex, so only a grown index set is a changed one). An index is derived
// state the WAL does not log, so the clone takes no generation and
// publishes no delta: it keeps the generation of the rows it shares with
// the version it replaces. Caller holds db.mu.
func (tx *Tx) installIndexed() {
	for name, r := range tx.dirty {
		if !tx.written[name] && len(r.indexes) > len(tx.db.relations[name].indexes) {
			r.freeze()
			tx.db.relations[name] = r
		}
	}
}

// end drops the working set and releases the writer lock.
func (tx *Tx) end() {
	tx.dirty, tx.written = nil, nil
	tx.db.writer.Unlock()
}

// Rollback discards the transaction's working set and releases the writer
// lock; the committed state was never touched. Rolling back a finished
// transaction is a no-op returning ErrTxDone.
func (tx *Tx) Rollback() error {
	if tx.done {
		obs.Default.TxDoneHits.Inc()
		return ErrTxDone
	}
	tx.done = true
	tx.end()
	obs.Default.Rollbacks.Inc()
	if tx.op.Active() {
		tx.op.Span("reldb.rollback", "", tx.start, time.Since(tx.start))
	}
	return nil
}

// RunInTx executes fn inside a transaction, committing if fn returns nil
// and rolling back otherwise. It returns fn's error. A panic inside fn
// rolls the transaction back (releasing the writer lock) and re-panics.
func (db *Database) RunInTx(fn func(*Tx) error) error {
	tx := db.Begin()
	defer func() {
		if !tx.done {
			_ = tx.Rollback()
		}
	}()
	if err := fn(tx); err != nil {
		_ = tx.Rollback()
		return err
	}
	return tx.Commit()
}
