package reldb

import (
	"fmt"
	"sort"
	"sync"
)

// Database is a catalog of named relations with copy-on-write concurrency:
//
//   - Committed *Relation values are immutable. A write transaction (Tx)
//     mutates private clones of the relations it touches — versions that
//     share the committed trees and copy only the paths they write — and
//     publishes them by pointer swap at commit, under the catalog lock.
//   - mu guards only the relations map and the generation counter; every
//     critical section is short (pointer copies), so neither readers nor
//     writers are ever blocked for the duration of a transaction.
//   - writer serializes write transactions (the single-writer discipline
//     the update-translation algorithms assume). Readers never take it.
//   - gen increments on every commit; a ReadTx records the generation it
//     pinned, and each published Relation records the generation that
//     produced it.
//
// Read paths acquire a ReadTx (BeginRead) for a consistent snapshot across
// relations. Resolving a single relation with Relation() and reading it is
// also race-free — the returned value is an immutable committed version —
// but two such resolutions may observe different commits.
//
// Setup-phase exception: fixtures may mutate relations in place (direct
// Insert / CreateIndex on a resolved *Relation) before any concurrent
// access starts. Once readers or writers run concurrently, all writes must
// go through transactions.
type Database struct {
	mu        sync.RWMutex
	writer    sync.Mutex
	relations map[string]*Relation
	gen       uint64
	// subs are the registered delta-stream consumers (see delta.go).
	// Guarded by mu: registration and publish share the critical section
	// that advances gen, which pins both to generation boundaries.
	subs []*Subscription

	// wal, set once by OpenDatabase before the database is shared, makes
	// every generation advance durable before it becomes visible. nil
	// for in-memory databases; read without locks (immutable after open).
	wal     *wal
	dataDir string
	// pendingX holds two-shard commit prepares whose decision has not
	// been seen: populated by WAL replay, consumed by the sharded open's
	// in-doubt resolution (ResolveInDoubt) or by a live PreparedTx.
	// decidedX remembers commit decisions replayed from the log so a
	// sibling shard's in-doubt prepare can be resolved against them.
	// Both guarded by mu.
	pendingX map[string]*pendingCross
	decidedX map[string]bool
	// ckptMu serializes checkpoints (manual and background); ckptStop /
	// ckptDone manage the background checkpointer goroutine.
	ckptMu    sync.Mutex
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{relations: make(map[string]*Relation)}
}

// CreateRelation defines a new relation from the schema. DDL takes the
// writer lock: it cannot run while a write transaction is open. On a
// durable database the definition is logged (write-ahead) before it is
// published, like any other generation advance.
func (db *Database) CreateRelation(schema *Schema) (*Relation, error) {
	db.writer.Lock()
	defer db.writer.Unlock()
	var walSeq uint64
	if db.wal != nil {
		db.mu.RLock()
		_, dup := db.relations[schema.Name()]
		walGen := db.gen + 1
		db.mu.RUnlock()
		if dup {
			return nil, fmt.Errorf("reldb: create %s: %w", schema.Name(), ErrRelationExists)
		}
		var err error
		if walSeq, err = db.wal.append(walGen, encodeCreateRecord(walGen, schema)); err != nil {
			return nil, err
		}
	}
	db.mu.Lock()
	if _, dup := db.relations[schema.Name()]; dup {
		db.mu.Unlock()
		return nil, fmt.Errorf("reldb: create %s: %w", schema.Name(), ErrRelationExists)
	}
	db.gen++
	r := NewRelation(schema)
	r.gen = db.gen
	db.relations[schema.Name()] = r
	db.structuralBatchLocked(schema.Name())
	db.mu.Unlock()
	if db.wal != nil {
		if err := db.wal.waitDurable(walSeq); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// MustCreateRelation is CreateRelation that panics on error (fixtures).
func (db *Database) MustCreateRelation(schema *Schema) *Relation {
	r, err := db.CreateRelation(schema)
	if err != nil {
		panic(err)
	}
	return r
}

// DropRelation removes a relation and its data. Like all DDL it takes the
// writer lock, and on a durable database it is logged before it is
// published.
func (db *Database) DropRelation(name string) error {
	db.writer.Lock()
	defer db.writer.Unlock()
	var walSeq uint64
	if db.wal != nil {
		db.mu.RLock()
		_, ok := db.relations[name]
		walGen := db.gen + 1
		db.mu.RUnlock()
		if !ok {
			return fmt.Errorf("reldb: drop %s: %w", name, ErrNoSuchRelation)
		}
		var err error
		if walSeq, err = db.wal.append(walGen, encodeDropRecord(walGen, name)); err != nil {
			return err
		}
	}
	db.mu.Lock()
	if _, ok := db.relations[name]; !ok {
		db.mu.Unlock()
		return fmt.Errorf("reldb: drop %s: %w", name, ErrNoSuchRelation)
	}
	delete(db.relations, name)
	db.gen++
	db.structuralBatchLocked(name)
	db.mu.Unlock()
	if db.wal != nil {
		return db.wal.waitDurable(walSeq)
	}
	return nil
}

// Relation returns the current committed version of the named relation.
// The returned value is immutable under the copy-on-write discipline; for
// reads that must be consistent across relations, use BeginRead.
func (db *Database) Relation(name string) (*Relation, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r, ok := db.relations[name]
	if !ok {
		return nil, fmt.Errorf("reldb: relation %s: %w", name, ErrNoSuchRelation)
	}
	return r, nil
}

// MustRelation returns the named relation, panicking if absent (fixtures).
func (db *Database) MustRelation(name string) *Relation {
	r, err := db.Relation(name)
	if err != nil {
		panic(err)
	}
	return r
}

// HasRelation reports whether the named relation exists.
func (db *Database) HasRelation(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.relations[name]
	return ok
}

// Names returns the defined relation names, sorted.
func (db *Database) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.relations))
	for n := range db.relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Generation returns the commit generation: it increments every time a
// write transaction commits (or a relation is dropped).
func (db *Database) Generation() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gen
}

// TotalRows returns the number of tuples across all relations.
func (db *Database) TotalRows() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := 0
	for _, r := range db.relations {
		total += r.Count()
	}
	return total
}
