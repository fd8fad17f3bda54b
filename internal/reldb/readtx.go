package reldb

import (
	"fmt"
	"sort"

	"penguin/internal/obs"
)

// ReadTx is a snapshot-isolated read transaction: BeginRead pins the
// current committed version of every relation (a map of pointers — cheap,
// no data is copied) and all reads through the ReadTx observe exactly that
// database state, however long the transaction lives and however many
// write transactions commit in the meantime.
//
// Under the copy-on-write discipline the pinned versions are immutable,
// so a ReadTx holds no lock after BeginRead returns: long-running
// instantiations never block writers, and writers never block readers.
//
// ReadTx satisfies structural.Resolver, so it can be handed directly to
// viewobject.Instantiate, oql.Query, structural.ConnectedVia, and every
// other read path that resolves relations by name.
type ReadTx struct {
	db   *Database
	rels map[string]*Relation
	gen  uint64
	done bool
}

// BeginRead starts a read transaction pinning the current committed
// state. It blocks only for the duration of a commit's pointer swap.
func (db *Database) BeginRead() *ReadTx {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rels := make(map[string]*Relation, len(db.relations))
	for n, r := range db.relations {
		rels[n] = r
	}
	obs.Default.ReadTxBegins.Inc()
	return &ReadTx{db: db, rels: rels, gen: db.gen}
}

// Relation returns the pinned version of the named relation.
func (rtx *ReadTx) Relation(name string) (*Relation, error) {
	if rtx.done {
		obs.Default.TxDoneHits.Inc()
		return nil, ErrTxDone
	}
	r, ok := rtx.rels[name]
	if !ok {
		return nil, fmt.Errorf("reldb: relation %s: %w", name, ErrNoSuchRelation)
	}
	return r, nil
}

// MustRelation is Relation that panics on error.
func (rtx *ReadTx) MustRelation(name string) *Relation {
	r, err := rtx.Relation(name)
	if err != nil {
		panic(err)
	}
	return r
}

// Names returns the snapshot's relation names, sorted.
func (rtx *ReadTx) Names() []string {
	names := make([]string, 0, len(rtx.rels))
	for n := range rtx.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Generation returns the commit generation the snapshot pinned.
func (rtx *ReadTx) Generation() uint64 { return rtx.gen }

// Lag returns how many commits the database has advanced past the
// snapshot — the ReadTx's age in generations. Workloads can poll it to
// catch long-lived readers before they pin excessive history.
func (rtx *ReadTx) Lag() uint64 { return rtx.db.Generation() - rtx.gen }

// Fork materializes the snapshot as a private Database sharing the pinned
// relation versions. Write transactions on the fork copy-on-write before
// mutating, so the fork can be updated freely — what-if translation
// planning runs against it without ever taking the live database's writer
// lock. Mutate the fork only through transactions.
//
// Forking observes the snapshot's generation lag like Close does: a
// leaked or long-lived reader that keeps forking — the exact pathology
// the stale-ReadTx alert exists for — is reported per Fork into
// reldb.readtx.stale_forks instead of only once at Close.
func (rtx *ReadTx) Fork() *Database {
	lag := int64(rtx.Lag())
	obs.Default.ReadTxLag.Observe(lag)
	if th := obs.Default.ReadTxLagAlert(); th > 0 && lag >= th {
		obs.Default.StaleForks.Inc()
	}
	c := NewDatabase()
	c.gen = rtx.gen
	for n, r := range rtx.rels {
		c.relations[n] = r
	}
	return c
}

// Close ends the read transaction; further access fails with ErrTxDone.
// Closing is idempotent and never blocks (no lock is held beyond the
// momentary generation read). The first Close records how many commits
// the snapshot fell behind (its staleness) into the ReadTxLag histogram;
// when that lag reaches the registry's alert threshold
// (obs.SetReadTxLagAlert, default obs.DefaultReadTxLagAlert) the close
// additionally counts into reldb.readtx.stale_closes, surfacing
// long-lived forks that pin memory. Exactly one alert fires per stale
// ReadTx, however many times Close is called.
func (rtx *ReadTx) Close() {
	if !rtx.done {
		lag := int64(rtx.db.Generation() - rtx.gen)
		obs.Default.ReadTxLag.Observe(lag)
		if th := obs.Default.ReadTxLagAlert(); th > 0 && lag >= th {
			obs.Default.StaleCloses.Inc()
		}
	}
	rtx.done = true
	rtx.rels = nil
}
