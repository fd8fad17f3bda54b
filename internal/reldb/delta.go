// The per-commit delta stream: every generation advance publishes an
// ordered record of the net tuple changes to registered subscribers.
// Subscribers are queue-buffered with drop-to-resync semantics — a slow
// consumer loses history and is told so, it never blocks the writer.
//
// Ordering and atomicity guarantees:
//
//   - One DeltaBatch per generation advance, published inside the same
//     critical section (db.mu) that makes the generation visible. A
//     ReadTx that pins generation G is therefore guaranteed that every
//     batch with Gen <= G has already been pushed to every subscription
//     that existed when G committed.
//   - Subscribe registers under the same lock, pinning StartGen to a
//     generation boundary: a subscriber sees a commit entirely or not at
//     all, never a torn prefix, and the batches it receives are exactly
//     the consecutive generations StartGen+1, StartGen+2, ... (until an
//     overflow drops history). Registration during an in-flight write
//     transaction pins StartGen past its commit — ops capture no
//     changelog while nobody subscribes, so that commit's batch may be
//     partial and is withheld rather than delivered torn.
//   - Within a batch, deltas are ordered by relation name and tuples by
//     encoded primary key, so equal states produce equal streams.
//
// The changelog is net-effect per primary key: an insert followed by a
// delete of the same key inside one transaction cancels out, an insert
// followed by replaces collapses into one insert of the final image, and
// a key-changing replace appears as a delete of the old key plus an
// insert of the new one.
package reldb

import (
	"sort"
	"sync"

	"penguin/internal/obs"
)

// TupleChange is one same-key replacement: the stored image before and
// after the commit.
type TupleChange struct {
	Old, New Tuple
}

// Delta is the net change one commit applied to one relation.
type Delta struct {
	// Gen is the generation the commit produced.
	Gen uint64
	// Relation names the changed relation.
	Relation string
	// Structural marks relation-level DDL (CreateRelation/DropRelation):
	// the tuple slices are empty and consumers that cached plans or
	// instances over the relation must re-derive them.
	Structural bool
	// Inserts, Deletes, Replaces carry the net tuple changes in encoded
	// primary-key order. Stored images are shared with the committed
	// relation versions and must not be mutated.
	Inserts  []Tuple
	Deletes  []Tuple
	Replaces []TupleChange
}

// DeltaBatch is everything one generation advance changed: one Delta per
// touched relation, ordered by relation name. Deltas may be empty (a
// commit whose net effect cancelled out still advances the generation).
type DeltaBatch struct {
	Gen    uint64
	Deltas []Delta
}

// DefaultDeltaBuffer is the subscription queue capacity used when
// Subscribe is called with a non-positive buffer size.
const DefaultDeltaBuffer = 256

// Subscription is one registered consumer of the delta stream. Poll
// drains the queued batches; when the writer outran the consumer the
// queue is dropped wholesale and the next Poll reports lost=true, telling
// the consumer to resynchronize from a fresh snapshot.
type Subscription struct {
	db       *Database
	startGen uint64

	mu     sync.Mutex
	queue  []DeltaBatch
	cap    int
	lost   bool
	closed bool
}

// Subscribe registers a delta consumer with the given queue capacity
// (DefaultDeltaBuffer when buffer <= 0). Registration is pinned to a
// generation boundary: it cannot interleave with a commit's publish, so
// the subscription's StartGen is a state the consumer can load with a
// ReadTx, after which the stream delivers exactly the generations
// StartGen+1, StartGen+2, ... in order. Registering while a write
// transaction is in flight pins StartGen past that transaction's commit:
// its changelog may predate the subscription (ops skip capture while
// nobody subscribes), so its batch is withheld and the stream starts at
// the next commit. A consumer whose loaded snapshot is older than
// StartGen must resynchronize once the generation moves.
func (db *Database) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultDeltaBuffer
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	startGen := db.gen
	if db.writing {
		startGen++
	}
	s := &Subscription{db: db, cap: buffer, startGen: startGen}
	db.subs = append(db.subs, s)
	db.nsubs.Add(1)
	return s
}

// StartGen returns the committed generation the subscription was pinned
// at: the first batch delivered (absent overflow) has Gen StartGen+1.
func (s *Subscription) StartGen() uint64 { return s.startGen }

// Poll drains and returns the queued batches, in publish order. lost
// reports that the queue overflowed since the previous Poll: batches were
// dropped and the consumer must resync from a fresh snapshot (the batches
// returned alongside lost=true are the post-overflow suffix). Polling
// clears the lost flag.
func (s *Subscription) Poll() (batches []DeltaBatch, lost bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	batches, s.queue = s.queue, nil
	lost, s.lost = s.lost, false
	return batches, lost
}

// Close unregisters the subscription; further publishes are not queued.
// Closing is idempotent.
func (s *Subscription) Close() {
	s.db.mu.Lock()
	for i, x := range s.db.subs {
		if x == s {
			s.db.subs = append(s.db.subs[:i], s.db.subs[i+1:]...)
			s.db.nsubs.Add(-1)
			break
		}
	}
	s.db.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.queue = nil
	s.mu.Unlock()
}

// push enqueues a batch, dropping the whole queue to resync when full.
// Called with db.mu held, so pushes are ordered by generation.
func (s *Subscription) push(b DeltaBatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.queue) >= s.cap {
		s.queue = s.queue[:0]
		s.lost = true
		obs.Default.DeltaOverflows.Inc()
		return
	}
	s.queue = append(s.queue, b)
}

// publishLocked pushes a batch to every subscription registered before
// the batch's generation. The caller holds db.mu exclusively, in the same
// critical section that advanced db.gen — that pairing is what makes the
// stream gap-free and untearable. Subscriptions whose StartGen is at or
// past the batch (registered mid-transaction, so the changelog may be
// missing ops that ran before anyone subscribed) are skipped: they are
// promised exactly the generations after StartGen, never a torn batch.
func (db *Database) publishLocked(b DeltaBatch) {
	if len(db.subs) == 0 {
		return
	}
	obs.Default.DeltaPublishes.Inc()
	for _, s := range db.subs {
		if b.Gen <= s.startGen {
			continue
		}
		s.push(b)
	}
}

// structuralBatchLocked publishes a relation-level DDL event for the
// generation just advanced. Called with db.mu held.
func (db *Database) structuralBatchLocked(relName string) {
	if len(db.subs) == 0 {
		return
	}
	db.publishLocked(DeltaBatch{
		Gen:    db.gen,
		Deltas: []Delta{{Gen: db.gen, Relation: relName, Structural: true}},
	})
}

// txChange is the per-key changelog entry a transaction accumulates:
// the stored image before the transaction first touched the key and the
// image it left behind (nil on either side for absent).
type txChange struct {
	before, after Tuple
}

// capturing reports whether write ops must feed the changelog: some
// delta subscriber is registered, or the database is durable and every
// commit's net effect must reach the write-ahead log. With neither, the
// hot path skips capture entirely — key encoding, cloning, and the
// changelog maps all cost nothing. A subscriber that registers after an
// op skipped capture cannot be torn by the gap: Subscribe pins its
// StartGen past the in-flight commit, whose batch is then withheld from
// it (publishLocked).
func (tx *Tx) capturing() bool { return tx.db.nsubs.Load() > 0 || tx.db.wal != nil }

// note records that a transaction op left the stored image of (relName,
// ek) as after. The before image is captured only on the first touch of
// the key — later ops only move the after side, so the entry always spans
// from the committed state to the transaction's final state. The before
// image is cloned: Delete hands the stored tuple to its caller and
// Replace leaves the changelog as its only holder, so the entry must own
// a private copy.
func (tx *Tx) note(relName, ek string, before, after Tuple) {
	if tx.changes == nil {
		tx.changes = make(map[string]map[string]*txChange)
	}
	m := tx.changes[relName]
	if m == nil {
		m = make(map[string]*txChange)
		tx.changes[relName] = m
	}
	if e, ok := m[ek]; ok {
		e.after = after
		return
	}
	if before != nil {
		before = before.Clone()
	}
	m[ek] = &txChange{before: before, after: after}
}

// buildBatch classifies the transaction's changelog into the net-effect
// DeltaBatch to publish. Gen fields are stamped at publish time, when the
// new generation number is known.
func (tx *Tx) buildBatch() DeltaBatch {
	names := make([]string, 0, len(tx.written))
	for n := range tx.written {
		names = append(names, n)
	}
	sort.Strings(names)
	var b DeltaBatch
	for _, name := range names {
		m := tx.changes[name]
		eks := make([]string, 0, len(m))
		for ek := range m {
			eks = append(eks, ek)
		}
		sort.Strings(eks)
		d := Delta{Relation: name}
		for _, ek := range eks {
			e := m[ek]
			switch {
			case e.before == nil && e.after != nil:
				d.Inserts = append(d.Inserts, e.after)
			case e.before != nil && e.after == nil:
				d.Deletes = append(d.Deletes, e.before)
			case e.before != nil && e.after != nil && !e.before.Equal(e.after):
				d.Replaces = append(d.Replaces, TupleChange{Old: e.before, New: e.after})
			}
		}
		if len(d.Inserts)+len(d.Deletes)+len(d.Replaces) > 0 {
			b.Deltas = append(b.Deltas, d)
		}
	}
	return b
}
