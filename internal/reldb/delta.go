// The per-commit delta stream: every generation advance publishes an
// ordered record of the net tuple changes to registered subscribers.
// Subscribers are queue-buffered with drop-to-resync semantics — a slow
// consumer loses history and is told so, it never blocks the writer.
//
// A commit's batch is the diff of two versions (Diff): for every relation
// the transaction wrote, the committed version it cloned against the one
// it leaves behind. The path-copying trees already record what changed, so
// nothing is logged while the transaction runs, and the batch is built
// only when something reads it — the write-ahead log of a durable
// database, or a subscriber.
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
//     overflow drops history). A batch computed from two versions is
//     complete whenever it is built, so a subscriber that registers while
//     a write transaction is open receives that transaction's commit too.
//   - Within a batch, deltas are ordered by relation name and tuples by
//     encoded primary key, so equal states produce equal streams.
//
// A delta is net effect per primary key: an insert followed by a delete
// of the same key inside one transaction cancels out, an insert followed
// by replaces is one insert of the final image, a replace by an
// identical tuple is nothing, and a key-changing replace is a delete of
// the old key plus an insert of the new one.
package reldb

import (
	"sort"
	"sync"
)

// TupleChange is one same-key replacement: the stored image before and
// after the commit.
type TupleChange struct {
	Old, New Row
}

// Delta is the net change one commit applied to one relation.
type Delta struct {
	// Gen is the generation the commit produced.
	Gen uint64
	// Relation names the changed relation.
	Relation string
	// Structural marks relation-level DDL (CreateRelation/DropRelation):
	// the tuple slices are empty and consumers that cached instances
	// over the relation must re-derive them.
	Structural bool
	// Inserts, Deletes, Replaces carry the net tuple changes in encoded
	// primary-key order: the committed versions' stored rows.
	Inserts  []Row
	Deletes  []Row
	Replaces []TupleChange
}

// DeltaBatch is everything one generation advance changed: one Delta per
// touched relation, ordered by relation name. Deltas may be empty (a
// commit whose net effect cancelled out still advances the generation).
type DeltaBatch struct {
	Gen    uint64
	Deltas []Delta
}

// stamp sets the generation the batch publishes as, on it and its deltas.
func (b *DeltaBatch) stamp(gen uint64) {
	b.Gen = gen
	for i := range b.Deltas {
		b.Deltas[i].Gen = gen
	}
}

// Diff returns the net change from one version of a relation to another:
// rows only old holds as Deletes, rows only new holds as Inserts, and rows
// both hold under one key with different bytes as Replaces (any value not
// Identical: Int(1) for Float(1), 0 for -0 and a number for a NaN all
// count), each in encoded primary-key order. It descends the two row
// trees together and never enters a subtree both versions share by
// pointer, so it costs what the versions do not share — about one
// root-to-leaf path per side for a one-row commit, splits and merges
// included — not what they hold. If new is not a later version of old
// (the relation was dropped and created again in between) the delta is
// Structural and carries no tuples. The images are the versions' stored
// rows; Gen is left zero.
func Diff(old, new *Relation) Delta {
	d, _ := diff(old, new)
	return d
}

// diff is Diff that also counts the tree nodes it read.
func diff(old, new *Relation) (d Delta, read int) {
	d.Relation = new.Name()
	if old.origin != new.origin {
		d.Structural = true
		return d, 0
	}
	la, lb, read := unsharedLeaves(&old.rows, &new.rows)
	ka, va := entries(la)
	kb, vb := entries(lb)
	for i, j := 0, 0; i < len(ka) || j < len(kb); {
		switch {
		case j == len(kb) || i < len(ka) && ka[i] < kb[j]:
			d.Deletes = append(d.Deletes, va[i])
			i++
		case i == len(ka) || kb[j] < ka[i]:
			d.Inserts = append(d.Inserts, vb[j])
			j++
		default:
			if !va[i].Same(vb[j]) {
				d.Replaces = append(d.Replaces, TupleChange{Old: va[i], New: vb[j]})
			}
			i, j = i+1, j+1
		}
	}
	return d, read
}

// batchLocked is the transaction's commit batch: for every relation it
// wrote, in name order, the diff from the committed version it cloned to
// the version it leaves; relations whose net change is empty are left
// out. The caller stamps Gen. It holds db.mu (either
// side); the writer lock it also holds keeps the cloned versions in the
// catalog.
func (tx *Tx) batchLocked() DeltaBatch {
	names := make([]string, 0, len(tx.written))
	for n := range tx.written {
		names = append(names, n)
	}
	sort.Strings(names)
	var b DeltaBatch
	for _, name := range names {
		d := Diff(tx.db.relations[name], tx.dirty[name])
		if len(d.Inserts)+len(d.Deletes)+len(d.Replaces) > 0 {
			b.Deltas = append(b.Deltas, d)
		}
	}
	return b
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
// StartGen+1, StartGen+2, ... in order — including the commit of a write
// transaction that was already open at registration.
func (db *Database) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultDeltaBuffer
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	s := &Subscription{db: db, cap: buffer, startGen: db.gen}
	db.subs = append(db.subs, s)
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
		return
	}
	s.queue = append(s.queue, b)
}

// publishLocked pushes a batch to every subscription. The caller holds
// db.mu exclusively, in the same critical section that advanced db.gen —
// that pairing is what makes the stream gap-free and untearable.
func (db *Database) publishLocked(b DeltaBatch) {
	for _, s := range db.subs {
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
