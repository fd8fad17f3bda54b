package reldb

import "errors"

// Sentinel errors returned by the storage layer. Callers use errors.Is to
// branch on them; messages wrap them with relation and key context.
var (
	// ErrDuplicateKey reports an insert whose primary key already exists.
	ErrDuplicateKey = errors.New("duplicate primary key")
	// ErrNoSuchTuple reports a delete/replace of a missing tuple.
	ErrNoSuchTuple = errors.New("no tuple with this key")
	// ErrNoSuchRelation reports access to an undefined relation.
	ErrNoSuchRelation = errors.New("no such relation")
	// ErrRelationExists reports creation of an already-defined relation.
	ErrRelationExists = errors.New("relation already exists")
	// ErrKeyDomain reports a key or indexed value the key codec cannot
	// encode exactly (keyEncodable): storing it would alias a neighbour.
	ErrKeyDomain = errors.New("value outside the key codec's exact domain (|int| <= 2^53, no NaN)")
	// ErrTxDone reports use of a committed or rolled-back transaction.
	ErrTxDone = errors.New("transaction already finished")
	// ErrSnapshotCorrupt reports a snapshot file whose CRC trailer does
	// not match its contents, or whose structure cannot be decoded: the
	// bytes on disk are not what WriteSnapshot produced.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")
	// ErrWALCorrupt reports a write-ahead log whose records fail their
	// checksum away from the tail, or whose generations are not
	// contiguous: recovery refuses to load a state it cannot prove is a
	// committed prefix.
	ErrWALCorrupt = errors.New("write-ahead log corrupt")
	// ErrDatabaseClosed reports an operation on a closed durable database.
	ErrDatabaseClosed = errors.New("database closed")
	// ErrNotDurable reports a durability operation (checkpoint, sync) on
	// a database that was not opened from a data directory.
	ErrNotDurable = errors.New("database has no write-ahead log")
)
