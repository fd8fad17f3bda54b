package penguin

import (
	"penguin/internal/reldb/shard"
)

// The serving backend (internal/reldb/shard): the database as N >= 1
// independent shards partitioned by pivot-key hash, with view-object
// updates routed through a coordinator. One shard is a plain database:
// every translation commits locally. Over several, island-local updates
// commit on the home shard's fast path; updates touching replicated
// relations run the cross-shard two-phase protocol, with in-doubt
// transactions resolved at open. Sharding decides where rows are
// stored, not what the object is: the caller creates the relations on
// every shard, then registers each view object once (AddObject with one
// Translator), and that one definition reads, decodes and translates on
// every shard.
type (
	// ShardCluster is a set of shard databases plus the view objects
	// registered over them, one translator each; reads fan out and
	// merge, updates route by pivot key.
	ShardCluster = shard.Cluster
)

// Sharding entry points.
var (
	// NewShardCluster assembles a cluster over pre-opened in-memory
	// shard databases (the caller partitions island relations and
	// replicates the rest when loading).
	NewShardCluster = shard.New
	// OpenShardCluster opens (or creates) an N-shard durable cluster
	// under a data directory — one WAL directory per shard (shard-<i>),
	// staggered checkpoints, and cluster-wide in-doubt resolution after
	// replay. A directory holding a single database's own files is
	// refused with ErrDatabaseLayout.
	OpenShardCluster = shard.Open
)

// ErrCrossShardMove reports a replacement that changes an instance's
// pivot key onto a different shard; the coordinator refuses to migrate
// islands, so callers delete and re-insert instead.
var ErrCrossShardMove = shard.ErrCrossShardMove

// ErrDatabaseLayout reports that OpenShardCluster was pointed at a
// directory written by OpenDatabase; its rows are not migrated.
var ErrDatabaseLayout = shard.ErrDatabaseLayout
