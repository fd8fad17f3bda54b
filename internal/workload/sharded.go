// Sharded workload build: the synthetic ownership tree distributed over
// a shard.Cluster. The schema (relations and edge indexes) is built on
// every shard and the object registered once, with shard 0's
// definition; island rows are seeded on their pivot's home shard only,
// peninsula rows are replicated everywhere — the placement invariant the
// coordinator's fast path depends on.
package workload

import (
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/vupdate"
)

// ShardedObject is the name the tree view object registers under.
const ShardedObject = "tree"

// ShardedWorkload is a generated sharded database: the cluster, the
// spec, and each shard's local graph/definition (identical shapes).
// Shards[0].Def is the one the cluster registered: instances bound for
// the cluster are built over it.
type ShardedWorkload struct {
	C      *shard.Cluster
	Spec   TreeSpec
	Shards []*Workload
}

// NewShardedTree builds the workload over n fresh in-memory shards.
func NewShardedTree(spec TreeSpec, n int) (*ShardedWorkload, error) {
	dbs := make([]*reldb.Database, n)
	for i := range dbs {
		dbs[i] = reldb.NewDatabase()
	}
	c, err := shard.New(dbs)
	if err != nil {
		return nil, err
	}
	return buildSharded(c, spec, true)
}

// OpenShardedTree opens (or creates) a durable sharded workload under
// dir. create builds schema and seed data, and fails — closing the
// shards — if dir already holds the tree; with create false the tree is
// re-attached to whatever the shards recovered. The crash matrix drives
// both modes.
func OpenShardedTree(dir string, n int, spec TreeSpec, opts reldb.OpenOptions, create bool) (*ShardedWorkload, error) {
	c, err := shard.Open(dir, n, opts)
	if err != nil {
		return nil, err
	}
	sw, err := buildSharded(c, spec, create)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return sw, nil
}

func buildSharded(c *shard.Cluster, spec TreeSpec, create bool) (*ShardedWorkload, error) {
	sw := &ShardedWorkload{C: c, Spec: spec, Shards: make([]*Workload, c.N())}
	for i := range sw.Shards {
		w, err := buildTree(c.DB(i), spec, create)
		if err != nil {
			return nil, fmt.Errorf("workload: shard %d: %w", i, err)
		}
		sw.Shards[i] = w
	}
	if err := c.AddObject(ShardedObject, vupdate.PermissiveTranslator(sw.Shards[0].Def)); err != nil {
		return nil, err
	}
	if create {
		if err := sw.seed(); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// seed partitions the generated rows: island rows go to the pivot
// root's home shard, peninsula rows to every shard. One transaction per
// shard (setup phase; concurrent traffic starts after).
func (sw *ShardedWorkload) seed() error {
	txs := make([]*reldb.Tx, sw.C.N())
	for i := range txs {
		txs[i] = sw.C.DB(i).Begin()
	}
	err := forEachSeedRow(sw.Shards[0].Def, sw.Spec, func(root int64, rel string, island bool, t reldb.Tuple) error {
		if island {
			home, err := sw.C.HomeOf(ShardedObject, reldb.Tuple{reldb.Int(root)})
			if err != nil {
				return err
			}
			return txs[home].Insert(rel, t)
		}
		for _, tx := range txs {
			if err := tx.Insert(rel, t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		for _, tx := range txs {
			_ = tx.Rollback()
		}
		return err
	}
	for i, tx := range txs {
		if err := tx.Commit(); err != nil {
			for _, rest := range txs[i+1:] {
				_ = rest.Rollback()
			}
			return fmt.Errorf("workload: seed shard %d: %w", i, err)
		}
	}
	return nil
}

// Close closes the cluster.
func (sw *ShardedWorkload) Close() error { return sw.C.Close() }
