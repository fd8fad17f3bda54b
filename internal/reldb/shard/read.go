package shard

import (
	"sort"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// InstantiateByKey assembles the instance with the given object key by
// reading only its home shard (island rows live there; replicated rows
// are everywhere, so the home snapshot has the whole instance).
func (c *Cluster) InstantiateByKey(objName string, key reldb.Tuple) (*viewobject.Instance, bool, error) {
	o, home, err := c.route(objName, key)
	if err != nil {
		return nil, false, err
	}
	rtx := c.dbs[home].BeginRead()
	defer rtx.Close()
	return viewobject.InstantiateByKey(rtx, o.tr.Definition(), key)
}

// Instantiate runs the query on every shard and merges the per-shard
// results into a single pivot-key-ordered list. The shard snapshots are
// opened under the cluster's read cut, so together they are one state
// of the cluster: no cross-shard commit is seen on one shard and not on
// another. Island partitioning makes the shard result sets disjoint:
// every instance appears exactly once, on its pivot's home shard.
func (c *Cluster) Instantiate(objName string, q viewobject.Query) ([]*viewobject.Instance, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, err
	}
	def := o.tr.Definition()
	rtxs := make([]*reldb.ReadTx, len(c.dbs))
	c.cut.RLock()
	for i, db := range c.dbs {
		rtxs[i] = db.BeginRead()
	}
	c.cut.RUnlock()
	defer func() {
		for _, rtx := range rtxs {
			rtx.Close()
		}
	}()
	if len(rtxs) == 1 {
		return viewobject.Instantiate(rtxs[0], def, q) // already in pivot-key order
	}
	// Per-shard results are already pivot-key ordered; a stable sort on
	// the encoded key, computed once per instance, merges them
	// deterministically.
	type keyed struct {
		key  string
		inst *viewobject.Instance
	}
	var merged []keyed
	for _, rtx := range rtxs {
		insts, err := viewobject.Instantiate(rtx, def, q)
		if err != nil {
			return nil, err
		}
		for _, inst := range insts {
			merged = append(merged, keyed{key: inst.EncodedKey(), inst: inst})
		}
	}
	sort.SliceStable(merged, func(a, b int) bool { return merged[a].key < merged[b].key })
	out := make([]*viewobject.Instance, len(merged))
	for i := range merged {
		out[i] = merged[i].inst
	}
	return out, nil
}
