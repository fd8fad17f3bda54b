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
	o, err := c.object(objName)
	if err != nil {
		return nil, false, err
	}
	home, err := o.home(key, len(c.dbs))
	if err != nil {
		return nil, false, err
	}
	rtx := c.dbs[home].BeginRead()
	defer rtx.Close()
	return viewobject.InstantiateByKey(rtx, o.trs[home].Definition(), key)
}

// Instantiate runs the query on every shard — each against its own
// consistent snapshot — and merges the per-shard results into a single
// pivot-key-ordered list. Island partitioning makes the shard result
// sets disjoint: every instance appears exactly once, on its pivot's
// home shard.
func (c *Cluster) Instantiate(objName string, q viewobject.Query) ([]*viewobject.Instance, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, err
	}
	type chunk struct {
		insts []*viewobject.Instance
		err   error
	}
	chunks := make([]chunk, len(c.dbs))
	done := make(chan int, len(c.dbs))
	for i := range c.dbs {
		go func(i int) {
			rtx := c.dbs[i].BeginRead()
			defer rtx.Close()
			insts, err := viewobject.Instantiate(rtx, o.trs[i].Definition(), q)
			chunks[i] = chunk{insts: insts, err: err}
			done <- i
		}(i)
	}
	for range c.dbs {
		<-done
	}
	total := 0
	for i := range chunks {
		if chunks[i].err != nil {
			return nil, chunks[i].err
		}
		total += len(chunks[i].insts)
	}
	if len(chunks) == 1 {
		return chunks[0].insts, nil // one shard: already in pivot-key order
	}
	// Per-shard results are already pivot-key ordered; a stable sort on
	// the encoded key, computed once per instance, merges them
	// deterministically.
	type keyed struct {
		key  string
		inst *viewobject.Instance
	}
	merged := make([]keyed, 0, total)
	for i := range chunks {
		for _, inst := range chunks[i].insts {
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

// rehome rebuilds an instance against another shard's copy of the
// definition (identical shape, distinct pointers — vupdate's instance
// check compares definitions by identity).
func rehome(def *viewobject.Definition, inst *viewobject.Instance) (*viewobject.Instance, error) {
	if inst.Definition() == def {
		return inst, nil
	}
	out, err := viewobject.NewInstance(def, inst.Root().Tuple())
	if err != nil {
		return nil, err
	}
	var walk func(node *viewobject.Node, src, dst *viewobject.InstNode) error
	walk = func(node *viewobject.Node, src, dst *viewobject.InstNode) error {
		for _, child := range node.Children {
			for _, sc := range src.Children(child.ID) {
				dc, err := dst.AddChild(def, child.ID, sc.Tuple())
				if err != nil {
					return err
				}
				if err := walk(child, sc, dc); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(def.Root(), inst.Root(), out.Root()); err != nil {
		return nil, err
	}
	return out, nil
}
