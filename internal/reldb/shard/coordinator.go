package shard

import (
	"errors"
	"fmt"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// errNeedsGlobal is the internal signal from the optimistic fast path's
// Finish hook: the translation touched a replicated relation, so the
// update must retry under the cross-shard protocol.
var errNeedsGlobal = errors.New("shard: translation left the island")

// DeleteByKey routes a complete deletion (VO-CD) to the pivot key's
// home shard.
func (c *Cluster) DeleteByKey(objName string, key reldb.Tuple) (*vupdate.Result, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, err
	}
	home, err := o.home(key, len(c.dbs))
	if err != nil {
		return nil, err
	}
	return c.update(o, home, func(u *vupdate.Updater) (*vupdate.Result, error) {
		return u.DeleteByKey(key)
	})
}

// InsertInstance routes a complete insertion (VO-CI) to the instance's
// home shard. The instance may have been built against any shard's copy
// of the definition; it is re-homed before translation.
func (c *Cluster) InsertInstance(objName string, inst *viewobject.Instance) (*vupdate.Result, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, err
	}
	home, err := o.home(inst.Key(), len(c.dbs))
	if err != nil {
		return nil, err
	}
	homed, err := rehome(o.trs[home].Definition(), inst)
	if err != nil {
		return nil, err
	}
	return c.update(o, home, func(u *vupdate.Updater) (*vupdate.Result, error) {
		return u.InsertInstance(homed)
	})
}

// ReplaceByKey routes a replacement (VO-R) of the instance whose pivot
// key is key to that key's home shard, where the old side is assembled
// inside the update's write transaction (vupdate.Updater.ReplaceByKey).
// A replacement that would change the pivot key's shard (route(new) !=
// route(key)) is rejected: the island would have to migrate between
// shards, which the translation algorithms do not express — delete and
// re-insert instead.
func (c *Cluster) ReplaceByKey(objName string, key reldb.Tuple, newInst *viewobject.Instance) (*vupdate.Result, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, err
	}
	home, err := o.home(key, len(c.dbs))
	if err != nil {
		return nil, err
	}
	newHome, err := o.home(newInst.Key(), len(c.dbs))
	if err != nil {
		return nil, err
	}
	if newHome != home {
		return nil, fmt.Errorf("shard: %s: replacement moves pivot key %s from shard %d to %d: %w",
			objName, newInst.Key(), home, newHome, ErrCrossShardMove)
	}
	newHomed, err := rehome(o.trs[home].Definition(), newInst)
	if err != nil {
		return nil, err
	}
	return c.update(o, home, func(u *vupdate.Updater) (*vupdate.Result, error) {
		return u.ReplaceByKey(key, newHomed)
	})
}

// ReplaceInstance replaces the instance oldInst names, by its key: it is
// ReplaceByKey(objName, oldInst.Key(), newInst), so the old side is the
// instance's state inside the write transaction, not oldInst itself.
func (c *Cluster) ReplaceInstance(objName string, oldInst, newInst *viewobject.Instance) (*vupdate.Result, error) {
	return c.ReplaceByKey(objName, oldInst.Key(), newInst)
}

// ErrCrossShardMove rejects replacements that re-route the pivot key.
var ErrCrossShardMove = errors.New("pivot key would change home shard")

// update runs one view-object update through the coordinator: an
// optimistic home-shard-only attempt first, then — if the translation
// emitted operations on replicated relations — a global retry under
// every shard's writer lock with a two-phase commit. A 1-shard cluster
// has no replicas, so whatever its one translation emitted is the whole
// update and commits as is: the cluster costs what the database does.
func (c *Cluster) update(o *object, home int, call func(*vupdate.Updater) (*vupdate.Result, error)) (*vupdate.Result, error) {
	// Fast path: translate with only the home writer held. If every
	// emitted operation stays inside the (hash-partitioned) island the
	// commit is purely local; otherwise roll back and signal the retry.
	u := &vupdate.Updater{T: o.trs[home], Hooks: &vupdate.TxHooks{
		Begin: func() (*reldb.Tx, error) { return c.dbs[home].Begin(), nil },
		Finish: func(tx *reldb.Tx, ops []vupdate.DBOp) error {
			if len(c.dbs) == 1 || allIsland(o, ops) {
				return tx.Commit()
			}
			_ = tx.Rollback()
			return errNeedsGlobal
		},
	}}
	res, err := call(u)
	if err == nil || !errors.Is(err, errNeedsGlobal) {
		return res, err
	}
	return c.updateGlobal(o, home, call)
}

// updateGlobal is the cross-shard path: acquire every shard's writer in
// ascending order (a total order — concurrent global updates cannot
// deadlock), re-translate on the home shard, replay the non-island
// operations on every replica, and commit the participating shards with
// the two-phase protocol.
func (c *Cluster) updateGlobal(o *object, home int, call func(*vupdate.Updater) (*vupdate.Result, error)) (*vupdate.Result, error) {
	txs := make([]*reldb.Tx, len(c.dbs))
	for i := range txs {
		txs[i] = c.dbs[i].Begin()
	}
	inFinish := false
	u := &vupdate.Updater{T: o.trs[home], Hooks: &vupdate.TxHooks{
		Begin: func() (*reldb.Tx, error) { return txs[home], nil },
		Finish: func(tx *reldb.Tx, ops []vupdate.DBOp) error {
			inFinish = true
			return c.commitGlobal(o, home, txs, ops)
		},
	}}
	res, err := call(u)
	if err != nil && !inFinish {
		// Translation failed before the commit protocol started: run
		// already rolled back the home transaction; release the others.
		for i, tx := range txs {
			if i != home {
				_ = tx.Rollback()
			}
		}
	}
	return res, err
}

// commitGlobal finishes a global update: replays the non-island
// operations on every non-home shard, then runs the two-phase commit
// over the shards that have work. It owns every transaction in txs —
// on any error each one has been committed, aborted, or rolled back.
func (c *Cluster) commitGlobal(o *object, home int, txs []*reldb.Tx, ops []vupdate.DBOp) error {
	rollbackAll := func() {
		for _, tx := range txs {
			if tx != nil {
				_ = tx.Rollback()
			}
		}
	}
	replicated := 0
	for i, tx := range txs {
		if i == home {
			continue
		}
		for _, op := range ops {
			if o.islandRels[op.Relation] {
				continue
			}
			if err := replay(tx, op); err != nil {
				rollbackAll()
				return fmt.Errorf("shard %d: replay %s: %w", i, op, err)
			}
			replicated++
		}
	}
	if replicated == 0 {
		// Degenerate global retry (the second translation stayed inside
		// the island): a plain local commit suffices.
		for i, tx := range txs {
			if i != home {
				_ = tx.Rollback()
			}
		}
		return txs[home].Commit()
	}

	// Participants: every shard whose transaction changed anything. The
	// home shard always participates; a replica with zero replayed
	// operations (possible only when ops was entirely island-local,
	// handled above) would be released without preparing.
	parts := make([]int, 0, len(txs))
	for i, tx := range txs {
		if i == home || tx.OpCount() > 0 {
			parts = append(parts, i)
		}
	}
	for i, tx := range txs {
		if tx.OpCount() == 0 && i != home {
			_ = tx.Rollback()
			txs[i] = nil
		}
	}

	// Two-phase commit: prepare ascending, all prepares durable before
	// the first decision, decide, all decisions durable, release
	// ascending. The decision point of the whole update is the first
	// durable decide record; recovery commits an in-doubt prepare iff
	// some shard holds a commit decision (shard.go, resolveInDoubt).
	xid := c.nextXid()
	preps := make([]*reldb.PreparedTx, 0, len(parts))
	for _, i := range parts {
		p, err := txs[i].Prepare(xid, parts)
		if err != nil {
			// Prepare's failure path already unwound its own transaction;
			// abort the prepared prefix and roll back the unprepared rest
			// (Rollback on the failed one is a no-op, it is done).
			for _, q := range preps {
				_ = q.Abort()
			}
			for _, j := range parts {
				if txs[j] != nil {
					_ = txs[j].Rollback()
				}
			}
			return fmt.Errorf("shard %d: prepare: %w", i, err)
		}
		txs[i] = nil // owned by the PreparedTx now
		preps = append(preps, p)
	}
	for _, p := range preps {
		if err := p.WaitPrepared(); err != nil {
			for _, q := range preps {
				_ = q.Abort()
			}
			return fmt.Errorf("shard: prepare not durable: %w", err)
		}
	}
	var warn error
	c.cut.Lock()
	for _, p := range preps {
		if err := p.CommitDecided(); err != nil && warn == nil {
			warn = err
		}
	}
	c.cut.Unlock()
	for _, p := range preps {
		if err := p.WaitDecided(); err != nil && warn == nil {
			warn = err
		}
	}
	for _, p := range preps {
		p.Release()
	}
	return warn
}

// replay applies one translated operation verbatim to a replica shard's
// transaction.
func replay(tx *reldb.Tx, op vupdate.DBOp) error {
	switch op.Kind {
	case vupdate.OpInsert:
		return tx.Insert(op.Relation, op.Tuple)
	case vupdate.OpDelete:
		_, err := tx.Delete(op.Relation, op.Key)
		return err
	case vupdate.OpReplace:
		_, err := tx.Replace(op.Relation, op.Key, op.Tuple)
		return err
	default:
		return fmt.Errorf("shard: unknown op kind %v", op.Kind)
	}
}

// allIsland reports whether every operation targets a partitioned
// (island) relation.
func allIsland(o *object, ops []vupdate.DBOp) bool {
	for _, op := range ops {
		if !o.islandRels[op.Relation] {
			return false
		}
	}
	return true
}
