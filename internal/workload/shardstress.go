// Sharded stress: the RunStress reader/writer mix driven through the
// shard coordinator. Writers route VO-R / VO-CD / VO-CI by pivot key;
// with peninsulas in the tree every cycle exercises the cross-shard
// two-phase commit (peninsula rows are replicated), and without them
// every commit takes the single-shard fast path. Readers check the same
// torn-instance invariants as the unsharded run — an instance assembled
// across a half-committed cross-shard update would fail the uniform-
// stamp check, and a replica divergence shows up as a reader error.
// Materialized readers are not part of the sharded mix (the
// materializer follows one database's relation versions, not a
// cluster's).
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// RunShardedStress builds an in-memory sharded workload and drives the
// stress mix over its coordinator until every writer finishes.
func RunShardedStress(spec StressSpec, shards int) (*StressResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.MaterializedReaders > 0 {
		return nil, fmt.Errorf("workload: sharded stress does not support materialized readers")
	}
	before := obs.Capture()
	sw, err := NewShardedTree(spec.Tree, shards)
	if err != nil {
		return nil, err
	}
	return runShardedStress(sw, spec, before)
}

// RunShardedStressOn drives the stress mix over an existing sharded
// workload — the sharded crash harness uses it against a durable
// cluster it needs to observe and kill.
func RunShardedStressOn(sw *ShardedWorkload, spec StressSpec) (*StressResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return runShardedStress(sw, spec, obs.Capture())
}

func runShardedStress(sw *ShardedWorkload, spec StressSpec, before obs.Snapshot) (*StressResult, error) {
	w0 := sw.Shards[0]

	// Stamp every instance once, serially, so the uniform-stamp
	// invariant holds from the first concurrent read.
	for k := 0; k < spec.Tree.Roots; k++ {
		if _, err := shardedReplaceStamped(sw, int64(k), "seed"); err != nil {
			return nil, fmt.Errorf("workload: initial stamping of key %d: %w", k, err)
		}
	}

	res := &StressResult{}
	var mu sync.Mutex
	violate := func(format string, args ...any) {
		mu.Lock()
		if len(res.Violations) < 20 {
			res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < spec.Readers; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := reldb.Tuple{reldb.Int(int64(i % spec.Tree.Roots))}
				inst, ok, err := sw.C.InstantiateByKey(ShardedObject, key)
				if err != nil {
					violate("reader %d: instantiate %s: %v", r, key, err)
					return
				}
				if !ok {
					atomic.AddInt64(&res.Absent, 1)
					continue
				}
				atomic.AddInt64(&res.Instantiations, 1)
				if msg := checkInstance(w0, spec.Tree, inst); msg != "" {
					violate("reader %d: key %s: %s", r, key, msg)
					return
				}
			}
		}(r)
	}

	// Fan-out readers: the full-object query runs on every shard's
	// snapshot and merges; each instance passes the same invariants.
	for r := 0; r < spec.ParallelReaders; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				insts, err := sw.C.Instantiate(ShardedObject, viewobject.Query{})
				if err != nil {
					violate("fan-out reader %d: instantiate: %v", r, err)
					return
				}
				atomic.AddInt64(&res.ParallelInstantiations, int64(len(insts)))
				for _, inst := range insts {
					if msg := checkInstance(w0, spec.Tree, inst); msg != "" {
						violate("fan-out reader %d: %s", r, msg)
						return
					}
				}
			}
		}(r)
	}

	var writers sync.WaitGroup
	writerErrs := make(chan error, spec.Writers)
	for wr := 0; wr < spec.Writers; wr++ {
		writers.Add(1)
		go func(wr int) {
			defer writers.Done()
			for c := 0; c < spec.Cycles; c++ {
				for k := wr; k < spec.Tree.Roots; k += spec.Writers {
					stamped, err := shardedReplaceStamped(sw, int64(k), stamp(wr, c))
					if err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-R key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Replaces, 1)
					if _, err := sw.C.DeleteByKey(ShardedObject, reldb.Tuple{reldb.Int(int64(k))}); err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-CD key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Deletes, 1)
					if _, err := sw.C.InsertInstance(ShardedObject, stamped); err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-CI key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Inserts, 1)
				}
			}
		}(wr)
	}
	writers.Wait()
	close(done)
	readers.Wait()
	close(writerErrs)
	res.Metrics = obs.Capture().Sub(before)
	for err := range writerErrs {
		return res, err
	}
	return res, nil
}

// shardedReplaceStamped instantiates the current instance at root key k
// through the coordinator, stamps every island node with s, and
// executes the VO-R translation on the key's home shard.
func shardedReplaceStamped(sw *ShardedWorkload, k int64, s string) (*viewobject.Instance, error) {
	cur, ok, err := sw.C.InstantiateByKey(ShardedObject, reldb.Tuple{reldb.Int(k)})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no instance with key %d", k)
	}
	stamped := cur.Clone()
	for _, relName := range sw.Shards[0].IslandRels {
		for _, n := range stamped.NodesAt(relName) {
			if err := n.SetAttr(sw.Shards[0].Def, "V", reldb.String(s)); err != nil {
				return nil, err
			}
		}
	}
	if _, err := sw.C.ReplaceInstance(ShardedObject, cur, stamped); err != nil {
		return nil, err
	}
	return stamped, nil
}
