package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

func TestRunStressValidation(t *testing.T) {
	if _, err := RunStress(StressSpec{}, 1); err == nil {
		t.Fatal("zero spec accepted")
	}
	if _, err := RunStress(StressSpec{
		Tree:    TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 2},
		Readers: 1, Writers: 3, Cycles: 1,
	}, 1); err == nil {
		t.Fatal("more writers than roots accepted")
	}
}

// runStressOK runs one stress mix and fails the test on an error or any
// invariant violation.
func runStressOK(t *testing.T, spec StressSpec, shards int) *StressResult {
	t.Helper()
	res, err := RunStress(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	t.Log(res.Summary())
	return res
}

// TestRunStress drives the full concurrent workload on one shard:
// readers instantiate through snapshots while writers cycle VO-R / VO-CD
// / VO-CI. Run with `go test -race` this is the proof that the read path
// is race-clean; the invariant checks prove no torn instances either way.
func TestRunStress(t *testing.T) {
	spec := StressSpec{
		Tree:    TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 6, Peninsulas: 1},
		Readers: 4,
		Writers: 2,
		Cycles:  8,
	}
	res := runStressOK(t, spec, 1)
	wantOps := int64(spec.Cycles * spec.Tree.Roots)
	if res.Replaces != wantOps || res.Deletes != wantOps || res.Inserts != wantOps {
		t.Fatalf("writer ops: R=%d D=%d I=%d, want %d each",
			res.Replaces, res.Deletes, res.Inserts, wantOps)
	}
	if res.Instantiations == 0 {
		t.Fatal("readers never observed an instance")
	}
	// One shard has no replicas: whatever a translation emits commits
	// locally.
	if n := res.Metrics.Counter("reldb.cross.commits"); n != 0 {
		t.Fatalf("%d cross-shard commits on one shard", n)
	}
}

// TestRunStressParallelReaders adds full-object readers to the mix:
// whole-extent snapshot reads racing VO writers. Under `go test -race`
// this is the proof that concurrent readers are race-clean against
// commits; the invariant checks prove no torn instances.
func TestRunStressParallelReaders(t *testing.T) {
	// Run at GOMAXPROCS 4 so readers and writers interleave even in a
	// GOMAXPROCS=1 CI job.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	spec := StressSpec{
		Tree:            TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 8, Peninsulas: 1},
		Readers:         2,
		ParallelReaders: 3,
		Writers:         2,
		Cycles:          6,
	}
	res := runStressOK(t, spec, 1)
	if res.ParallelInstantiations == 0 {
		t.Fatal("parallel readers never observed an instance")
	}
}

// TestRunStressMaterializedReaders adds readers served through one
// materialized cache per shard: patching by relation-version diffs,
// racing VO writers. Under `go test -race` this proves the
// materializer's sync/patch path is race-clean against commits
// (cross-shard ones included at 3 shards); the invariant checks prove a
// patched instance is never torn, and the run's
// closing drain proves every key's patched render equals a fresh one. The
// run also holds one ReadTx per shard across all writer activity with a
// low lag-alert threshold, so both stale-ReadTx observation points (Fork
// and Close) must fire.
func TestRunStressMaterializedReaders(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			spec := StressSpec{
				Tree:                TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 6, Peninsulas: 1},
				Readers:             2,
				MaterializedReaders: 3,
				Writers:             2,
				Cycles:              6,
				ReadTxLagAlert:      8,
			}
			res := runStressOK(t, spec, n)
			if res.MaterializedInstantiations == 0 {
				t.Fatal("materialized readers never observed an instance")
			}
			// The caches must have been exercised end to end: built cold,
			// then serving (sum of all serve outcomes covers every read),
			// with actual delta patching under writer churn.
			misses := res.Metrics.Counter("viewobject.materialize.misses")
			hits := res.Metrics.Counter("viewobject.materialize.hits")
			fallbacks := res.Metrics.Counter("viewobject.materialize.falls_back")
			if misses == 0 {
				t.Fatal("materializer never built cold")
			}
			if hits == 0 {
				t.Fatal("materializer never served from the patched cache")
			}
			if res.Metrics.Counter("viewobject.materialize.patches") == 0 {
				t.Fatalf("materializer never patched despite writer commits (hits=%d misses=%d fallbacks=%d mat_insts=%d)",
					hits, misses, fallbacks, res.MaterializedInstantiations)
			}
			// Every serve increments exactly one of hits, misses and
			// falls_back. The serves are one priming serve per shard's
			// materializer, the closing drain of every key, and one per
			// materialized read — those that found an instance, plus some
			// of the absent lookups (which the plain readers share).
			least := res.MaterializedInstantiations + int64(n+spec.Tree.Roots)
			if served := hits + misses + fallbacks; served < least || served > least+res.Absent {
				t.Fatalf("serve outcomes hits+misses+falls_back = %d, want between %d and %d serves",
					served, least, least+res.Absent)
			}
			// 108 writer commits against an 8-generation threshold, every
			// shard receiving its share: each aged ReadTx must have tripped
			// both alerts.
			if got := res.Metrics.Counter("reldb.readtx.stale_forks"); got < int64(n) {
				t.Fatalf("%d stale-fork alerts from %d aged ReadTxs", got, n)
			}
			if got := res.Metrics.Counter("reldb.readtx.stale_closes"); got < int64(n) {
				t.Fatalf("%d stale-close alerts from %d aged ReadTxs", got, n)
			}
		})
	}
}

// TestShardedStress drives the full reader/writer mix through the
// coordinator over four in-memory shards: concurrent VO cycles routed by
// pivot key, cross-shard two-phase commits on every peninsula touch,
// fan-out reads merging per-shard snapshots. Run under -race by the
// shard-stress make target.
func TestShardedStress(t *testing.T) {
	spec := StressSpec{
		Tree:            TreeSpec{Depth: 1, Width: 2, Fanout: 2, Roots: 8, Peninsulas: 1},
		Readers:         2,
		ParallelReaders: 1,
		Writers:         4,
		Cycles:          3,
	}
	res := runStressOK(t, spec, 4)
	wantWrites := int64(spec.Tree.Roots * spec.Cycles)
	if res.Replaces != wantWrites || res.Deletes != wantWrites || res.Inserts != wantWrites {
		t.Fatalf("writer tallies %d/%d/%d, want %d each", res.Replaces, res.Deletes, res.Inserts, wantWrites)
	}
	// Peninsula traffic forces the cross-shard path: every VO-CD and
	// VO-CI touches replicated rows, so cross-commits must have happened.
	if res.Metrics.Counter("reldb.cross.commits") == 0 {
		t.Fatal("no cross-shard commits recorded; coordinator never left the fast path")
	}
}

// TestShardedStressFastPathOnly: without peninsulas every translation
// stays inside the island, so no cross-shard commit may occur.
func TestShardedStressFastPathOnly(t *testing.T) {
	res := runStressOK(t, StressSpec{
		Tree:    TreeSpec{Depth: 1, Width: 1, Fanout: 2, Roots: 6, Peninsulas: 0},
		Readers: 1,
		Writers: 2,
		Cycles:  2,
	}, 2)
	if n := res.Metrics.Counter("reldb.cross.commits"); n != 0 {
		t.Fatalf("%d cross-shard commits on an island-only workload", n)
	}
}

// TestShardedMatchesUnsharded is the N-vs-1 oracle: one seeded random
// sequence of VO-R (a random stamp per key), VO-CD, and VO-CI of deleted
// keys, applied to a 1-shard cluster and an N-shard one, must leave every
// instance identical — partitioning is invisible to the object model.
// The full-object listings are compared every 10 operations.
func TestShardedMatchesUnsharded(t *testing.T) {
	spec := TreeSpec{Depth: 1, Width: 2, Fanout: 2, Roots: 6, Peninsulas: 1}
	build := func(n int) *ShardedWorkload {
		sw, err := NewShardedTree(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	for _, n := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			one, many := build(1), build(n)
			both := []*ShardedWorkload{one, many}
			compare := func(op int) {
				t.Helper()
				a, err := one.C.Instantiate(ShardedObject, viewobject.Query{})
				if err != nil {
					t.Fatal(err)
				}
				b, err := many.C.Instantiate(ShardedObject, viewobject.Query{})
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("op %d: %d instances on 1 shard, %d on %d", op, len(a), len(b), n)
				}
				for i := range a {
					if a[i].Render() != b[i].Render() {
						t.Fatalf("op %d: instance %d diverges:\n1 shard:\n%s\n%d shards:\n%s", op, i, a[i].Render(), n, b[i].Render())
					}
				}
			}

			rng := rand.New(rand.NewSource(int64(n)))
			// deleted holds each deleted key's last instance in each
			// cluster (built over that cluster's definition), for VO-CI.
			deleted := map[int64][]*viewobject.Instance{}
			var deletes, inserts int
			for op := 1; op <= 120; op++ {
				k := rng.Int63n(int64(spec.Roots))
				key := reldb.Tuple{reldb.Int(k)}
				switch gone, dead := deleted[k]; {
				case dead:
					for i, sw := range both {
						if _, err := sw.C.InsertInstance(ShardedObject, gone[i]); err != nil {
							t.Fatalf("op %d: VO-CI key %d: %v", op, k, err)
						}
					}
					delete(deleted, k)
					inserts++
				case rng.Intn(3) == 0:
					for _, sw := range both {
						inst, ok, err := sw.C.InstantiateByKey(ShardedObject, key)
						if err != nil || !ok {
							t.Fatalf("op %d: key %d: %v %v", op, k, ok, err)
						}
						if _, err := sw.C.DeleteByKey(ShardedObject, key); err != nil {
							t.Fatalf("op %d: VO-CD key %d: %v", op, k, err)
						}
						deleted[k] = append(deleted[k], inst)
					}
					deletes++
				default:
					s := fmt.Sprintf("r%d", rng.Intn(1000))
					for _, sw := range both {
						if _, err := replaceStamped(sw, k, s); err != nil {
							t.Fatalf("op %d: VO-R key %d: %v", op, k, err)
						}
					}
				}
				if op%10 == 0 {
					compare(op)
				}
			}
			if deletes == 0 || inserts == 0 {
				t.Fatalf("sequence ran %d deletes and %d re-inserts; want both", deletes, inserts)
			}
		})
	}
}

// TestOpenShardedTreeTwice pins the build's error path: creating the tree
// in a directory that already holds it reports the existing relation
// instead of panicking (and leaves the shards closed), and the directory
// then reopens with create false.
func TestOpenShardedTreeTwice(t *testing.T) {
	dir := t.TempDir()
	spec := TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 2, Peninsulas: 1}
	opts := reldb.OpenOptions{Sync: reldb.SyncNone, CheckpointInterval: -1}
	sw, err := OpenShardedTree(dir, 2, spec, opts, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardedTree(dir, 2, spec, opts, true); !errors.Is(err, reldb.ErrRelationExists) {
		t.Fatalf("second create = %v, want ErrRelationExists", err)
	}
	re, err := OpenShardedTree(dir, 2, spec, opts, false)
	if err != nil {
		t.Fatalf("reopen after refused create: %v", err)
	}
	defer re.Close()
	if _, ok, err := re.C.InstantiateByKey(ShardedObject, reldb.Tuple{reldb.Int(1)}); err != nil || !ok {
		t.Fatalf("reopened tree lost key 1: %v %v", ok, err)
	}
}
