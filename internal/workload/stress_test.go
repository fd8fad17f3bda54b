package workload

import (
	"testing"

	"penguin/internal/viewobject"
)

func TestRunStressValidation(t *testing.T) {
	if _, err := RunStress(StressSpec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
	if _, err := RunStress(StressSpec{
		Tree:    TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 2},
		Readers: 1, Writers: 3, Cycles: 1,
	}); err == nil {
		t.Fatal("more writers than roots accepted")
	}
}

// TestRunStress drives the full concurrent workload: readers instantiate
// through snapshots while writers cycle VO-R / VO-CD / VO-CI. Run with
// `go test -race` this is the tentpole proof that the read path is race-
// clean; the invariant checks prove no torn instances either way.
func TestRunStress(t *testing.T) {
	spec := StressSpec{
		Tree:    TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 6, Peninsulas: 1},
		Readers: 4,
		Writers: 2,
		Cycles:  8,
	}
	res, err := RunStress(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	wantOps := int64(spec.Cycles * spec.Tree.Roots)
	if res.Replaces != wantOps || res.Deletes != wantOps || res.Inserts != wantOps {
		t.Fatalf("writer ops: R=%d D=%d I=%d, want %d each",
			res.Replaces, res.Deletes, res.Inserts, wantOps)
	}
	if res.Instantiations == 0 {
		t.Fatal("readers never observed an instance")
	}
	// The run's summary line: workload tallies plus the engine-metric
	// delta RunStress captured (commits, step timings, tuples scanned).
	t.Log(res.Summary())
}

// TestRunStressParallelReaders adds full-object parallel-instantiation
// readers to the mix: multi-worker snapshot reads racing VO writers.
// Under `go test -race` this is the proof that the parallel fan-out and
// the lookup-plan cache are race-clean; the invariant checks prove no
// torn instances; and the plan-cache counters must reconcile exactly —
// every lookup that consulted the cache was either a hit or a miss.
func TestRunStressParallelReaders(t *testing.T) {
	// Force a 4-worker budget regardless of GOMAXPROCS so the parallel
	// path engages even in a GOMAXPROCS=1 CI job.
	prev := viewobject.SetParallelism(4)
	defer viewobject.SetParallelism(prev)

	spec := StressSpec{
		Tree:            TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 8, Peninsulas: 1},
		Readers:         2,
		ParallelReaders: 3,
		Writers:         2,
		Cycles:          6,
	}
	res, err := RunStress(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.ParallelInstantiations == 0 {
		t.Fatal("parallel readers never observed an instance")
	}
	if n := res.Metrics.Counter("viewobject.parallel.workers"); n == 0 {
		t.Fatal("parallel fan-out never engaged")
	}

	// Plan-cache coherence over the whole run: lookups == hits + misses,
	// with actual reuse (hits), and no generational churn: versions of a
	// relation share one cache, so misses are bounded by what there is to
	// plan, however many commits ran.
	lookups := res.Metrics.Counter("reldb.plancache.lookups")
	hits := res.Metrics.Counter("reldb.plancache.hits")
	misses := res.Metrics.Counter("reldb.plancache.misses")
	if lookups == 0 {
		t.Fatal("plan cache never consulted")
	}
	if lookups != hits+misses {
		t.Fatalf("plancache.lookups %d != hits %d + misses %d", lookups, hits, misses)
	}
	if hits == 0 {
		t.Fatal("plan cache never hit: plans are not being reused")
	}
	// 8 relations (7 island + 1 peninsula), each probed over at most its
	// key, its parent's connection attributes and a child's.
	const relations, attrLists = 8, 3
	if commits := res.Metrics.Counter("reldb.tx.commits"); commits < 4*relations*attrLists {
		t.Fatalf("only %d commits: too few to tell a shared cache from a per-commit one", commits)
	} else if misses > relations*attrLists {
		t.Fatalf("%d plan-cache misses over %d commits, want at most %d (relations x attribute lists)",
			misses, commits, relations*attrLists)
	}
	// The run performs no index DDL, so nothing may discard a plan.
	if n := res.Metrics.Counter("reldb.plancache.invalidations"); n != 0 {
		t.Fatalf("%d plan-cache invalidations counted without any index DDL", n)
	}
	t.Log(res.Summary())
}

// TestRunStressMaterializedReaders adds readers served through the shared
// materialized cache: delta-stream patching racing VO writers. Under
// `go test -race` this proves the materializer's sync/patch path is
// race-clean against commits; the invariant checks prove a patched
// instance is never torn. The run also holds one ReadTx across all writer
// activity with a low lag-alert threshold, so both stale-ReadTx
// observation points (Fork and Close) must fire.
func TestRunStressMaterializedReaders(t *testing.T) {
	spec := StressSpec{
		Tree:                TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 6, Peninsulas: 1},
		Readers:             2,
		MaterializedReaders: 3,
		Writers:             2,
		Cycles:              6,
		ReadTxLagAlert:      8,
	}
	res, err := RunStress(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	if res.MaterializedInstantiations == 0 {
		t.Fatal("materialized readers never observed an instance")
	}
	// The cache must have been exercised end to end: built cold once,
	// then serving (sum of all serve outcomes covers every read), with
	// actual delta patching under writer churn.
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
	// Every serve increments exactly one of hits, misses and falls_back.
	// The serves are the priming one, the final drain, and one per
	// materialized read — those that found an instance, plus some of the
	// absent lookups (which the plain readers share).
	if served, least := hits+misses+fallbacks, res.MaterializedInstantiations+2; served < least || served > least+res.Absent {
		t.Fatalf("serve outcomes hits+misses+falls_back = %d, want between %d and %d serves",
			served, least, least+res.Absent)
	}
	// 18 writer commits against an 8-generation threshold: the aged
	// ReadTx must have tripped both alerts.
	if res.Metrics.Counter("reldb.readtx.stale_forks") == 0 {
		t.Fatal("aged ReadTx fork did not trip the stale-fork alert")
	}
	if res.Metrics.Counter("reldb.readtx.stale_closes") == 0 {
		t.Fatal("aged ReadTx close did not trip the stale-close alert")
	}
	t.Log(res.Summary())
}
