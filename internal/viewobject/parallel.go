package viewobject

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/structural"
)

// minParallelPivots is the pivot-frontier size below which Instantiate
// stays sequential: worker startup and result merging cost more than
// assembling a handful of instances inline.
const minParallelPivots = 4

// chunksPerWorker oversubscribes the chunk count relative to the worker
// pool so a chunk that happens to carry deep instances does not leave
// the other workers idle at the tail.
const chunksPerWorker = 4

// workersFor is the worker budget an assembly resolving through res may
// use: GOMAXPROCS, read at each call. A write transaction clones
// relations lazily into an unguarded map, so only the goroutine that
// owns it may resolve through it (the update translators instantiate
// through theirs); snapshots and the database itself are safe to share.
func workersFor(res structural.Resolver) int {
	if _, ok := res.(*reldb.Tx); ok {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// minStealParents is the smallest parent-segment size worth handing to a
// stolen worker: below this the traversal batching already amortizes the
// lookups and a goroutine handoff costs more than it saves.
const minStealParents = 8

// stealActive counts helper goroutines currently running stolen level
// segments, across every instantiation in the process. The budget is
// GOMAXPROCS-1 — the caller's own goroutine is the "+1" — so a lone
// deep instantiation can fan a wide level across otherwise-idle CPUs,
// while saturated pools (every worker busy) steal nothing and pay
// nothing beyond one atomic load per level.
var stealActive atomic.Int32

// grabStealTokens claims up to max helper tokens from the global steal
// budget, returning how many were claimed (possibly 0).
func grabStealTokens(max int) int {
	if max <= 0 {
		return 0
	}
	for {
		cur := stealActive.Load()
		budget := int32(runtime.GOMAXPROCS(0) - 1)
		if cur >= budget {
			return 0
		}
		take := budget - cur
		if take > int32(max) {
			take = int32(max)
		}
		if stealActive.CompareAndSwap(cur, cur+take) {
			return int(take)
		}
	}
}

// releaseStealTokens returns claimed tokens to the budget.
func releaseStealTokens(n int) {
	stealActive.Add(int32(-n))
}

// instantiateParallel assembles the pivot frontier on a bounded worker
// pool: the pivots (already in key order) are split into contiguous
// chunks, workers pull chunk indexes from a shared cursor and assemble
// each chunk with the same batched level-at-a-time path the sequential
// route uses, and the per-chunk results concatenate back in chunk order
// — so the output is byte-identical to a sequential assembly, pivot-key
// order included. On error the workers drain cleanly (remaining chunks
// are claimed but skipped) and the error of the lowest-indexed failing
// chunk wins, making the reported error deterministic.
//
// Safety: res resolves against an immutable committed snapshot (the
// ReadTx discipline), each instance subtree is touched by exactly one
// worker, and all shared metric sinks are atomic — so workers need no
// locks of their own.
func instantiateParallel(res structural.Resolver, def *Definition, pivots []reldb.Tuple, workers int, op obs.Op) ([]*Instance, error) {
	nchunks := workers * chunksPerWorker
	if nchunks > len(pivots) {
		nchunks = len(pivots)
	}
	per := (len(pivots) + nchunks - 1) / nchunks
	// Rounding per up can cover the pivots in fewer chunks than first
	// counted (10 pivots, 8 chunks: per = 2 needs only 5); recount so no
	// chunk starts past the end.
	nchunks = (len(pivots) + per - 1) / per
	if workers > nchunks {
		workers = nchunks
	}
	results := make([][]*Instance, nchunks)
	errs := make([]error, nchunks)
	var cursor atomic.Int32
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= nchunks {
					return
				}
				if failed.Load() {
					continue // drain: claim remaining chunks without work
				}
				lo := i * per
				hi := lo + per
				if hi > len(pivots) {
					hi = len(pivots)
				}
				// Op is a value whose shared state is atomic/locked, so
				// each worker can hang its chunk spans off the same
				// parent; the tree stays connected across the pool.
				cop := op.Child("viewobject.chunk")
				insts, err := assembleBatch(res, def, pivots[lo:hi])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				if cop.Active() {
					cop.Finish(fmt.Sprintf("chunk=%d pivots=%d", i, hi-lo))
				}
				results[i] = insts
			}
		}()
	}
	wg.Wait()
	obs.Default.ParallelWorkers.Add(int64(workers))
	obs.Default.ParallelChunks.Add(int64(nchunks))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*Instance, 0, len(pivots))
	for _, chunk := range results {
		out = append(out, chunk...)
	}
	return out, nil
}
