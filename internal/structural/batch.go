package structural

import (
	"penguin/internal/reldb"
)

// ConnectedViaBatchStats crosses one edge for many source rows at once,
// accumulating lookup cost into st (which may be nil). srcIdx and tgtIdx
// are the indices of the edge's source attributes in the source schema
// and of its target attributes in the target schema, which the caller
// resolves once (Schema.Indices of e.SourceAttrs(), e.TargetAttrs()). The
// result is aligned with rows: out[i] holds the target rows connected
// to rows[i], in primary-key order, with the same per-row semantics as
// ConnectedVia (nil for a null connecting value, non-nil empty for no
// matches). The whole batch costs one MatchEqualBatch call on the target
// relation — one index probe per distinct connecting-value set, or one
// shared scan — instead of one lookup per source row. Source rows
// sharing a connecting-value set share the same result slice.
func ConnectedViaBatchStats(res Resolver, e Edge, srcIdx, tgtIdx []int, rows []reldb.Row, st *reldb.MatchStats) ([][]reldb.Row, error) {
	out := make([][]reldb.Row, len(rows))
	if len(rows) == 0 {
		return out, nil
	}
	// One backing array holds every value set; each is sliced out of it
	// at full capacity, so no set can grow into its neighbour. A row with
	// a null connecting value passes none, and its out[i] stays nil as in
	// ConnectedVia; every other out[i] starts empty. Duplicate value sets
	// go to the batch as they are: it probes each distinct one once.
	w := len(srcIdx)
	backing := make(reldb.Tuple, len(rows)*w)
	valSets := make([]reldb.Tuple, 0, len(rows))
	for i, r := range rows {
		vals := backing[i*w : (i+1)*w : (i+1)*w]
		null := false
		for vi, j := range srcIdx {
			if vals[vi] = r.At(j); vals[vi].IsNull() {
				null = true
				break
			}
		}
		if !null {
			out[i] = []reldb.Row{}
			valSets = append(valSets, vals)
		}
	}
	tgtRel, err := res.Relation(e.Target())
	if err != nil {
		return nil, err
	}
	matches, err := tgtRel.MatchEqualBatchAt(tgtIdx, valSets, st)
	if err != nil {
		return nil, err
	}
	// The batch answers in valSets' order: the rows that passed a set,
	// in order.
	next := 0
	for i := range out {
		if out[i] == nil {
			continue
		}
		if m := matches[next]; m != nil {
			out[i] = m
		}
		next++
	}
	return out, nil
}
