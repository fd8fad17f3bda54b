package structural

import (
	"slices"

	"penguin/internal/reldb"
)

// ConnectedVia crosses one edge for many source rows at once, resolving
// relations and the edge's attribute indices through res, and
// accumulating lookup cost into st (which may be nil). The result is
// aligned with rows: out[i] holds the rows of e.Target() connected to
// rows[i], in primary-key order — nil when a connecting value of rows[i]
// is null, which connects to nothing, and non-nil empty when no row
// matches. The whole batch costs one MatchEqualBatchAt call on the
// target relation — one index probe per distinct connecting-value set,
// or one shared scan — however many rows cross; a single row is a batch
// of one. Source rows sharing a connecting-value set share the same
// result slice.
func ConnectedVia(res Resolver, e Edge, rows []reldb.Row, st *reldb.MatchStats) ([][]reldb.Row, error) {
	srcRel, err := res.Relation(e.Source())
	if err != nil {
		return nil, err
	}
	tgtRel, err := res.Relation(e.Target())
	if err != nil {
		return nil, err
	}
	// Both attribute lists are resolved from the schemas res holds now,
	// into one buffer on the stack.
	var idxBuf [8]int
	srcIdx, err := srcRel.Schema().AppendIndices(idxBuf[:0], e.SourceAttrs())
	if err != nil {
		return nil, err
	}
	tgtIdx, err := tgtRel.Schema().AppendIndices(srcIdx[len(srcIdx):], e.TargetAttrs())
	if err != nil {
		return nil, err
	}
	// One backing array holds every value set; each is sliced out of it
	// at full capacity, so no set can grow into its neighbour. A row with
	// a null connecting value passes none. Duplicate value sets go to the
	// batch as they are: it probes each distinct one once. A single row's
	// set list stays on the stack.
	w := len(srcIdx)
	backing := make(reldb.Tuple, len(rows)*w)
	var one [1]reldb.Tuple
	valSets := one[:0]
	if len(rows) > 1 {
		valSets = make([]reldb.Tuple, 0, len(rows))
	}
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
			valSets = append(valSets, vals)
		}
	}
	matches, err := tgtRel.MatchEqualBatchAt(tgtIdx, valSets, st)
	if err != nil {
		return nil, err
	}
	for i, m := range matches {
		if m == nil {
			matches[i] = []reldb.Row{} // no match: empty, not nil
		}
	}
	// The batch answers in valSets' order: when every row passed a set,
	// that is rows' order; otherwise the answers go to the rows that did,
	// and a null row's slot stays nil.
	if len(valSets) == len(rows) {
		return matches, nil
	}
	out := make([][]reldb.Row, len(rows))
	for i, next := 0, 0; i < len(rows); i++ {
		if !slices.ContainsFunc(backing[i*w:(i+1)*w], reldb.Value.IsNull) {
			out[i], next = matches[next], next+1
		}
	}
	return out, nil
}
