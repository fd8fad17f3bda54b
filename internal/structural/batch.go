package structural

import (
	"penguin/internal/reldb"
)

// ConnectedViaBatchStats crosses one edge for many source tuples at
// once, accumulating lookup cost into st (which may be nil). The result
// is aligned with tuples: out[i] holds the target tuples connected to
// tuples[i], in primary-key order, with the same per-tuple semantics as
// ConnectedVia (nil for a null connecting value, non-nil empty for no
// matches). The whole batch costs one MatchEqualBatch call on the target
// relation — one index probe per distinct connecting-value set, or one
// shared scan — instead of one lookup per source tuple. Source tuples
// sharing a connecting-value set share the same result slice (and its
// tuples); callers must not mutate the returned tuples.
func ConnectedViaBatchStats(res Resolver, e Edge, tuples []reldb.Tuple, st *reldb.MatchStats) ([][]reldb.Tuple, error) {
	out := make([][]reldb.Tuple, len(tuples))
	if len(tuples) == 0 {
		return out, nil
	}
	srcRel, err := res.Relation(e.Source())
	if err != nil {
		return nil, err
	}
	srcIdx, err := srcRel.Schema().Indices(e.SourceAttrs())
	if err != nil {
		return nil, err
	}
	// One backing array holds every value set; each is sliced out of it
	// at full capacity, so no set can grow into its neighbour. A tuple
	// with a null connecting value passes none, and its out[i] stays nil
	// as in ConnectedVia; every other out[i] starts empty. Duplicate
	// value sets go to the batch as they are: it probes each distinct one
	// once.
	w := len(srcIdx)
	backing := make(reldb.Tuple, len(tuples)*w)
	valSets := make([]reldb.Tuple, 0, len(tuples))
	for i, t := range tuples {
		vals := backing[i*w : (i+1)*w : (i+1)*w]
		null := false
		for vi, j := range srcIdx {
			if t[j].IsNull() {
				null = true
				break
			}
			vals[vi] = t[j]
		}
		if !null {
			out[i] = []reldb.Tuple{}
			valSets = append(valSets, vals)
		}
	}
	tgtRel, err := res.Relation(e.Target())
	if err != nil {
		return nil, err
	}
	matches, err := tgtRel.MatchEqualBatchStats(e.TargetAttrs(), valSets, st)
	if err != nil {
		return nil, err
	}
	// The batch keys its buckets by each value set's encoding
	// (EncodeValues); encoding into one reused buffer makes each lookup a
	// map hit without a string.
	var buf [64]byte
	enc, next := buf[:0], 0
	for i := range out {
		if out[i] == nil {
			continue
		}
		enc = enc[:0]
		for _, v := range valSets[next] {
			enc = reldb.AppendKey(enc, v)
		}
		next++
		if m, ok := matches[string(enc)]; ok {
			out[i] = m
		}
	}
	return out, nil
}
