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
	// keys[i] is the encoded connecting-value set of tuples[i], or "" for
	// a null connecting value ("" is unambiguous: EncodeValues of one or
	// more values is never empty, and Validate rejects empty attr lists).
	keys := make([]string, len(tuples))
	valSets := make([]reldb.Tuple, 0, len(tuples))
	// One backing array holds every value set; each is sliced out of it
	// at full capacity, so no set can grow into its neighbour.
	w := len(srcIdx)
	backing := make(reldb.Tuple, len(tuples)*w)
	// seen maps an encoded value set to the key string already built for
	// it, so duplicates share that string. A batch of one has none.
	var seen map[string]string
	if len(tuples) > 1 {
		seen = make(map[string]string, len(tuples))
	}
	var enc []byte
	for i, t := range tuples {
		vals := backing[i*w : (i+1)*w : (i+1)*w]
		enc = enc[:0]
		null := false
		for vi, j := range srcIdx {
			if t[j].IsNull() {
				null = true
				break
			}
			vals[vi] = t[j]
			enc = reldb.AppendKey(enc, t[j])
		}
		if null {
			continue
		}
		if k, dup := seen[string(enc)]; dup {
			keys[i] = k
			continue
		}
		k := string(enc) // EncodeValues(vals...), built in place
		keys[i] = k
		if seen != nil {
			seen[k] = k
		}
		valSets = append(valSets, vals)
	}
	tgtRel, err := res.Relation(e.Target())
	if err != nil {
		return nil, err
	}
	matches, err := tgtRel.MatchEqualBatchStats(e.TargetAttrs(), valSets, st)
	if err != nil {
		return nil, err
	}
	for i, k := range keys {
		if k == "" {
			// Null connecting value: out[i] stays nil, as in ConnectedVia.
			continue
		}
		if m, ok := matches[k]; ok {
			out[i] = m
		} else {
			out[i] = []reldb.Tuple{}
		}
	}
	return out, nil
}
