package reldb

import (
	"slices"
	"strings"
)

// predTerm is one term of a decomposed conjunction: an unqualified
// attribute compared with a constant, read with the attribute on the
// left.
type predTerm struct {
	attr string
	op   CmpOp
	v    Value
}

// conjunction appends to dst the terms of pred when pred is a Cmp, or a
// non-empty And of Cmps, each comparing one unqualified attribute with a
// constant in either operand order. Anything else — other boolean
// structure, qualified references, attribute-to-attribute or computed
// comparisons — returns ok=false.
func conjunction(dst []predTerm, pred Expr) ([]predTerm, bool) {
	and, ok := pred.(And)
	if !ok {
		t, ok := cmpTerm(pred)
		return append(dst, t), ok
	}
	for _, e := range and.Terms {
		t, ok := cmpTerm(e)
		if !ok {
			return nil, false
		}
		dst = append(dst, t)
	}
	return dst, len(dst) > 0
}

// cmpTerm reads one attribute-constant comparison.
func cmpTerm(e Expr) (predTerm, bool) {
	c, ok := e.(Cmp)
	if !ok {
		return predTerm{}, false
	}
	op := c.Op
	a, aOK := c.L.(Attr)
	k, kOK := c.R.(Const)
	if !aOK || !kOK {
		a, aOK = c.R.(Attr)
		k, kOK = c.L.(Const)
		// const op attr reads right to left: 3 < x is x > 3.
		switch op {
		case OpLt:
			op = OpGt
		case OpLe:
			op = OpGe
		case OpGt:
			op = OpLt
		case OpGe:
			op = OpLe
		}
	}
	if !aOK || !kOK || a.Rel != "" {
		return predTerm{}, false
	}
	return predTerm{attr: a.Name, op: op, v: k.V}, true
}

// Select returns all rows satisfying the predicate, in key order.
// A nil predicate selects everything. On a predicate evaluation error the
// result slice is nil — never a truncated prefix a caller could silently
// use.
//
// Select is the one place a predicate's access path is chosen. An
// equality conjunction probes the primary key or a covering index, a
// range over one attribute walks the window of the tree that attribute
// leads, and everything else scans under pred itself; a probe or walk is
// taken only where it returns exactly what the scan would.
func (r *Relation) Select(pred Expr) ([]Row, error) {
	return r.SelectStats(pred, nil)
}

// SelectStats is Select that additionally accumulates lookup cost into
// st (which may be nil): a probe or walk charges the tuples it visits, a
// completed scan the whole relation, a scan stopped by an evaluation
// error nothing.
func (r *Relation) SelectStats(pred Expr, st *MatchStats) ([]Row, error) {
	var buf [4]predTerm
	if terms, ok := conjunction(buf[:0], pred); ok {
		if out, ok := r.probeEqual(terms, st); ok {
			return out, nil
		}
		if out, ok := r.walkRange(terms, st); ok {
			return out, nil
		}
	}
	var out []Row
	var evalErr error
	r.Scan(func(t Row) bool {
		if pred != nil {
			ok, err := EvalBool(pred, r.schema, t)
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		out = append(out, t)
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	r.obsScan(st, r.Count())
	return out, nil
}

// probeEqual serves an all-equality conjunction with one probe of the
// tree planFor resolves, when that returns exactly what a scan would:
//
//   - every attribute resolves, with no duplicates (a contradictory
//     duplicate needs scan semantics);
//   - every constant is exact for its attribute (exactConst), as a
//     range walk's bounds are;
//   - the attribute set is the primary key's or a secondary index's —
//     otherwise probing buys nothing.
func (r *Relation) probeEqual(terms []predTerm, st *MatchStats) ([]Row, bool) {
	var nameBuf [4]string
	var valBuf [4]Value
	names, vals := nameBuf[:0], Tuple(valBuf[:0])
	for _, t := range terms {
		if t.op != OpEq {
			return nil, false
		}
		names, vals = append(names, t.attr), append(vals, t.v)
	}
	pl, err := r.planFor("Select", names)
	if err != nil || pl.kind == planScan {
		return nil, false
	}
	for i, j := range pl.idx {
		if !exactConst(r.schema.Attr(j).Type, vals[i]) {
			return nil, false
		}
	}
	return r.probeOne(pl, vals, st), true
}

// walkRange serves a range over one attribute — at most one lower (>,
// >=) and one upper (<, <=) bound — by walking the window between its
// bounds in the tree the attribute leads, when that returns exactly
// what a scan would: the attribute leads the primary key or a
// secondary index, and every bound is walkable (walkableBound).
func (r *Relation) walkRange(terms []predTerm, st *MatchStats) ([]Row, bool) {
	var lo, hi *predTerm
	for i := range terms {
		t := &terms[i]
		if t.attr != terms[0].attr {
			return nil, false
		}
		switch {
		case (t.op == OpGt || t.op == OpGe) && lo == nil:
			lo = t
		case (t.op == OpLt || t.op == OpLe) && hi == nil:
			hi = t
		default:
			return nil, false
		}
	}
	ai, ok := r.schema.AttrIndex(terms[0].attr)
	if !ok {
		return nil, false
	}
	kind := r.schema.Attr(ai).Type
	tree, pkOrder := r.rangeTree(ai)
	if tree == nil || !walkableBound(kind, lo) || !walkableBound(kind, hi) {
		return nil, false
	}

	// The window runs from the first position past null (null sorts first
	// and satisfies no range) or the lower bound, to the upper bound; a
	// bound that excludes (lower) or includes (upper) its own value sits
	// just past every key that starts with that value's encoding.
	from, to := string([]byte{tagNull + 1}), ""
	if lo != nil {
		if from = EncodeValues(lo.v); lo.op == OpGt {
			from = prefixSuccessor(from)
		}
	}
	if hi != nil {
		if to = EncodeValues(hi.v); hi.op == OpLe {
			to = prefixSuccessor(to)
		}
	}
	var out []Row
	tree.ascend(from, func(k string, row Row) bool {
		if hi != nil && k >= to {
			return false
		}
		out = append(out, row)
		return true
	})
	if !pkOrder {
		// An index walk comes out in indexed-value order; put the window
		// back in primary-key order, the order of the rows' key prefixes.
		slices.SortFunc(out, func(a, b Row) int { return strings.Compare(a.key(), b.key()) })
	}
	r.obsProbe(st, len(out))
	return out, true
}

// rangeTree resolves the tree a range over attribute ai can walk in
// order: the row tree when ai leads the primary key, else the secondary
// index (first by name) that ai leads. Want ranges on an attribute? Index
// it.
func (r *Relation) rangeTree(ai int) (t *ptree, pkOrder bool) {
	if r.schema.key[0] == ai {
		return &r.rows, true
	}
	var best *secondaryIndex
	for _, ix := range r.indexes {
		if ix.attrs[0] == ai && (best == nil || ix.name < best.name) {
			best = ix
		}
	}
	if best == nil {
		return nil, false
	}
	return &best.tree, false
}

// walkableBound reports whether bound b (nil: none) is exact for an
// attribute of kind want.
func walkableBound(want Kind, b *predTerm) bool {
	return b == nil || exactConst(want, b.v)
}

// exactConst reports whether constant v, compared with an attribute of
// kind want, turns into an exact tree position — one a probe or walk
// finds every stored value Compare holds equal to v by: v is non-null (a
// comparison with null matches nothing, three-valued), of a kind Compare
// orders against every value the attribute can store — any numeric
// pair, else the same kind — and inside the key codec's exact domain.
// There ints and floats share one encoding, and −0 encodes as 0, so a
// numeric constant finds its equals of either kind; stored key and
// indexed values never leave that domain.
func exactConst(want Kind, v Value) bool {
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	have := v.Kind()
	return !v.IsNull() && (want == have || (numeric(want) && numeric(have))) && keyEncodable(v)
}

// prefixSuccessor returns the smallest string greater than every string
// that has prefix p. Key encodings start with a tag byte below 0xFF, so
// one always exists.
func prefixSuccessor(p string) string {
	b := []byte(p)
	for b[len(b)-1] == 0xFF {
		b = b[:len(b)-1]
	}
	b[len(b)-1]++
	return string(b)
}
