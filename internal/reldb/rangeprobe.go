package reldb

import (
	"fmt"
	"sort"
)

// RangeBound is one side of a decomposed range predicate: the constant
// the attribute is compared with and whether the comparison excludes
// equality (< or > rather than <= or >=).
type RangeBound struct {
	V      Value
	Strict bool
}

// RangeConjunction decomposes pred into a single attribute name and its
// lower/upper bounds, when pred is a pure conjunction of ordering
// comparisons (<, <=, >, >=) between one unqualified attribute and
// constants (a single Cmp, or an And whose terms are all such Cmps,
// either operand order — a constant on the left flips the bound's
// side). Such predicates are exactly the ones a MatchRange probe over a
// cached ordered view can answer. At most one bound per side is
// accepted; anything else — other operators, several attributes,
// qualified references, duplicate bounds, nested boolean structure —
// returns ok=false, leaving the caller on the scan path with its full
// predicate semantics.
func RangeConjunction(pred Expr) (attr string, lo, hi *RangeBound, ok bool) {
	var terms []Expr
	switch p := pred.(type) {
	case Cmp:
		terms = []Expr{p}
	case And:
		terms = p.Terms
	default:
		return "", nil, nil, false
	}
	if len(terms) == 0 {
		return "", nil, nil, false
	}
	for _, t := range terms {
		cmp, isCmp := t.(Cmp)
		if !isCmp {
			return "", nil, nil, false
		}
		op := cmp.Op
		a, aOK := cmp.L.(Attr)
		c, cOK := cmp.R.(Const)
		if !aOK || !cOK {
			a, aOK = cmp.R.(Attr)
			c, cOK = cmp.L.(Const)
			if !aOK || !cOK {
				return "", nil, nil, false
			}
			// const op attr reads right-to-left: 3 < x means x > 3.
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
		if a.Rel != "" {
			return "", nil, nil, false
		}
		if attr == "" {
			attr = a.Name
		} else if attr != a.Name {
			return "", nil, nil, false
		}
		b := &RangeBound{V: c.V}
		switch op {
		case OpGt:
			b.Strict = true
			fallthrough
		case OpGe:
			if lo != nil {
				return "", nil, nil, false
			}
			lo = b
		case OpLt:
			b.Strict = true
			fallthrough
		case OpLe:
			if hi != nil {
				return "", nil, nil, false
			}
			hi = b
		default:
			return "", nil, nil, false
		}
	}
	return attr, lo, hi, true
}

// rangeComparable reports whether a bound of kind have orders against
// every value an attribute of kind want can store. Stored values have
// the declared kind (or Int in a Float attribute), and Compare handles
// any numeric pair, so numeric kinds are mutually fine; otherwise the
// kinds must match exactly.
func rangeComparable(want, have Kind) bool {
	numeric := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return want == have || (numeric(want) && numeric(have))
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

// walkableBound reports whether b (nil: no bound) turns into an exact
// tree position for an attribute of kind want: non-null, of a kind
// Compare orders against the attribute's values, and inside the key
// codec's exact domain.
func walkableBound(want Kind, b *RangeBound) bool {
	return b == nil || (!b.V.IsNull() && rangeComparable(want, b.V.Kind()) && keyEncodable(b.V))
}

// ProbeableRange reports whether a MatchRange over attr with these
// bounds is a bounded walk guaranteed to return exactly the tuples a
// predicate scan for the same range conjunction would — so a caller
// holding a RangeConjunction decomposition may substitute the probe for
// the scan. That requires at least one bound, every bound walkable
// (walkableBound; a null bound matches nothing, three-valued), and an
// ordered access path: attr leads the primary key or a secondary index.
func (r *Relation) ProbeableRange(attr string, lo, hi *RangeBound) bool {
	if lo == nil && hi == nil {
		return false
	}
	idx, err := r.lookupIndices("ProbeableRange", []string{attr})
	if err != nil {
		return false
	}
	kind := r.schema.Attr(idx[0]).Type
	t, _ := r.rangeTree(idx[0])
	return t != nil && walkableBound(kind, lo) && walkableBound(kind, hi)
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

// MatchRange returns the tuples whose attribute attr lies within the
// given bounds (either may be nil for a half-open range), in
// primary-key order — the same result a Select over the equivalent
// range conjunction produces. When attr leads the primary key or a
// secondary index the bounds become encoded tree positions and the probe
// walks only the window between them; any other attribute is scanned.
func (r *Relation) MatchRange(attr string, lo, hi *RangeBound) ([]Tuple, error) {
	return r.MatchRangeStats(attr, lo, hi, nil)
}

// MatchRangeStats is MatchRange that additionally accumulates lookup
// cost into st (which may be nil): a walk charges the tuples in its
// window, a scan the whole relation.
func (r *Relation) MatchRangeStats(attr string, lo, hi *RangeBound, st *MatchStats) ([]Tuple, error) {
	idx, err := r.lookupIndices("MatchRange", []string{attr})
	if err != nil {
		return nil, err
	}
	if lo == nil && hi == nil {
		return nil, fmt.Errorf("reldb: %s: MatchRange: %s: no bound", r.Name(), attr)
	}
	ai := idx[0]
	a := r.schema.Attr(ai)
	for _, b := range []*RangeBound{lo, hi} {
		if b == nil {
			continue
		}
		if b.V.IsNull() {
			// x < null is null — satisfied by nothing, same as a scan.
			r.obsProbe(st, 0)
			return nil, nil
		}
		if !rangeComparable(a.Type, b.V.Kind()) {
			return nil, fmt.Errorf("reldb: %s: MatchRange: attribute %s has kind %s, cannot order against %s",
				r.Name(), a.Name, a.Type, b.V.Kind())
		}
	}

	t, pkOrder := r.rangeTree(ai)
	if t == nil || !walkableBound(a.Type, lo) || !walkableBound(a.Type, hi) {
		// No ordered path, or a bound with no exact position on it: scan
		// under the equivalent predicate.
		var terms []Expr
		term := func(b *RangeBound, incl, excl CmpOp) {
			if b == nil {
				return
			}
			op := incl
			if b.Strict {
				op = excl
			}
			terms = append(terms, Cmp{Op: op, L: Attr{Name: attr}, R: Const{V: b.V}})
		}
		term(lo, OpGe, OpGt)
		term(hi, OpLe, OpLt)
		r.obsScan(st, r.Count())
		return r.Select(And{Terms: terms})
	}

	// The window runs from the first position past null (null sorts first
	// and satisfies no range) or the lower bound, to the upper bound; a
	// bound that excludes (lower) or includes (upper) its own value sits
	// just past every key that starts with that value's encoding.
	from, to := string([]byte{tagNull + 1}), ""
	if lo != nil {
		if from = EncodeValues(lo.V); lo.Strict {
			from = prefixSuccessor(from)
		}
	}
	if hi != nil {
		if to = EncodeValues(hi.V); !hi.Strict {
			to = prefixSuccessor(to)
		}
	}
	var out []Tuple
	t.ascend(from, func(k string, t Tuple) bool {
		if hi != nil && k >= to {
			return false
		}
		out = append(out, t.Clone())
		return true
	})
	if !pkOrder {
		// An index walk comes out in indexed-value order; put the window
		// back in primary-key order (Compare order is codec order).
		sort.Slice(out, func(i, j int) bool {
			for _, k := range r.schema.key {
				if c, _ := Compare(out[i][k], out[j][k]); c != 0 {
					return c < 0
				}
			}
			return false
		})
	}
	r.obsProbe(st, len(out))
	return out, nil
}
