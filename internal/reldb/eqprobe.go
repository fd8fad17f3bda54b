package reldb

// EqConjunction decomposes pred into an attribute-name list and the
// constant values they are compared with, when pred is a pure
// conjunction of unqualified attribute = constant equalities (a single
// Cmp, or an And whose terms are all such Cmps, either operand order).
// Such predicates are exactly the ones a MatchEqual probe can answer.
// Anything else — other operators, qualified attribute references,
// nested boolean structure, attribute-to-attribute comparisons — returns
// ok=false, leaving the caller on the scan path with its full predicate
// semantics (including error reporting).
func EqConjunction(pred Expr) (attrNames []string, vals Tuple, ok bool) {
	var terms []Expr
	switch p := pred.(type) {
	case Cmp:
		terms = []Expr{p}
	case And:
		terms = p.Terms
	default:
		return nil, nil, false
	}
	if len(terms) == 0 {
		return nil, nil, false
	}
	attrNames = make([]string, 0, len(terms))
	vals = make(Tuple, 0, len(terms))
	for _, t := range terms {
		cmp, isCmp := t.(Cmp)
		if !isCmp || cmp.Op != OpEq {
			return nil, nil, false
		}
		a, aOK := cmp.L.(Attr)
		c, cOK := cmp.R.(Const)
		if !aOK || !cOK {
			a, aOK = cmp.R.(Attr)
			c, cOK = cmp.L.(Const)
		}
		if !aOK || !cOK || a.Rel != "" {
			return nil, nil, false
		}
		attrNames = append(attrNames, a.Name)
		vals = append(vals, c.V)
	}
	return attrNames, vals, true
}

// ProbeableEqual reports whether a MatchEqual over attrNames/vals on
// this relation version is guaranteed to return exactly the tuples a
// predicate scan for the same equality conjunction would — so a caller
// holding an EqConjunction decomposition may substitute the probe for
// the scan. The guarantee requires:
//
//   - every attribute resolves, with no duplicates (MatchEqual rejects
//     duplicates; a contradictory duplicate also needs scan semantics);
//   - no constant is null (x = null is three-valued null, which a scan
//     treats as no-match but checkLookupVals may reject as an error);
//   - every constant's kind exactly equals its attribute's declared
//     type, that type is not Float, and the constant lies in the key
//     codec's exact domain: anything else is left to the scan, which
//     gives it the predicate's semantics (numeric equality, no match
//     for an int no key can hold) where checkLookupVals would report
//     an error;
//   - an access path better than a scan exists (primary-key set or a
//     covering secondary index) — otherwise probing buys nothing.
func (r *Relation) ProbeableEqual(attrNames []string, vals Tuple) bool {
	if len(attrNames) == 0 || len(attrNames) != len(vals) {
		return false
	}
	pl, err := r.planFor("ProbeableEqual", attrNames)
	if err != nil {
		return false
	}
	for i, j := range pl.idx {
		a := r.schema.Attr(j)
		v := vals[i]
		if v.IsNull() || a.Type == KindFloat || v.Kind() != a.Type || !keyEncodable(v) {
			return false
		}
	}
	return pl.kind != planScan
}
