package keller

import (
	"fmt"
	"sort"
	"strings"

	"penguin/internal/reldb"
)

// Translation-space enumeration (§4 of the view-object paper, after
// Keller 1985): "we specify an enumeration of all possible valid
// translations into sequences of database updates of each view update …
// This enumeration is based on five validity criteria that must all be
// satisfied. … We do not actually instantiate this enumeration, we merely
// use it to define the space of alternatives."
//
// This file *does* instantiate the enumeration for view deletions, making
// the ambiguity the paper talks about concrete: each candidate translation
// is a set of primitive operations on the base relations; candidates are
// validated semantically by applying them to a scratch copy of the
// database and re-materializing the view. The criteria checked are the
// classical ones, specialized to deletions:
//
//	C1 (effect)      — the requested view tuple disappears from the view;
//	C2 (no side effects) — no other view tuple appears or disappears;
//	C3 (minimality)  — no proper subset of the operations satisfies C1+C2;
//	C4 (database consistency) — every operation is executable (keys exist);
//	C5 (determinism) — the translation is a function of the request and
//	                   the database state only (guaranteed by construction:
//	                   candidates are built syntactically from the request).
//
// The chosen translator (see dialog.go) then corresponds to picking one
// valid candidate class once, at view-definition time.

// CandidateOp is one primitive operation of a candidate translation.
type CandidateOp struct {
	// Kind is "delete" or "set-null".
	Kind string
	// Relation is the affected base relation.
	Relation string
	// Key identifies the affected tuple.
	Key reldb.Tuple
	// Attrs are the attributes nulled by a set-null operation.
	Attrs []string
}

// String implements fmt.Stringer.
func (op CandidateOp) String() string {
	if op.Kind == "set-null" {
		return fmt.Sprintf("set-null %s key %s (%s)", op.Relation, op.Key, strings.Join(op.Attrs, ","))
	}
	return fmt.Sprintf("%s %s key %s", op.Kind, op.Relation, op.Key)
}

// Candidate is one member of the translation space.
type Candidate struct {
	Ops []CandidateOp
	// Valid reports whether all criteria hold; Reason explains the first
	// violated criterion otherwise.
	Valid  bool
	Reason string
}

// String implements fmt.Stringer.
func (c Candidate) String() string {
	parts := make([]string, len(c.Ops))
	for i, op := range c.Ops {
		parts[i] = op.String()
	}
	status := "VALID"
	if !c.Valid {
		status = "invalid: " + c.Reason
	}
	return fmt.Sprintf("{%s} — %s", strings.Join(parts, "; "), status)
}

// EnumerateDeletionTranslations builds the space of candidate translations
// for deleting one view tuple: every nonempty combination of per-relation
// primitive operations (deleting the matching base tuple, or nulling its
// visible join attributes where the schema allows), each validated against
// the five criteria on a scratch copy of the database.
func (t *Translator) EnumerateDeletionTranslations(viewTuple reldb.Tuple) ([]Candidate, error) {
	v := t.View
	schema := v.schema
	if len(viewTuple) != schema.Arity() {
		return nil, fmt.Errorf("keller: view tuple arity %d, want %d", len(viewTuple), schema.Arity())
	}
	// Primitive operations available per relation.
	var prims []CandidateOp
	for _, j := range v.Joins {
		rel, err := v.db.Relation(j.Relation)
		if err != nil {
			return nil, err
		}
		base := rel.Schema()
		attrMap := v.attrMaps[j.Relation]
		bt := make(reldb.Tuple, base.Arity())
		for bi, vi := range attrMap {
			bt[bi] = viewTuple[vi]
		}
		key := base.KeyOf(bt)
		prims = append(prims, CandidateOp{Kind: "delete", Relation: j.Relation, Key: key})
		// Set-null on nullable non-key join attributes disconnects the
		// tuple from the join without deleting it.
		var nullable []string
		for bi := range attrMap {
			a := base.Attr(bi)
			if a.Nullable && !base.IsKeyAttr(bi) && isJoinAttr(v, j.Relation, a.Name) {
				nullable = append(nullable, a.Name)
			}
		}
		if len(nullable) > 0 {
			sort.Strings(nullable)
			prims = append(prims, CandidateOp{Kind: "set-null", Relation: j.Relation, Key: key, Attrs: nullable})
		}
	}
	// The space: every nonempty subset of the primitives (bounded — a
	// view joins a handful of relations).
	if len(prims) > 12 {
		return nil, fmt.Errorf("keller: translation space too large (%d primitives)", len(prims))
	}
	baseline, err := v.Materialize()
	if err != nil {
		return nil, err
	}
	wantGone := viewTuple.Encode()
	var out []Candidate
	for mask := 1; mask < 1<<len(prims); mask++ {
		var ops []CandidateOp
		for i := range prims {
			if mask&(1<<i) != 0 {
				ops = append(ops, prims[i])
			}
		}
		out = append(out, t.judge(ops, applyDeletionOp, baseline, wantGone, false))
	}
	// C3 (minimality): a valid candidate whose ops are a strict superset
	// of another valid candidate's ops is non-minimal.
	markNonMinimal(out)
	return out, nil
}

// isJoinAttr reports whether rel.attr participates in some join condition.
func isJoinAttr(v *View, rel, attr string) bool {
	q := qualify(rel, attr)
	for _, j := range v.Joins[1:] {
		for i := range j.LeftAttrs {
			if j.LeftAttrs[i] == q || qualify(j.Relation, j.RightAttrs[i]) == q {
				return true
			}
		}
	}
	return false
}

// fork returns a private database over db's current snapshot: writes to
// it copy the paths they touch and leave db untouched.
func fork(db *reldb.Database) *reldb.Database {
	rtx := db.BeginRead()
	defer rtx.Close()
	return rtx.Fork()
}

// judge applies ops to a scratch fork of the view's database, each
// through apply, and checks C4 (every op executes and the view
// re-materializes), C1 (the view tuple encoded as target is present
// afterwards when appear is set, absent otherwise) and C2 (no other view
// tuple appears or disappears). Deletion and insertion differ in C1's
// direction and in how each failure is worded.
func (t *Translator) judge(ops []CandidateOp, apply func(*reldb.Tx, CandidateOp) error, baseline *reldb.ResultSet, target string, appear bool) Candidate {
	cand := Candidate{Ops: ops}
	scratch := fork(t.View.db)
	err := scratch.RunInTx(func(tx *reldb.Tx) error {
		for _, op := range ops {
			if err := apply(tx, op); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		cand.Reason = err.Error()
		return cand
	}
	scratchView := *t.View
	scratchView.db = scratch
	after, err := scratchView.Materialize()
	if err != nil {
		cand.Reason = "C4: " + err.Error()
		return cand
	}
	beforeSet, afterSet := rowSet(baseline), rowSet(after)
	c1, appeared, disappeared := "C1: the view tuple survives", "C2: a new view tuple appeared", "C2: another view tuple disappeared"
	if appear {
		c1, appeared, disappeared = "C1: the view tuple does not appear", "C2: an extraneous view tuple appeared", "C2: an existing view tuple disappeared"
	}
	switch {
	case afterSet[target] != appear:
		cand.Reason = c1
	case holdsOther(afterSet, beforeSet, target):
		cand.Reason = appeared
	case holdsOther(beforeSet, afterSet, target):
		cand.Reason = disappeared
	default:
		cand.Valid = true
	}
	return cand
}

// holdsOther reports whether set a holds a view tuple besides target
// that set b lacks.
func holdsOther(a, b map[string]bool, target string) bool {
	for enc := range a {
		if enc != target && !b[enc] {
			return true
		}
	}
	return false
}

// applyDeletionOp executes one deletion primitive: a delete, or a
// set-null of the op's attributes.
func applyDeletionOp(tx *reldb.Tx, op CandidateOp) error {
	switch op.Kind {
	case "delete":
		if _, err := tx.Delete(op.Relation, op.Key); err != nil {
			return fmt.Errorf("C4: %s: %w", op, err)
		}
	case "set-null":
		rel, err := tx.Relation(op.Relation)
		if err != nil {
			return err
		}
		old, ok := rel.Get(op.Key)
		if !ok {
			return fmt.Errorf("C4: %s: tuple missing", op)
		}
		nt := old.Tuple()
		idx, err := rel.Schema().Indices(op.Attrs)
		if err != nil {
			return err
		}
		for _, j := range idx {
			nt[j] = reldb.Null()
		}
		if _, err := tx.Replace(op.Relation, op.Key, nt); err != nil {
			return fmt.Errorf("C4: %s: %w", op, err)
		}
	}
	return nil
}

func rowSet(rs *reldb.ResultSet) map[string]bool {
	out := make(map[string]bool, rs.Len())
	for _, r := range rs.Rows {
		out[r.Encode()] = true
	}
	return out
}

// markNonMinimal demotes valid candidates that strictly contain another
// valid candidate (criterion C3).
func markNonMinimal(cands []Candidate) {
	key := func(op CandidateOp) string {
		return op.Kind + "|" + op.Relation + "|" + op.Key.Encode() + "|" + strings.Join(op.Attrs, ",")
	}
	sets := make([]map[string]bool, len(cands))
	for i, c := range cands {
		sets[i] = make(map[string]bool, len(c.Ops))
		for _, op := range c.Ops {
			sets[i][key(op)] = true
		}
	}
	for i := range cands {
		if !cands[i].Valid {
			continue
		}
		for j := range cands {
			if i == j || !cands[j].Valid || len(sets[j]) >= len(sets[i]) {
				continue
			}
			subset := true
			for k := range sets[j] {
				if !sets[i][k] {
					subset = false
					break
				}
			}
			if subset {
				cands[i].Valid = false
				cands[i].Reason = "C3: not minimal (a smaller valid translation exists)"
				break
			}
		}
	}
}

// ValidTranslations filters the enumeration to the valid candidates —
// the "space of alternatives" among which the dialog-chosen translator
// picks.
func (t *Translator) ValidTranslations(viewTuple reldb.Tuple) ([]Candidate, error) {
	all, err := t.EnumerateDeletionTranslations(viewTuple)
	if err != nil {
		return nil, err
	}
	var valid []Candidate
	for _, c := range all {
		if c.Valid {
			valid = append(valid, c)
		}
	}
	return valid, nil
}

// EnumerateInsertionTranslations builds the space of candidate
// translations for inserting one view tuple: per joined relation, the
// applicable primitives are inserting the constructed base tuple (when
// its key is free), replacing the existing tuple's visible attributes
// (when the key is taken with conflicting values), or leaving the
// relation alone; the space is every combination with at least one
// operation. Criteria C1 (the new view tuple appears), C2 (nothing else
// changes), C3 (minimality), and C4 (executability) are validated on a
// scratch database. Insertion criteria differ from deletion in C1's
// direction only.
func (t *Translator) EnumerateInsertionTranslations(viewTuple reldb.Tuple) ([]Candidate, error) {
	v := t.View
	schema := v.schema
	if len(viewTuple) != schema.Arity() {
		return nil, fmt.Errorf("keller: view tuple arity %d, want %d", len(viewTuple), schema.Arity())
	}
	type option struct {
		op   *CandidateOp // nil = leave the relation alone
		note string
	}
	var perRel [][]option
	for _, j := range v.Joins {
		rel, err := v.db.Relation(j.Relation)
		if err != nil {
			return nil, err
		}
		base := rel.Schema()
		attrMap := v.attrMaps[j.Relation]
		bt := make(reldb.Tuple, base.Arity())
		for bi, vi := range attrMap {
			bt[bi] = viewTuple[vi]
		}
		if err := base.CheckTuple(bt); err != nil {
			return nil, fmt.Errorf("keller: building %s tuple: %w", j.Relation, err)
		}
		key := base.KeyOf(bt)
		opts := []option{{op: nil, note: "skip"}}
		existing, exists := rel.Get(key)
		switch {
		case !exists:
			opts = append(opts, option{op: &CandidateOp{Kind: "insert", Relation: j.Relation, Key: key}})
		case !visibleEqual(bt, existing, attrMap):
			opts = append(opts, option{op: &CandidateOp{Kind: "replace", Relation: j.Relation, Key: key}})
		}
		perRel = append(perRel, opts)
	}
	baseline, err := v.Materialize()
	if err != nil {
		return nil, err
	}
	wantNew := viewTuple.Encode()
	apply := func(tx *reldb.Tx, op CandidateOp) error { return t.applyInsertionOp(tx, op, viewTuple) }
	var out []Candidate
	var walk func(i int, ops []CandidateOp)
	walk = func(i int, ops []CandidateOp) {
		if i == len(perRel) {
			if len(ops) == 0 {
				return
			}
			out = append(out, t.judge(append([]CandidateOp(nil), ops...), apply, baseline, wantNew, true))
			return
		}
		for _, o := range perRel[i] {
			if o.op == nil {
				walk(i+1, ops)
			} else {
				walk(i+1, append(ops, *o.op))
			}
		}
	}
	walk(0, nil)
	markNonMinimal(out)
	return out, nil
}

// applyInsertionOp executes one insertion primitive, building the base
// tuple from viewTuple: an insert, or a replace of the existing tuple's
// visible attributes.
func (t *Translator) applyInsertionOp(tx *reldb.Tx, op CandidateOp, viewTuple reldb.Tuple) error {
	rel, err := tx.Relation(op.Relation)
	if err != nil {
		return err
	}
	base := rel.Schema()
	attrMap := t.View.attrMaps[op.Relation]
	bt := make(reldb.Tuple, base.Arity())
	for bi, vi := range attrMap {
		bt[bi] = viewTuple[vi]
	}
	switch op.Kind {
	case "insert":
		if err := tx.Insert(op.Relation, bt); err != nil {
			return fmt.Errorf("C4: %s: %w", op, err)
		}
	case "replace":
		existing, ok := rel.Get(op.Key)
		if !ok {
			return fmt.Errorf("C4: %s: tuple missing", op)
		}
		merged := existing.Tuple()
		for bi, vi := range attrMap {
			merged[bi] = viewTuple[vi]
		}
		if _, err := tx.Replace(op.Relation, op.Key, merged); err != nil {
			return fmt.Errorf("C4: %s: %w", op, err)
		}
	}
	return nil
}
