package keller

import (
	"errors"
	"fmt"

	"penguin/internal/obs"
	"penguin/internal/reldb"
)

// ErrRejected wraps every policy rejection of the flat-view translator.
var ErrRejected = errors.New("view update rejected by translator")

// RelationPolicy holds the per-relation permissions a Keller dialog
// establishes at view-definition time (Keller 1986).
type RelationPolicy struct {
	// AllowInsert permits inserting new tuples during view insertions
	// and replacements.
	AllowInsert bool
	// AllowModify permits replacing existing tuples.
	AllowModify bool
	// AllowKeyReplace permits replacing the tuple's key during view
	// replacements (root relation only; elsewhere key changes insert).
	AllowKeyReplace bool
}

// Translator is the flat-view update translator: the view plus the
// per-relation policies the definition-time dialog chose.
type Translator struct {
	View *View
	// Policy maps relation names to their permissions; absent relations
	// deny everything.
	Policy map[string]RelationPolicy
}

// PermissiveTranslator allows every operation on every joined relation.
func PermissiveTranslator(v *View) *Translator {
	t := &Translator{View: v, Policy: make(map[string]RelationPolicy)}
	for _, j := range v.Joins {
		t.Policy[j.Relation] = RelationPolicy{AllowInsert: true, AllowModify: true, AllowKeyReplace: true}
	}
	return t
}

func (t *Translator) policy(rel string) RelationPolicy { return t.Policy[rel] }

// Result mirrors the view-object updater's result: the primitive
// operations one view update translated into.
type Result struct {
	Inserts  int
	Deletes  int
	Replaces int
}

// Total returns the number of database operations performed.
func (r *Result) Total() int { return r.Inserts + r.Deletes + r.Replaces }

// Insert translates a view insertion (Keller 1985): for each relation of
// the query graph, the view tuple's attributes for that relation build a
// base tuple (attributes the view projects out become null); then
//
//	case 1 — an identical tuple exists: reject for the root relation,
//	         no-op elsewhere;
//	case 2 — the key is free: insert;
//	case 3 — the key exists with conflicting values: replace, when the
//	         policy allows modification.
//
// The whole translation runs in one transaction.
func (t *Translator) Insert(viewTuple reldb.Tuple) (*Result, error) {
	op := obs.Default.StartOp("keller.insert")
	res := &Result{}
	err := t.View.db.RunInTx(func(tx *reldb.Tx) error {
		tx.SetTraceOp(op)
		schema := t.View.schema
		if len(viewTuple) != schema.Arity() {
			return fmt.Errorf("keller: view tuple arity %d, want %d", len(viewTuple), schema.Arity())
		}
		for i, j := range t.View.Joins {
			if err := t.insertIntoRelation(tx, res, schema, viewTuple, j.Relation, i == 0); err != nil {
				return err
			}
		}
		return nil
	})
	return finishOp(op, res, err)
}

func (t *Translator) insertIntoRelation(tx *reldb.Tx, res *Result, viewSchema *reldb.Schema,
	viewTuple reldb.Tuple, relName string, isRoot bool) error {

	rel, err := tx.Relation(relName)
	if err != nil {
		return err
	}
	base := rel.Schema()
	attrMap := t.View.attrMaps[relName]
	bt := make(reldb.Tuple, base.Arity())
	for bi, vi := range attrMap {
		bt[bi] = viewTuple[vi]
	}
	if err := base.CheckTuple(bt); err != nil {
		return fmt.Errorf("keller: %s: building %s tuple: %w", t.View.Name, relName, err)
	}
	key := base.KeyOf(bt)
	existing, exists := rel.Get(key)
	switch {
	case exists && visibleEqual(bt, existing, attrMap):
		if isRoot {
			return fmt.Errorf("keller: %s: identical tuple already exists in root relation %s: %w",
				t.View.Name, relName, ErrRejected)
		}
		return nil
	case !exists:
		if !t.policy(relName).AllowInsert {
			return fmt.Errorf("keller: %s: insertions into %s are not allowed: %w",
				t.View.Name, relName, ErrRejected)
		}
		if err := tx.Insert(relName, bt); err != nil {
			return err
		}
		res.Inserts++
		return nil
	default:
		if !t.policy(relName).AllowModify {
			return fmt.Errorf("keller: %s: modifications of %s are not allowed: %w",
				t.View.Name, relName, ErrRejected)
		}
		merged := existing.Tuple()
		for bi, vi := range attrMap {
			merged[bi] = viewTuple[vi]
		}
		if _, err := tx.Replace(relName, key, merged); err != nil {
			return err
		}
		res.Replaces++
		return nil
	}
}

// finishOp closes a translation's root span and shapes its return: a
// rejected translation finishes its span too (detail err=…) — the
// failures are the traces one wants.
func finishOp(op obs.Op, res *Result, err error) (*Result, error) {
	if err != nil {
		if op.Active() {
			op.Finish(fmt.Sprintf("err=%v", err))
		}
		return nil, err
	}
	if op.Active() {
		op.Finish(fmt.Sprintf("ops=%d", res.Total()))
	}
	return res, nil
}

// visibleEqual compares a constructed tuple with an existing one on the
// attributes the view exposes.
func visibleEqual(bt reldb.Tuple, existing reldb.Row, attrMap map[int]int) bool {
	for bi := range attrMap {
		if !bt[bi].Equal(existing.At(bi)) {
			return false
		}
	}
	return true
}

// Delete translates a view deletion: Keller's algorithm deletes the
// matching tuple from the root relation of the query graph — and nothing
// else. The paper's §5.1 starts from exactly this behaviour to show why
// view objects need more: dependent tuples in other relations survive as
// orphans (the comparison experiment measures them).
func (t *Translator) Delete(viewTuple reldb.Tuple) (*Result, error) {
	op := obs.Default.StartOp("keller.delete")
	res := &Result{}
	err := t.View.db.RunInTx(func(tx *reldb.Tx) error {
		tx.SetTraceOp(op)
		rootName := t.View.Root()
		rel, err := tx.Relation(rootName)
		if err != nil {
			return err
		}
		base := rel.Schema()
		attrMap := t.View.attrMaps[rootName]
		bt := make(reldb.Tuple, base.Arity())
		for bi, vi := range attrMap {
			bt[bi] = viewTuple[vi]
		}
		key := base.KeyOf(bt)
		if _, err := tx.Delete(rootName, key); err != nil {
			return err
		}
		res.Deletes++
		return nil
	})
	return finishOp(op, res, err)
}

// Replace translates a view replacement with the R/I two-state discipline
// restricted to flat tuples: per relation, matching keys with differing
// values replace; a key change replaces the root tuple's key (when
// allowed) and inserts elsewhere.
func (t *Translator) Replace(oldTuple, newTuple reldb.Tuple) (*Result, error) {
	op := obs.Default.StartOp("keller.replace")
	res := &Result{}
	err := t.View.db.RunInTx(func(tx *reldb.Tx) error {
		tx.SetTraceOp(op)
		schema := t.View.schema
		for i, j := range t.View.Joins {
			if err := t.replaceInRelation(tx, res, schema, oldTuple, newTuple, j.Relation, i == 0); err != nil {
				return err
			}
		}
		return nil
	})
	return finishOp(op, res, err)
}

func (t *Translator) replaceInRelation(tx *reldb.Tx, res *Result, viewSchema *reldb.Schema,
	oldTuple, newTuple reldb.Tuple, relName string, isRoot bool) error {

	rel, err := tx.Relation(relName)
	if err != nil {
		return err
	}
	base := rel.Schema()
	attrMap := t.View.attrMaps[relName]
	ot := make(reldb.Tuple, base.Arity())
	nt := make(reldb.Tuple, base.Arity())
	for bi, vi := range attrMap {
		ot[bi] = oldTuple[vi]
		nt[bi] = newTuple[vi]
	}
	if err := base.CheckTuple(nt); err != nil {
		return fmt.Errorf("keller: %s: building %s tuple: %w", t.View.Name, relName, err)
	}
	oldKey, newKey := base.KeyOf(ot), base.KeyOf(nt)
	p := t.policy(relName)
	if oldKey.Equal(newKey) {
		// Same key: merge visible changes into the stored tuple.
		existing, ok := rel.Get(oldKey)
		if !ok {
			return fmt.Errorf("keller: %s: %s tuple %s no longer exists: %w",
				t.View.Name, relName, oldKey, reldb.ErrNoSuchTuple)
		}
		merged := existing.Tuple()
		changed := false
		for bi, vi := range attrMap {
			if !merged[bi].Equal(newTuple[vi]) {
				merged[bi] = newTuple[vi]
				changed = true
			}
		}
		if !changed {
			return nil
		}
		if !p.AllowModify {
			return fmt.Errorf("keller: %s: modifications of %s are not allowed: %w",
				t.View.Name, relName, ErrRejected)
		}
		if _, err := tx.Replace(relName, oldKey, merged); err != nil {
			return err
		}
		res.Replaces++
		return nil
	}
	if isRoot {
		if !p.AllowKeyReplace {
			return fmt.Errorf("keller: %s: key replacements in %s are not allowed: %w",
				t.View.Name, relName, ErrRejected)
		}
		if _, err := tx.Replace(relName, oldKey, nt); err != nil {
			return err
		}
		res.Replaces++
		return nil
	}
	// Non-root key change: insertion semantics.
	if existing, exists := rel.Get(newKey); exists {
		if visibleEqual(nt, existing, attrMap) {
			return nil
		}
		if !p.AllowModify {
			return fmt.Errorf("keller: %s: modifications of %s are not allowed: %w",
				t.View.Name, relName, ErrRejected)
		}
		merged := existing.Tuple()
		for bi, vi := range attrMap {
			merged[bi] = newTuple[vi]
		}
		if _, err := tx.Replace(relName, newKey, merged); err != nil {
			return err
		}
		res.Replaces++
		return nil
	}
	if !p.AllowInsert {
		return fmt.Errorf("keller: %s: insertions into %s are not allowed: %w",
			t.View.Name, relName, ErrRejected)
	}
	if err := tx.Insert(relName, nt); err != nil {
		return err
	}
	res.Inserts++
	return nil
}
