package structural

import (
	"fmt"
	"strings"

	"penguin/internal/reldb"
)

// Resolver resolves relation names to relations. Both *reldb.Database and
// *reldb.Tx satisfy it; integrity routines that run inside a transaction
// must be handed the transaction, because Database.Relation takes the
// database lock the transaction already holds.
type Resolver interface {
	Relation(name string) (*reldb.Relation, error)
}

// ConnectedVia returns the tuples of e.Target() connected to tuple across
// the edge, resolving relations through res. A null connecting value on
// the source side connects to nothing.
func ConnectedVia(res Resolver, e Edge, tuple reldb.Tuple) ([]reldb.Tuple, error) {
	return ConnectedViaStats(res, e, tuple, nil)
}

// ConnectedViaStats is ConnectedVia that additionally accumulates lookup
// cost into st (which may be nil).
func ConnectedViaStats(res Resolver, e Edge, tuple reldb.Tuple, st *reldb.MatchStats) ([]reldb.Tuple, error) {
	srcRel, err := res.Relation(e.Source())
	if err != nil {
		return nil, err
	}
	srcIdx, err := srcRel.Schema().Indices(e.SourceAttrs())
	if err != nil {
		return nil, err
	}
	vals := make(reldb.Tuple, len(srcIdx))
	for i, j := range srcIdx {
		if tuple[j].IsNull() {
			return nil, nil
		}
		vals[i] = tuple[j]
	}
	tgtRel, err := res.Relation(e.Target())
	if err != nil {
		return nil, err
	}
	matches, err := tgtRel.MatchEqualStats(e.TargetAttrs(), vals, st)
	if err != nil {
		return nil, err
	}
	if matches == nil {
		// Non-nil even when empty: a nil result is reserved for the
		// null-connecting-value case above.
		matches = []reldb.Tuple{}
	}
	return matches, nil
}

// DeleteAction selects how a deletion of a referenced tuple treats its
// referencing tuples (Definition 2.3, criterion 2).
type DeleteAction uint8

// Delete actions for reference connections.
const (
	// DeleteRestrict rejects the deletion while referencing tuples exist.
	DeleteRestrict DeleteAction = iota
	// DeleteCascade deletes the referencing tuples (recursively applying
	// their own integrity rules).
	DeleteCascade
	// DeleteSetNull assigns null to the referencing attributes.
	DeleteSetNull
)

// String implements fmt.Stringer.
func (a DeleteAction) String() string {
	switch a {
	case DeleteRestrict:
		return "restrict"
	case DeleteCascade:
		return "cascade"
	case DeleteSetNull:
		return "set-null"
	default:
		return fmt.Sprintf("deleteaction(%d)", uint8(a))
	}
}

// Policy configures, per reference connection name, how Delete treats
// referencing tuples. Connections absent from the map use DeleteRestrict.
type Policy struct {
	// OnRefDelete applies when a referenced tuple is deleted, keyed by
	// the reference connection's name.
	OnRefDelete map[string]DeleteAction
}

// refDelete returns the configured delete action for connection name.
func (p *Policy) refDelete(name string) DeleteAction {
	if p == nil || p.OnRefDelete == nil {
		return DeleteRestrict
	}
	return p.OnRefDelete[name]
}

// Integrity enforces the structural model's rules over a graph.
type Integrity struct {
	G      *Graph
	Policy *Policy
}

// Delete removes the tuple with the given key from rel inside tx,
// propagating per the structural model:
//
//   - owned and subset tuples are deleted recursively (criterion 2 of
//     Definitions 2.2 and 2.4);
//   - referencing tuples are handled per the policy's delete action
//     (criterion 2 of Definition 2.3): restrict, cascade, or set-null.
//
// It returns the total number of database operations performed.
func (in *Integrity) Delete(tx *reldb.Tx, rel string, key reldb.Tuple) (int, error) {
	r, err := tx.Relation(rel)
	if err != nil {
		return 0, err
	}
	tuple, ok := r.Get(key)
	if !ok {
		return 0, fmt.Errorf("structural: delete from %s: %w", rel, reldb.ErrNoSuchTuple)
	}
	before := tx.OpCount()
	if err := in.deleteTuple(tx, rel, tuple); err != nil {
		return tx.OpCount() - before, err
	}
	return tx.OpCount() - before, nil
}

func (in *Integrity) deleteTuple(tx *reldb.Tx, rel string, tuple reldb.Tuple) error {
	r, err := tx.Relation(rel)
	if err != nil {
		return err
	}
	key := r.Schema().KeyOf(tuple)
	// A diamond-shaped cascade may reach the same tuple twice; the second
	// visit finds it already gone and has nothing left to do.
	if !r.Has(key) {
		return nil
	}
	// Handle incoming references first (they may restrict).
	for _, c := range in.G.Incoming(rel) {
		if c.Type != Reference {
			continue
		}
		referencing, err := ConnectedVia(tx, Edge{Conn: c, Forward: false}, tuple)
		if err != nil {
			return err
		}
		if len(referencing) == 0 {
			continue
		}
		switch in.Policy.refDelete(c.Name) {
		case DeleteRestrict:
			return fmt.Errorf("structural: delete from %s restricted by %s: %d referencing tuple(s) in %s",
				rel, c, len(referencing), c.From)
		case DeleteCascade:
			for _, rt := range referencing {
				if err := in.deleteTuple(tx, c.From, rt); err != nil {
					return err
				}
			}
		case DeleteSetNull:
			fromRel, err := tx.Relation(c.From)
			if err != nil {
				return err
			}
			idx, err := fromRel.Schema().Indices(c.FromAttrs)
			if err != nil {
				return err
			}
			for _, rt := range referencing {
				nt := rt.Clone()
				for _, j := range idx {
					nt[j] = reldb.Null()
				}
				if _, err := tx.Replace(c.From, fromRel.Schema().KeyOf(rt), nt); err != nil {
					return fmt.Errorf("structural: set-null on %s: %w", c, err)
				}
			}
		}
	}
	// Cascade to owned and subset tuples.
	for _, c := range in.G.Outgoing(rel) {
		switch c.Type {
		case Ownership, Subset:
			dependents, err := ConnectedVia(tx, Edge{Conn: c, Forward: true}, tuple)
			if err != nil {
				return err
			}
			for _, dt := range dependents {
				if err := in.deleteTuple(tx, c.To, dt); err != nil {
					return err
				}
			}
		}
	}
	if _, err := tx.Delete(rel, key); err != nil {
		return err
	}
	return nil
}

// Violation reports one integrity failure found by Audit.
type Violation struct {
	Conn *Connection
	// Rel is the relation holding the offending tuple.
	Rel   string
	Tuple reldb.Tuple
	// Reason describes the failed criterion.
	Reason string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: tuple %s of %s: %s", v.Conn, v.Tuple, v.Rel, v.Reason)
}

// Audit scans the whole database for violations of every connection's
// existence criteria. It is the ground-truth checker used by tests and by
// the baseline-comparison experiment (a flat-view deletion leaves orphans
// that Audit reports; the view-object translation leaves none).
func (in *Integrity) Audit(res Resolver) ([]Violation, error) {
	var out []Violation
	for _, c := range in.G.Connections() {
		switch c.Type {
		case Ownership, Subset:
			// Every To tuple must be connected to a From tuple.
			toRel, err := res.Relation(c.To)
			if err != nil {
				return nil, err
			}
			var scanErr error
			toRel.Scan(func(t reldb.Tuple) bool {
				owners, err := ConnectedVia(res, Edge{Conn: c, Forward: false}, t)
				if err != nil {
					scanErr = err
					return false
				}
				if len(owners) == 0 {
					out = append(out, Violation{
						Conn: c, Rel: c.To, Tuple: t.Clone(),
						Reason: fmt.Sprintf("orphan: no %s tuple in %s", c.Type, c.From),
					})
				}
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
		case Reference:
			// Every From tuple must reference an existing To tuple or be null.
			fromRel, err := res.Relation(c.From)
			if err != nil {
				return nil, err
			}
			var scanErr error
			fromRel.Scan(func(t reldb.Tuple) bool {
				matches, err := ConnectedVia(res, Edge{Conn: c, Forward: true}, t)
				if err != nil {
					scanErr = err
					return false
				}
				if matches != nil && len(matches) == 0 {
					out = append(out, Violation{
						Conn: c, Rel: c.From, Tuple: t.Clone(),
						Reason: fmt.Sprintf("dangling reference into %s", c.To),
					})
				}
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
		}
	}
	return out, nil
}

// FormatViolations renders violations one per line for reports.
func FormatViolations(vs []Violation) string {
	if len(vs) == 0 {
		return "no violations"
	}
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = v.String()
	}
	return strings.Join(lines, "\n")
}
