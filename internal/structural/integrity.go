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
type Resolver = reldb.Resolver

// ConnectedVia returns the rows of e.Target() connected to row across
// the edge, resolving relations through res. A null connecting value on
// the source side connects to nothing.
func ConnectedVia(res Resolver, e Edge, row reldb.Row) ([]reldb.Row, error) {
	return ConnectedViaStats(res, e, row, nil)
}

// ConnectedViaStats is ConnectedVia that additionally accumulates lookup
// cost into st (which may be nil).
func ConnectedViaStats(res Resolver, e Edge, row reldb.Row, st *reldb.MatchStats) ([]reldb.Row, error) {
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
		if row.At(j).IsNull() {
			return nil, nil
		}
		vals[i] = row.At(j)
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
		matches = []reldb.Row{}
	}
	return matches, nil
}

// Integrity checks the structural model's rules over a graph.
type Integrity struct {
	G *Graph
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
			toRel.Scan(func(t reldb.Row) bool {
				owners, err := ConnectedVia(res, Edge{Conn: c, Forward: false}, t)
				if err != nil {
					scanErr = err
					return false
				}
				if len(owners) == 0 {
					out = append(out, Violation{
						Conn: c, Rel: c.To, Tuple: t.Tuple(),
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
			fromRel.Scan(func(t reldb.Row) bool {
				matches, err := ConnectedVia(res, Edge{Conn: c, Forward: true}, t)
				if err != nil {
					scanErr = err
					return false
				}
				if matches != nil && len(matches) == 0 {
					out = append(out, Violation{
						Conn: c, Rel: c.From, Tuple: t.Tuple(),
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
