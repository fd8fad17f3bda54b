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
// that Audit reports; the view-object translation leaves none). Each
// connection is crossed once for all of the checked relation's rows.
func (in *Integrity) Audit(res Resolver) ([]Violation, error) {
	var out []Violation
	for _, c := range in.G.Connections() {
		// Ownership and subset: every To tuple must be connected to a From
		// tuple. Reference: every From tuple must reference an existing To
		// tuple or be null.
		e, reason := Edge{Conn: c, Forward: false}, fmt.Sprintf("orphan: no %s tuple in %s", c.Type, c.From)
		if c.Type == Reference {
			e, reason = Edge{Conn: c, Forward: true}, fmt.Sprintf("dangling reference into %s", c.To)
		}
		rel, err := res.Relation(e.Source())
		if err != nil {
			return nil, err
		}
		rows := rel.All()
		matches, err := ConnectedVia(res, e, rows, nil)
		if err != nil {
			return nil, err
		}
		for i, m := range matches {
			// A null connecting value (nil) connects to nothing, which only
			// a reference allows.
			if len(m) == 0 && (m != nil || c.Type != Reference) {
				out = append(out, Violation{Conn: c, Rel: e.Source(), Tuple: rows[i].Tuple(), Reason: reason})
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
