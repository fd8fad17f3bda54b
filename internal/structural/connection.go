// Package structural implements the structural model of Wiederhold and
// ElMasri as used by the view-object paper (§2): a semantic data model over
// a relational database built from typed connections — ownership, reference,
// and subset — each carrying precise integrity rules (Definitions 2.2-2.4).
//
// The package provides three layers:
//
//   - Connection: a typed, validated edge between two relations.
//   - Graph: the directed-graph representation of a database schema
//     (vertices are relations, edges are connections), with traversal
//     helpers that expose both forward connections and their inverses.
//   - Integrity: an audit that scans a database for tuples violating the
//     connection rules. The rules are enforced on writes by the view-object
//     update translator (internal/vupdate), which cascades deletions and
//     key changes under the translator's policies.
package structural

import (
	"fmt"
	"strings"

	"penguin/internal/reldb"
)

// ConnType identifies the semantic type of a connection.
type ConnType uint8

// The three connection types of the structural model.
const (
	// Ownership (Definition 2.2), cardinality 1:n, symbol R1 —* R2.
	// Owned tuples in R2 are existence-dependent on their owner in R1:
	// X1 = K(R1) and X2 ⊂ K(R2).
	Ownership ConnType = iota
	// Reference (Definition 2.3), cardinality n:1, symbol R1 —> R2.
	// Referencing tuples in R1 point at an abstract entity in R2:
	// X1 ⊆ K(R1) or X1 ⊆ NK(R1), and X2 = K(R2).
	Reference
	// Subset (Definition 2.4), cardinality 1:[0,1], symbol R1 —⊃ R2.
	// R2 specializes R1: X1 = K(R1) and X2 = K(R2).
	Subset
)

// String implements fmt.Stringer.
func (t ConnType) String() string {
	switch t {
	case Ownership:
		return "ownership"
	case Reference:
		return "reference"
	case Subset:
		return "subset"
	default:
		return fmt.Sprintf("conntype(%d)", uint8(t))
	}
}

// Symbol returns the paper's graphical symbol for the connection type.
func (t ConnType) Symbol() string {
	switch t {
	case Ownership:
		return "--*"
	case Reference:
		return "-->"
	case Subset:
		return "--)"
	default:
		return "--?"
	}
}

// Connection is a typed edge from relation From to relation To, connected
// through the ordered attribute pair <FromAttrs, ToAttrs> (X1 and X2 in
// Definition 2.1). Two tuples are connected iff the values of the
// connecting attributes match.
type Connection struct {
	// Name labels the connection; unique within a Graph. If empty, a name
	// is derived from the endpoints when the connection is added.
	Name string
	// Type is the semantic connection type.
	Type ConnType
	// From and To are the connected relation names (R1 and R2).
	From, To string
	// FromAttrs and ToAttrs are the connecting attribute lists X1 and X2.
	// They must have equal length and pairwise identical domains.
	FromAttrs, ToAttrs []string
}

// String renders the connection using the paper's notation.
func (c *Connection) String() string {
	return fmt.Sprintf("%s(%s) %s %s(%s)",
		c.From, strings.Join(c.FromAttrs, ","),
		c.Type.Symbol(),
		c.To, strings.Join(c.ToAttrs, ","))
}

// Validate checks the connection against Definitions 2.1-2.4 given the
// schemas of its endpoint relations.
func (c *Connection) Validate(db *reldb.Database) error {
	fromRel, err := db.Relation(c.From)
	if err != nil {
		return fmt.Errorf("structural: connection %s: %w", c, err)
	}
	toRel, err := db.Relation(c.To)
	if err != nil {
		return fmt.Errorf("structural: connection %s: %w", c, err)
	}
	fs, ts := fromRel.Schema(), toRel.Schema()

	// Definition 2.1: identical number of attributes and domains.
	if len(c.FromAttrs) == 0 {
		return fmt.Errorf("structural: connection %s: empty attribute lists", c)
	}
	if len(c.FromAttrs) != len(c.ToAttrs) {
		return fmt.Errorf("structural: connection %s: X1 has %d attributes, X2 has %d",
			c, len(c.FromAttrs), len(c.ToAttrs))
	}
	fIdx, err := fs.Indices(c.FromAttrs)
	if err != nil {
		return fmt.Errorf("structural: connection %s: %w", c, err)
	}
	tIdx, err := ts.Indices(c.ToAttrs)
	if err != nil {
		return fmt.Errorf("structural: connection %s: %w", c, err)
	}
	for i := range fIdx {
		ft := fs.Attr(fIdx[i]).Type
		tt := ts.Attr(tIdx[i]).Type
		if ft != tt {
			return fmt.Errorf("structural: connection %s: attribute pair %s/%s has domains %s/%s",
				c, c.FromAttrs[i], c.ToAttrs[i], ft, tt)
		}
	}

	x1Kind := attrSetKind(fs, c.FromAttrs)
	x2Kind := attrSetKind(ts, c.ToAttrs)

	switch c.Type {
	case Ownership:
		// X1 = K(R1), X2 ⊂ K(R2) (proper subset: owned tuples need key
		// attributes of their own beyond the inherited owner key).
		if x1Kind != wholeKey {
			return fmt.Errorf("structural: ownership %s: X1 must equal K(%s)", c, c.From)
		}
		if x2Kind != properKeySubset {
			return fmt.Errorf("structural: ownership %s: X2 must be a proper subset of K(%s)", c, c.To)
		}
	case Reference:
		// X1 ⊆ K(R1) or X1 ⊆ NK(R1); X2 = K(R2).
		if x1Kind == mixed {
			return fmt.Errorf("structural: reference %s: X1 must lie entirely within K(%s) or within NK(%s)",
				c, c.From, c.From)
		}
		if x2Kind != wholeKey {
			return fmt.Errorf("structural: reference %s: X2 must equal K(%s)", c, c.To)
		}
	case Subset:
		// X1 = K(R1), X2 = K(R2).
		if x1Kind != wholeKey {
			return fmt.Errorf("structural: subset %s: X1 must equal K(%s)", c, c.From)
		}
		if x2Kind != wholeKey {
			return fmt.Errorf("structural: subset %s: X2 must equal K(%s)", c, c.To)
		}
	default:
		return fmt.Errorf("structural: connection %s: unknown type", c)
	}
	return nil
}

// attrSetKind classifies an attribute list against a schema's key.
type setKind uint8

const (
	wholeKey        setKind = iota // exactly the key attributes
	properKeySubset                // nonempty proper subset of the key
	nonKeyOnly                     // entirely non-key attributes
	mixed                          // spans key and non-key attributes
)

func attrSetKind(s *reldb.Schema, names []string) setKind {
	keyCount := 0
	nonKeyCount := 0
	inSet := make(map[string]bool, len(names))
	for _, n := range names {
		inSet[n] = true
		if s.IsKeyName(n) {
			keyCount++
		} else {
			nonKeyCount++
		}
	}
	switch {
	case keyCount > 0 && nonKeyCount > 0:
		return mixed
	case nonKeyCount > 0:
		return nonKeyOnly
	}
	// All in key: whole key or proper subset?
	for _, kn := range s.KeyNames() {
		if !inSet[kn] {
			return properKeySubset
		}
	}
	return wholeKey
}

// Cardinality returns the paper's cardinality notation for the connection
// type: "1:n" (ownership), "n:1" (reference), "1:[0,1]" (subset).
func (t ConnType) Cardinality() string {
	switch t {
	case Ownership:
		return "1:n"
	case Reference:
		return "n:1"
	case Subset:
		return "1:[0,1]"
	default:
		return "?"
	}
}
