package reldb

import (
	"strings"
)

// Tuple is an ordered list of values matching a schema's attributes.
// Tuples are treated as immutable by the engine: mutating operations
// always work on copies.
type Tuple []Value

// Clone returns a deep copy of the tuple (values are immutable, so a
// shallow copy of the slice suffices).
func (t Tuple) Clone() Tuple {
	if t == nil {
		return nil
	}
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether two tuples have the same arity and pairwise equal
// values (null equals null).
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Project extracts the values at the given indices, in order.
func (t Tuple) Project(idx []int) Tuple {
	p := make(Tuple, len(idx))
	for i, j := range idx {
		p[i] = t[j]
	}
	return p
}

// Concat returns the concatenation of t and u as a new tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	c := make(Tuple, 0, len(t)+len(u))
	c = append(c, t...)
	c = append(c, u...)
	return c
}

// Encode returns the order-preserving encoding of the whole tuple.
func (t Tuple) Encode() string { return EncodeValues(t...) }

// String renders the tuple as ⟨v1, v2, ...⟩ for diagnostics and figures.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Row is a tuple as reldb hands it out: read-only. Every read — Get,
// MatchEqual, Select, Scan, All, a Delta's images, the tuple Delete or
// Replace took out — wraps the stored tuple itself, with no copy:
// committed versions are immutable, and a Row has no method that writes,
// nor a way to reach the slice behind it, so the compiler holds every
// reader to that. Only reldb wraps a tuple it holds; RowOf and CopyRows
// wrap copies of a client's tuples. The zero Row has no values.
type Row struct{ t Tuple }

// RowOf returns a Row over a copy of t: the caller may go on editing t.
func RowOf(t Tuple) Row { return Row{t.Clone()} }

// CopyRows returns Rows over copies of ts, in order, every copy carved
// from one backing array.
func CopyRows(ts []Tuple) []Row {
	n := 0
	for _, t := range ts {
		n += len(t)
	}
	vals := make(Tuple, 0, n)
	rows := make([]Row, len(ts))
	for i, t := range ts {
		lo := len(vals)
		vals = append(vals, t...)
		rows[i] = Row{vals[lo:len(vals):len(vals)]}
	}
	return rows
}

// Len returns the number of values.
func (r Row) Len() int { return len(r.t) }

// At returns the i-th value.
func (r Row) At(i int) Value { return r.t[i] }

// Equal reports whether two rows have the same arity and pairwise equal
// values (null equals null).
func (r Row) Equal(u Row) bool { return r.t.Equal(u.t) }

// Same reports whether two rows are one stored tuple (or one copy): the
// identity Equal implies but does not test.
func (r Row) Same(u Row) bool { return sameStored(r.t, u.t) }

// Tuple returns a copy of the row's values: the one way to get a tuple a
// writer may edit and pass back in.
func (r Row) Tuple() Tuple { return r.t.Clone() }

// Project extracts the values at the given indices, in order, into a
// new tuple.
func (r Row) Project(idx []int) Tuple { return r.t.Project(idx) }

// Key returns the row's primary-key values under schema s, in canonical
// key order.
func (r Row) Key(s *Schema) Tuple { return s.KeyOf(r.t) }

// EncodeKey returns the row's encoded primary key under schema s.
func (r Row) EncodeKey(s *Schema) string { return s.EncodeKeyOf(r.t) }

// Encode returns the order-preserving encoding of the whole row.
func (r Row) Encode() string { return r.t.Encode() }

// String renders the row as a tuple does.
func (r Row) String() string { return r.t.String() }
