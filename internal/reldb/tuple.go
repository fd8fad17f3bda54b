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

// With returns a copy of t with position i replaced by v.
func (t Tuple) With(i int, v Value) Tuple {
	c := t.Clone()
	c[i] = v
	return c
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

// Row pairs a tuple with its schema, giving name-based access. It is the
// unit query plans pass between operators.
type Row struct {
	Schema *Schema
	Tuple  Tuple
}

// Get returns the value of the named attribute.
func (r Row) Get(name string) (Value, bool) {
	i, ok := r.Schema.AttrIndex(name)
	if !ok {
		return Null(), false
	}
	return r.Tuple[i], true
}

// MustGet returns the value of the named attribute, panicking if absent.
func (r Row) MustGet(name string) Value {
	v, ok := r.Get(name)
	if !ok {
		panic("reldb: row has no attribute " + name)
	}
	return v
}
