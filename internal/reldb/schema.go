package reldb

import (
	"fmt"
	"strings"
)

// Attribute describes one column of a relation schema.
type Attribute struct {
	// Name is the attribute name, unique within the schema.
	Name string
	// Type is the kind every non-null value of this attribute must have.
	Type Kind
	// Nullable permits null values. Key attributes are never nullable
	// regardless of this flag.
	Nullable bool
}

// Schema describes a relation: an ordered list of typed attributes and a
// primary key (a subset of the attributes). Schemas are immutable once
// constructed.
type Schema struct {
	name   string
	attrs  []Attribute
	key    []int // indices into attrs, in declaration order
	byName map[string]int
	isKey  []bool
}

// NewSchema builds a schema. keyNames must name a nonempty subset of the
// attributes; attribute names must be unique and nonempty.
func NewSchema(name string, attrs []Attribute, keyNames []string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("reldb: schema needs a name")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("reldb: schema %s needs at least one attribute", name)
	}
	s := &Schema{
		name:   name,
		attrs:  append([]Attribute(nil), attrs...),
		byName: make(map[string]int, len(attrs)),
		isKey:  make([]bool, len(attrs)),
	}
	for i, a := range s.attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("reldb: schema %s: attribute %d has empty name", name, i)
		}
		if a.Type == KindNull {
			return nil, fmt.Errorf("reldb: schema %s: attribute %s has null type", name, a.Name)
		}
		if _, dup := s.byName[a.Name]; dup {
			return nil, fmt.Errorf("reldb: schema %s: duplicate attribute %s", name, a.Name)
		}
		s.byName[a.Name] = i
	}
	if len(keyNames) == 0 {
		return nil, fmt.Errorf("reldb: schema %s needs a nonempty key", name)
	}
	seen := make(map[string]bool, len(keyNames))
	for _, kn := range keyNames {
		i, ok := s.byName[kn]
		if !ok {
			return nil, fmt.Errorf("reldb: schema %s: key attribute %s not in schema", name, kn)
		}
		if seen[kn] {
			return nil, fmt.Errorf("reldb: schema %s: duplicate key attribute %s", name, kn)
		}
		seen[kn] = true
		s.isKey[i] = true
	}
	// Key indices in declaration order for a canonical encoding.
	for i := range s.attrs {
		if s.isKey[i] {
			s.key = append(s.key, i)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for fixtures and tests.
func MustSchema(name string, attrs []Attribute, keyNames []string) *Schema {
	s, err := NewSchema(name, attrs, keyNames)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the relation name.
func (s *Schema) Name() string { return s.name }

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attribute { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attribute { return append([]Attribute(nil), s.attrs...) }

// AttrIndex returns the index of the named attribute.
func (s *Schema) AttrIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// AttrNames returns the attribute names in declaration order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// Key returns the indices of the key attributes in declaration order.
func (s *Schema) Key() []int { return append([]int(nil), s.key...) }

// KeyNames returns the names of the key attributes in declaration order.
func (s *Schema) KeyNames() []string {
	names := make([]string, len(s.key))
	for i, k := range s.key {
		names[i] = s.attrs[k].Name
	}
	return names
}

// IsKeyAttr reports whether attribute i is part of the primary key.
func (s *Schema) IsKeyAttr(i int) bool { return i >= 0 && i < len(s.isKey) && s.isKey[i] }

// IsKeyName reports whether the named attribute is part of the primary key.
func (s *Schema) IsKeyName(name string) bool {
	i, ok := s.byName[name]
	return ok && s.isKey[i]
}

// CheckTuple validates t against the schema: arity, per-attribute kinds,
// nullability, non-null key attributes inside the key codec's exact
// domain, and strings no longer than the snapshot and WAL readers accept
// (maxStringBytes).
func (s *Schema) CheckTuple(t Tuple) error {
	if len(t) != len(s.attrs) {
		return fmt.Errorf("reldb: %s: tuple arity %d, want %d", s.name, len(t), len(s.attrs))
	}
	for i, v := range t {
		if err := s.checkValue(i, v); err != nil {
			return err
		}
	}
	return nil
}

// checkValue checks v as the value of attribute i.
func (s *Schema) checkValue(i int, v Value) error {
	a := s.attrs[i]
	if v.IsNull() {
		if s.isKey[i] {
			return fmt.Errorf("reldb: %s: key attribute %s is null", s.name, a.Name)
		}
		if !a.Nullable {
			return fmt.Errorf("reldb: %s: attribute %s is not nullable", s.name, a.Name)
		}
		return nil
	}
	if !kindAssignable(a.Type, v.Kind()) {
		return fmt.Errorf("reldb: %s: attribute %s has kind %s, want %s",
			s.name, a.Name, v.Kind(), a.Type)
	}
	if s.isKey[i] && !keyEncodable(v) {
		return fmt.Errorf("reldb: %s: key attribute %s: %s: %w", s.name, a.Name, v, ErrKeyDomain)
	}
	if len(v.s) > maxStringBytes {
		return fmt.Errorf("reldb: %s: attribute %s: a string of %d bytes, longer than %d", s.name, a.Name, len(v.s), maxStringBytes)
	}
	return nil
}

// kindAssignable reports whether a value of kind have may be stored in an
// attribute of kind want. Ints are assignable to float attributes.
func kindAssignable(want, have Kind) bool {
	if want == have {
		return true
	}
	return want == KindFloat && have == KindInt
}

// CheckRow checks a row as CheckTuple checks a tuple: a row built from a
// client's tuple has to pass it before it is stored.
func (s *Schema) CheckRow(r Row) error {
	if n := r.Len(); n != len(s.attrs) {
		return fmt.Errorf("reldb: %s: tuple arity %d, want %d", s.name, n, len(s.attrs))
	}
	for i, p := 0, r.pos(0); p < len(r.s); i++ {
		var v Value
		v, p = valueAt(r.s, p)
		if err := s.checkValue(i, v); err != nil {
			return err
		}
	}
	return nil
}

// KeyOf extracts the key values of t in canonical (declaration) order.
func (s *Schema) KeyOf(t Tuple) Tuple {
	key := make(Tuple, len(s.key))
	for i, k := range s.key {
		key[i] = t[k]
	}
	return key
}

// EncodeKeyOf returns the canonical encoded primary key of t.
func (s *Schema) EncodeKeyOf(t Tuple) string {
	var dst []byte
	for _, k := range s.key {
		dst = AppendKey(dst, t[k])
	}
	return string(dst)
}

// EncodeKey encodes key values given in canonical key order.
func (s *Schema) EncodeKey(key Tuple) (string, error) {
	if len(key) != len(s.key) {
		return "", fmt.Errorf("reldb: %s: key arity %d, want %d", s.name, len(key), len(s.key))
	}
	for _, v := range key {
		if !keyEncodable(v) {
			return "", fmt.Errorf("reldb: %s: key %s: %w", s.name, key, ErrKeyDomain)
		}
	}
	return EncodeValues(key...), nil
}

// Indices maps attribute names to their indices, failing on unknown names.
func (s *Schema) Indices(names []string) ([]int, error) {
	return s.AppendIndices(make([]int, 0, len(names)), names)
}

// AppendIndices is Indices appending to dst: a caller that resolves a
// short list on every call can keep it on its stack.
func (s *Schema) AppendIndices(dst []int, names []string) ([]int, error) {
	for _, n := range names {
		j, ok := s.byName[n]
		if !ok {
			return nil, fmt.Errorf("reldb: %s has no attribute %s", s.name, n)
		}
		dst = append(dst, j)
	}
	return dst, nil
}

// String renders the schema as an RQL CREATE TABLE statement body.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.name)
	b.WriteByte('(')
	for i, a := range s.attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(' ')
		b.WriteString(a.Type.String())
		if a.Nullable {
			b.WriteString(" null")
		}
	}
	b.WriteString(") key(")
	b.WriteString(strings.Join(s.KeyNames(), ", "))
	b.WriteByte(')')
	return b.String()
}

// Rename returns a copy of the schema under a new relation name.
// Used by query plans that derive intermediate schemas.
func (s *Schema) Rename(name string) *Schema {
	c := *s
	c.name = name
	return &c
}

// ProjectSchema derives a new schema containing only the named attributes,
// in the given order. The derived schema keeps the original key if all key
// attributes survive the projection; otherwise the full attribute list of
// the projection becomes the key (the standard set-semantics fallback).
func (s *Schema) ProjectSchema(name string, names []string) (*Schema, error) {
	idx, err := s.Indices(names)
	if err != nil {
		return nil, err
	}
	attrs := make([]Attribute, len(idx))
	for i, j := range idx {
		attrs[i] = s.attrs[j]
	}
	keyKept := true
	for _, k := range s.key {
		found := false
		for _, j := range idx {
			if j == k {
				found = true
				break
			}
		}
		if !found {
			keyKept = false
			break
		}
	}
	var keyNames []string
	if keyKept {
		keyNames = s.KeyNames()
	} else {
		keyNames = names
	}
	return NewSchema(name, attrs, keyNames)
}
