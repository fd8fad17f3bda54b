// Package reldb implements an in-memory relational database engine:
// typed values, schemas, keyed relations with secondary indexes,
// predicate expressions, query plans (select, project, join, aggregate),
// and copy-on-write transactions (a writer edits private versions of the
// relations it touches; commit publishes them, rollback drops them).
//
// The engine is the storage substrate for the PENGUIN view-object model.
// It deliberately keeps the relational semantics of the paper's setting:
// relations are sets of tuples in first normal form, each relation has a
// primary key, and every mutation is expressible as one of the three
// primitive operations the update-translation algorithms emit — insert,
// delete, and replace.
package reldb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value. The zero Kind is KindNull so
// that the zero Value is the null value.
type Kind uint8

// The value kinds supported by the engine.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the lowercase name of the kind as used by RQL type syntax.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind maps a type name (case-insensitive) to a Kind.
// Recognized names: int/integer, float/real/double, string/text/varchar,
// bool/boolean.
func ParseKind(name string) (Kind, error) {
	switch strings.ToLower(name) {
	case "int", "integer":
		return KindInt, nil
	case "float", "real", "double":
		return KindFloat, nil
	case "string", "text", "varchar", "char":
		return KindString, nil
	case "bool", "boolean":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("reldb: unknown type name %q", name)
	}
}

// Value is an immutable typed database value. Values are compared and key
// encoded by the relation machinery; the zero Value is null.
//
// A Value is 32 bytes: the string payload, one 64-bit payload and the
// kind. bits holds an int's two's-complement bits, a float's IEEE 754
// bits (math.Float64bits, so -0 and every NaN payload survive) or 1 for
// true; it is 0 for null, false and strings, and s is "" for every kind
// but string.
//
// Values are not comparable with == and cannot be map keys: == would
// compare payload bits, which calls Float(-0) and Float(0) different where
// Compare holds them equal. Compare with Equal, key a map by EncodeValues.
// The zero-size func array forbids == at compile time; it comes first
// because a zero-size last field would be padded.
type Value struct {
	_    [0]func()
	s    string
	bits uint64
	kind Kind
}

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, bits: uint64(v)} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, bits: math.Float64bits(v)} }

// String returns a string value.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, bits: 1}
	}
	return Value{kind: KindBool}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload; ok is false if the kind differs.
func (v Value) AsInt() (int64, bool) { return v.i(), v.kind == KindInt }

// AsFloat returns the float payload; ok is false if the kind differs.
// An integer value is promoted to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return v.f(), true
	case KindInt:
		return float64(v.i()), true
	default:
		return 0, false
	}
}

// AsString returns the string payload; ok is false if the kind differs.
func (v Value) AsString() (string, bool) { return v.s, v.kind == KindString }

// AsBool returns the boolean payload; ok is false if the kind differs.
func (v Value) AsBool() (bool, bool) { return v.b(), v.kind == KindBool }

// i, f and b read the 64-bit payload as the int, float or bool it holds.
func (v Value) i() int64   { return int64(v.bits) }
func (v Value) f() float64 { return math.Float64frombits(v.bits) }
func (v Value) b() bool    { return v.bits != 0 }

// MustInt returns the integer payload and panics on kind mismatch.
// Intended for tests and fixtures where the schema is statically known.
func (v Value) MustInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("reldb: MustInt on %s value", v.kind))
	}
	return v.i()
}

// MustString returns the string payload and panics on kind mismatch.
func (v Value) MustString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("reldb: MustString on %s value", v.kind))
	}
	return v.s
}

// Equal reports deep equality of two values. Null equals only null
// (three-valued logic is handled at the expression layer, not here).
// Int and float values compare numerically across kinds.
func (v Value) Equal(w Value) bool {
	c, err := Compare(v, w)
	return err == nil && c == 0
}

// Identical reports whether v and w are the same value: the same kind,
// the same payload bits and the same string. It is stricter than Equal,
// which holds Int(1) equal to Float(1) and Float(-0) equal to Float(0);
// Identical tells each pair apart, and holds a NaN identical to itself.
func (v Value) Identical(w Value) bool {
	return v.kind == w.kind && v.bits == w.bits && v.s == w.s
}

// compareIdentity orders values by kind, payload bits and string: a
// total order under which exactly the Identical values compare equal.
func (v Value) compareIdentity(w Value) int {
	return cmp.Or(cmp.Compare(v.kind, w.kind), cmp.Compare(v.bits, w.bits), strings.Compare(v.s, w.s))
}

// Compare orders two values. Null sorts before every non-null value and
// equals null. Numeric kinds (int, float) are mutually comparable, as
// cmp.Compare orders float64s: -0 equals 0, and a NaN equals a NaN and
// sorts below every number. Any other cross-kind comparison is an error.
func Compare(a, b Value) (int, error) {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0, nil
		case a.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.kind != b.kind {
		af, aok := a.AsFloat()
		bf, bok := b.AsFloat()
		if aok && bok {
			return cmp.Compare(af, bf), nil
		}
		return 0, fmt.Errorf("reldb: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindInt:
		switch ai, bi := a.i(), b.i(); {
		case ai < bi:
			return -1, nil
		case ai > bi:
			return 1, nil
		default:
			return 0, nil
		}
	case KindFloat:
		return cmp.Compare(a.f(), b.f()), nil
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindBool:
		switch ab, bb := a.b(), b.b(); {
		case !ab && bb:
			return -1, nil
		case ab && !bb:
			return 1, nil
		default:
			return 0, nil
		}
	default:
		return 0, fmt.Errorf("reldb: cannot compare kind %s", a.kind)
	}
}

// String renders the value for display. Strings are returned verbatim;
// use Literal for an RQL-parseable rendering.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.b() {
			return "true"
		}
		return "false"
	default:
		return fmt.Sprintf("<%s>", v.kind)
	}
}

// Literal renders the value as an RQL literal (strings quoted and escaped).
func (v Value) Literal() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	return v.String()
}

// ParseValue parses text into a value of the given kind. Parsing the empty
// string for any kind, or the literal "NULL" (any case), yields null.
func ParseValue(kind Kind, text string) (Value, error) {
	if text == "" || strings.EqualFold(text, "null") {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("reldb: parsing %q as int: %w", text, err)
		}
		return Int(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Null(), fmt.Errorf("reldb: parsing %q as float: %w", text, err)
		}
		return Float(f), nil
	case KindString:
		return String(text), nil
	case KindBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Null(), fmt.Errorf("reldb: parsing %q as bool: %w", text, err)
		}
		return Bool(b), nil
	default:
		return Null(), fmt.Errorf("reldb: cannot parse into kind %s", kind)
	}
}

// Key encoding
//
// AppendKey produces an order-preserving, self-delimiting byte encoding:
// for values a, b that Compare orders, bytes(a) < bytes(b) iff a < b and
// bytes(a) == bytes(b) iff a equals b. Relations keep their rows and
// indexes in trees ordered by these bytes, so codec order is storage
// order, scan order and range order. Each value starts with a kind tag
// byte that also orders null before everything else.
//
// Numbers of both kinds share one encoding, that of the float64 value, so
// the property holds only on the codec's exact domain: integers within
// ±2^53 (beyond it distinct ints round to one float64) and floats other
// than NaN (which the codec has no bytes for). keyEncodable is that domain;
// everything that stores or looks up a key or indexed value checks it and
// fails with ErrKeyDomain outside.

const (
	tagNull   byte = 0x01
	tagFalse  byte = 0x02
	tagTrue   byte = 0x03
	tagNumber byte = 0x04
	tagString byte = 0x05
)

// maxExactInt is the largest magnitude up to which every int64 has its own
// float64.
const maxExactInt = 1 << 53

// keyEncodable reports whether v lies in the key codec's exact domain.
func keyEncodable(v Value) bool {
	switch v.kind {
	case KindInt:
		return -maxExactInt <= v.i() && v.i() <= maxExactInt
	case KindFloat:
		return !math.IsNaN(v.f())
	}
	return true
}

// AppendKey appends the order-preserving encoding of v to dst.
func AppendKey(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, tagNull)
	case KindBool:
		if v.b() {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case KindInt:
		return appendOrderedFloat(append(dst, tagNumber), float64(v.i()))
	case KindFloat:
		return appendOrderedFloat(append(dst, tagNumber), v.f())
	case KindString:
		dst = append(dst, tagString)
		// Escape 0x00 as 0x00 0xFF so the 0x00 0x00 terminator is
		// unambiguous and ordering of prefixes is preserved.
		for i := 0; i < len(v.s); i++ {
			c := v.s[i]
			dst = append(dst, c)
			if c == 0x00 {
				dst = append(dst, 0xFF)
			}
		}
		return append(dst, 0x00, 0x00)
	default:
		panic(fmt.Sprintf("reldb: AppendKey on kind %s", v.kind))
	}
}

// appendOrderedFloat encodes f such that byte-wise comparison matches
// numeric comparison: flip the sign bit for positives, flip all bits for
// negatives. Negative zero is encoded as zero: Compare holds them equal.
func appendOrderedFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if f == 0 {
		bits = 0
	}
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return append(dst,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

// EncodeValues encodes a sequence of values into one order-preserving key
// string. It is the canonical form used by relation row and index trees.
func EncodeValues(vs ...Value) string {
	var dst []byte
	for _, v := range vs {
		dst = AppendKey(dst, v)
	}
	return string(dst)
}
