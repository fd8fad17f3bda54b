// Package serve is the HTTP/JSON serving tier over the view-object
// layer: instantiation and the §5 update translations (VO-CD, VO-CI,
// VO-R) exposed as REST-ish endpoints, with admission control that sheds
// load instead of queueing it (DESIGN.md §14).
//
// The package splits into a value/instance codec (this file and doc.go)
// and the HTTP server proper (server.go). The codec exists because
// encoding/json alone cannot round-trip reldb values: JSON numbers lose
// int64 precision past 2^53 and erase the Int/Float kind tag (reldb
// stores Int values in Float attributes — "cross-kind" values — and the
// two compare differently), and JSON strings silently replace invalid
// UTF-8 with U+FFFD. The codec's tagged forms carry exactly enough to
// reproduce the value byte-for-byte under the engine's one binary value
// encoding (reldb.AppendBinaryValue), which the property tests assert.
package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"penguin/internal/reldb"
)

// Wire forms (the JSON side of the codec):
//
//	Null          null
//	Bool          true / false
//	String        "..." when valid UTF-8, else {"bytes":"<base64>"}
//	Int           {"int":"<decimal>"}      (string: int64 > 2^53 survives)
//	Float         {"float":"<shortest>"}   (strconv 'g'/-1 round-trips
//	                                        every finite float and ±Inf)
//	Float (NaN)   {"float":"NaN","bits":"<hex of Float64bits>"}
//
// Every form is self-describing, so decoding needs no schema and
// cross-kind values keep their kind. The decoder additionally accepts
// bare JSON numbers as a convenience for handwritten requests (integral
// → Int, fractional → Float); canonical tagged forms are what the
// server emits.

// EncodeValue converts v to its JSON-ready wire form — a value
// json.Marshal serializes to the canonical encoding above.
func EncodeValue(v reldb.Value) any {
	switch v.Kind() {
	case reldb.KindNull:
		return nil
	case reldb.KindBool:
		b, _ := v.AsBool()
		return b
	case reldb.KindInt:
		n, _ := v.AsInt()
		return map[string]any{"int": strconv.FormatInt(n, 10)}
	case reldb.KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) {
			// "NaN" names the class, not the value: payload bits differ
			// between NaNs and the decimal form cannot carry them.
			return map[string]any{
				"float": "NaN",
				"bits":  strconv.FormatUint(math.Float64bits(f), 16),
			}
		}
		return map[string]any{"float": strconv.FormatFloat(f, 'g', -1, 64)}
	case reldb.KindString:
		s, _ := v.AsString()
		if utf8.ValidString(s) {
			return s
		}
		return map[string]any{"bytes": base64.StdEncoding.EncodeToString([]byte(s))}
	default:
		return nil
	}
}

// DecodeValue parses one decoded-JSON value (an element of the tree
// json.Unmarshal produces — prefer a json.Decoder with UseNumber so
// large integers reach us undamaged) back into a reldb.Value. The update
// handlers do not build that tree: their scanner (decode.go) applies the
// same value rules, decodeNumber and tagForm, to the body's bytes.
func DecodeValue(raw any) (reldb.Value, error) {
	switch x := raw.(type) {
	case nil:
		return reldb.Null(), nil
	case bool:
		return reldb.Bool(x), nil
	case string:
		return reldb.String(x), nil
	case json.Number:
		return decodeNumber([]byte(x))
	case float64:
		// json.Unmarshal without UseNumber: precision past 2^53 is
		// already gone; preserve the integral/fractional split.
		if x == math.Trunc(x) && !math.IsInf(x, 0) {
			return reldb.Int(int64(x)), nil
		}
		return reldb.Float(x), nil
	case map[string]any:
		var f tagForm[string]
		for name, v := range x {
			m := f.member(name)
			if m == nil {
				continue
			}
			if s, ok := v.(string); ok {
				*m = tagMember[string]{set: true, s: s}
			} else {
				*m = tagMember[string]{set: true, kind: kindOf(v)}
			}
		}
		return f.value()
	default:
		return reldb.Null(), fmt.Errorf("serve: cannot decode %T as a value", raw)
	}
}

// jsonKind is the kind of a JSON value, named in messages.
type jsonKind uint8

const (
	kindString jsonKind = iota
	kindNull
	kindBool
	kindNumber
	kindObject
	kindArray
	kindOther // a Go value no JSON decoder produces
)

func (k jsonKind) String() string {
	return [...]string{"string", "null", "bool", "number", "object", "array", "non-JSON value"}[k]
}

// kindOf returns the kind of a decoded-JSON value.
func kindOf(raw any) jsonKind {
	switch raw.(type) {
	case nil:
		return kindNull
	case bool:
		return kindBool
	case string:
		return kindString
	case json.Number, float64:
		return kindNumber
	case map[string]any:
		return kindObject
	case []any:
		return kindArray
	}
	return kindOther
}

// decodeNumber maps a bare JSON number to Int when it is written as an
// integer, Float otherwise.
func decodeNumber(b []byte) (reldb.Value, error) {
	if !bytes.ContainsAny(b, ".eE") {
		n, err := strconv.ParseInt(string(b), 10, 64)
		if err == nil {
			return reldb.Int(n), nil
		}
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return reldb.Null(), fmt.Errorf("serve: bad number %q", string(b))
	}
	return reldb.Float(f), nil
}

// tagForm is an object-form value — {"int":…}, {"float":…[,"bits":…]},
// {"bytes":…} — as its members: the four tags, and whether any other
// member was present. A repeated tag keeps its last value, as a decoded
// map does. S is how the tags' strings arrive: strings from a decoded
// map, bytes from the update scanner, neither copied to be read.
type tagForm[S string | []byte] struct {
	int, float, bits, bytes tagMember[S]
	extra                   bool
}

// tagMember is one tag of a tagForm: set when present, with the kind of
// value it holds and, when that is a string, the string.
type tagMember[S string | []byte] struct {
	set  bool
	kind jsonKind
	s    S
}

// member returns the tag named name, or nil (noting the extra member)
// when name is no tag.
func (f *tagForm[S]) member(name string) *tagMember[S] {
	switch name {
	case "int":
		return &f.int
	case "float":
		return &f.float
	case "bits":
		return &f.bits
	case "bytes":
		return &f.bytes
	}
	f.extra = true
	return nil
}

// str returns the member's string, or an error naming what it holds.
func (m *tagMember[S]) str(form string) (S, error) {
	if m.kind != kindString {
		return m.s, fmt.Errorf("serve: %s must hold a string, got %s", form, m.kind)
	}
	return m.s, nil
}

// value applies the wire table's rules to the form: exactly one tag
// (bits only beside a NaN float) holding a string that parses.
func (f *tagForm[S]) value() (reldb.Value, error) {
	switch {
	case f.int.set:
		if f.extra || f.float.set || f.bits.set || f.bytes.set {
			return reldb.Null(), fmt.Errorf("serve: int form carries extra fields")
		}
		s, err := f.int.str("int form")
		if err != nil {
			return reldb.Null(), err
		}
		n, err := strconv.ParseInt(string(s), 10, 64)
		if err != nil {
			return reldb.Null(), fmt.Errorf("serve: bad int %q", string(s))
		}
		return reldb.Int(n), nil
	case f.float.set:
		s, err := f.float.str("float form")
		if err != nil {
			return reldb.Null(), err
		}
		if f.extra || f.bytes.set {
			return reldb.Null(), fmt.Errorf("serve: float form carries extra fields")
		}
		if f.bits.set {
			bs, err := f.bits.str("bits")
			if err != nil {
				return reldb.Null(), err
			}
			bits, err := strconv.ParseUint(string(bs), 16, 64)
			if err != nil {
				return reldb.Null(), fmt.Errorf("serve: bad float bits %q", string(bs))
			}
			v := math.Float64frombits(bits)
			if !math.IsNaN(v) {
				// bits are the NaN escape hatch only; finite floats
				// must use the decimal form, keeping one canonical
				// encoding per value.
				return reldb.Null(), fmt.Errorf("serve: bits %q is not a NaN", string(bs))
			}
			return reldb.Float(v), nil
		}
		v, err := strconv.ParseFloat(string(s), 64)
		if err != nil {
			return reldb.Null(), fmt.Errorf("serve: bad float %q", string(s))
		}
		return reldb.Float(v), nil
	case f.bytes.set:
		if f.extra || f.bits.set {
			return reldb.Null(), fmt.Errorf("serve: bytes form carries extra fields")
		}
		s, err := f.bytes.str("bytes form")
		if err != nil {
			return reldb.Null(), err
		}
		b := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
		n, err := base64.StdEncoding.Decode(b, []byte(s))
		if err != nil {
			return reldb.Null(), fmt.Errorf("serve: bad base64: %v", err)
		}
		return reldb.String(string(b[:n])), nil
	}
	return reldb.Null(), fmt.Errorf("serve: object value carries no int/float/bytes tag")
}
