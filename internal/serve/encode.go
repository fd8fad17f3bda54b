package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// The wire encoder: one walk from an assembled instance to the bytes of
// its document, with no intermediate tree. What it emits is, byte for
// byte, what json.Encoder (SetEscapeHTML(false)) makes of InstanceDoc —
// the tests hold it to that — so InstanceDoc stays the definition of the
// document and this file is only a faster way to write it down.

// nodePlan is the plan of one definition node, for both directions: its
// document fields in the order encoding/json gives a map's keys (sorted
// by name), which the encoder writes and the decoder (decode.go) matches
// names against, plus the width of the tuple the decoder fills and the
// node its messages name.
type nodePlan struct {
	fields []fieldPlan
	arity  int
	node   *viewobject.Node
}

// fieldPlan is one document field: a projected attribute (child == nil;
// attr indexes the component's full-width tuple) or the list of the
// child node whose ID is name.
type fieldPlan struct {
	name  string
	key   string // `"name":`, escaped as the encoder escapes it
	attr  int
	child *nodePlan
}

// plans caches one plan per definition, built on the first
// instance of it to be encoded or decoded: O(nodes), and a definition never changes
// once built. An entry lives as long as the process, like the object
// registrations the served definitions belong to. NewDefinition
// guarantees a node's attribute names and child IDs are distinct, so a
// name is one field.
var plans sync.Map // *viewobject.Definition → *nodePlan

func planFor(def *viewobject.Definition) *nodePlan {
	if p, ok := plans.Load(def); ok {
		return p.(*nodePlan)
	}
	p, _ := plans.LoadOrStore(def, buildPlan(def, def.Root()))
	return p.(*nodePlan)
}

func buildPlan(def *viewobject.Definition, n *viewobject.Node) *nodePlan {
	schema := def.NodeSchema(n)
	p := &nodePlan{fields: make([]fieldPlan, 0, len(n.Attrs)+len(n.Children)), arity: schema.Arity(), node: n}
	for _, attr := range n.Attrs {
		if idx, ok := schema.AttrIndex(attr); ok {
			p.fields = append(p.fields, fieldPlan{name: attr, attr: idx})
		}
	}
	for _, child := range n.Children {
		p.fields = append(p.fields, fieldPlan{name: child.ID, child: buildPlan(def, child)})
	}
	// A map's keys: sorted, and an attribute projected twice is one key.
	slices.SortStableFunc(p.fields, func(a, b fieldPlan) int { return strings.Compare(a.name, b.name) })
	p.fields = slices.CompactFunc(p.fields, func(a, b fieldPlan) bool { return a.name == b.name })
	for i := range p.fields {
		p.fields[i].key = jsonKey(p.fields[i].name)
	}
	return p
}

// jsonKey renders name as an object key with its colon, by the encoder
// the output must match: plan building is cold, and names (unlike
// values) may be any string a schema accepts.
func jsonKey(name string) string {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(name) // a string cannot fail to encode
	return string(bytes.TrimSuffix(buf.Bytes(), []byte("\n"))) + ":"
}

// AppendInstance appends the instance's document to dst — the bytes
// json.Encoder (SetEscapeHTML(false)) writes for InstanceDoc(inst),
// without the trailing newline — and returns the extended slice.
func AppendInstance(dst []byte, inst *viewobject.Instance) []byte {
	return appendNode(dst, planFor(inst.Definition()), inst.Root())
}

func appendNode(dst []byte, p *nodePlan, in *viewobject.InstNode) []byte {
	dst = append(dst, '{')
	for i := range p.fields {
		f := &p.fields[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, f.key...)
		if f.child == nil {
			dst = appendValue(dst, in.Value(f.attr))
			continue
		}
		dst = append(dst, '[')
		kids := in.ChildList(f.name)
		for j := 0; j < kids.Len(); j++ {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendNode(dst, f.child, kids.At(j))
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendValue appends the wire form of v (the table in codec.go) to
// dst: the bytes json.Encoder writes for EncodeValue(v).
func appendValue(dst []byte, v reldb.Value) []byte {
	switch v.Kind() {
	case reldb.KindBool:
		b, _ := v.AsBool()
		return strconv.AppendBool(dst, b)
	case reldb.KindInt:
		n, _ := v.AsInt()
		dst = append(dst, `{"int":"`...)
		dst = strconv.AppendInt(dst, n, 10)
		return append(dst, `"}`...)
	case reldb.KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) {
			dst = append(dst, `{"bits":"`...)
			dst = strconv.AppendUint(dst, math.Float64bits(f), 16)
			return append(dst, `","float":"NaN"}`...)
		}
		dst = append(dst, `{"float":"`...)
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		return append(dst, `"}`...)
	case reldb.KindString:
		s, _ := v.AsString()
		if utf8.ValidString(s) {
			return appendString(dst, s)
		}
		dst = append(dst, `{"bytes":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, []byte(s))
		return append(dst, `"}`...)
	default:
		return append(dst, "null"...)
	}
}

const hexDigits = "0123456789abcdef"

// appendString appends valid UTF-8 s as a JSON string the way
// encoding/json does with HTML escaping off: `\"` and `\\`, the short
// escapes for \b \f \n \r \t, \u00XX for the other control characters,
// \u2028 and \u2029 for the two separators JavaScript rejects, and
// every other byte as it is.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b >= utf8.RuneSelf {
			// U+2028 and U+2029 are E2 80 A8 and E2 80 A9; s is valid, so
			// an E2 lead byte has its two continuation bytes.
			if b == 0xE2 && s[i+1] == 0x80 && s[i+2]&^1 == 0xA8 {
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[s[i+2]&0xF])
				i += 3
				start = i
				continue
			}
			i++
			continue
		}
		if b >= ' ' && b != '"' && b != '\\' {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		switch b {
		case '"', '\\':
			dst = append(dst, '\\', b)
		case '\b':
			dst = append(dst, '\\', 'b')
		case '\f':
			dst = append(dst, '\\', 'f')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
