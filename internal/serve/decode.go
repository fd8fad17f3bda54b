package serve

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// The wire decoder: one scan over an update body's bytes, driven by the
// encoder's per-definition plan, filling each component tuple by field
// index — no `any` tree in between. What it accepts and rejects is what
// json.Decoder (UseNumber, DisallowUnknownFields) into the envelope
// followed by InstanceFromDoc accepts and rejects, with one deliberate
// difference: a name repeated in the envelope or in a node document is
// refused (DESIGN.md §14). FuzzDecodeInstance holds it to that.

// maxDepth bounds the nesting of a body, skipped values included: the
// limit encoding/json's scanner applies.
const maxDepth = 10000

// errRepeatedName marks the rejection encoding/json does not make: a
// name that appears twice in the envelope or in one node document.
var errRepeatedName = errors.New("repeated name")

// updateRequest is the decoded body of a POST /objects/{name}:verb.
type updateRequest struct {
	// Key names the existing instance (delete, replace).
	Key reldb.Tuple
	// Instance is the desired instance (insert: the new instance;
	// replace: the replacement).
	Instance *viewobject.Instance
}

// readBody appends everything r yields to dst.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// decoder is the state of one body's decode; decoders are pooled, so a
// steady stream of writes reuses their arenas.
type decoder struct {
	scanner
	def *viewobject.Definition
	// vals holds every decoded component's tuple, each arity wide; nodes
	// lists the components in document preorder, so a parent precedes
	// its children and siblings keep their order.
	vals  []reldb.Value
	nodes []pendingNode
	seen  []bool // per open node document: which plan fields it named
}

// pendingNode is one decoded component awaiting its instance.
type pendingNode struct {
	plan   *nodePlan
	parent int // index into nodes; -1 for the pivot
	off    int // its tuple is vals[off : off+plan.arity]
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// maxPooledVals caps the tuple arena a pooled decoder keeps (its string
// scratch is capped at maxPooledBuf, like the body buffers).
const maxPooledVals = 1 << 14

// decodeUpdate decodes an update body {"key":[…],"instance":{…}} against
// def. needKey and needInst say which fields the verb reads; each must
// then be present, and the other is checked for syntax (and for being an
// array or object) only. An error is the 400's message.
func decodeUpdate(def *viewobject.Definition, body []byte, verb string, needKey, needInst bool) (updateRequest, error) {
	d := decoderPool.Get().(*decoder)
	defer d.release()
	d.def, d.data, d.pos, d.depth = def, body, 0, 0
	req, err := d.envelope(needKey, needInst)
	if err != nil {
		return updateRequest{}, err
	}
	if needInst && req.Instance == nil {
		return updateRequest{}, fmt.Errorf("%s needs an \"instance\" document", verb)
	}
	if needKey && req.Key == nil {
		return updateRequest{}, keyArity(def, 0)
	}
	return req, nil
}

// keyArity is the error for a key of got values where def's pivot key
// has another number.
func keyArity(def *viewobject.Definition, got int) error {
	want := len(def.NodeSchema(def.Root()).Key())
	return fmt.Errorf("bad key: key of %s has %d attribute(s), got %d", def.Pivot(), want, got)
}

// release clears what the decode left behind and pools the decoder.
func (d *decoder) release() {
	clear(d.vals)
	d.def, d.data = nil, nil
	if cap(d.vals) > maxPooledVals || cap(d.str) > maxPooledBuf {
		return
	}
	d.vals, d.nodes, d.seen, d.str = d.vals[:0], d.nodes[:0], d.seen[:0], d.str[:0]
	decoderPool.Put(d)
}

// envelope decodes the whole body: one object, then only whitespace.
// Its member names match "key" and "instance" case-insensitively, as
// encoding/json matches a struct's fields; a null body or member is an
// absent one.
func (d *decoder) envelope(needKey, needInst bool) (req updateRequest, err error) {
	switch d.peek() {
	case 'n':
		err = d.literal("null")
	case '{':
		var haveKey, haveInst bool
		err = d.object(func(name []byte) error {
			var err error
			switch {
			case foldEqual(name, "KEY"):
				if haveKey {
					return fmt.Errorf("bad request body: %w %q", errRepeatedName, name)
				}
				haveKey = true
				req.Key, err = d.key(needKey)
			case foldEqual(name, "INSTANCE"):
				if haveInst {
					return fmt.Errorf("bad request body: %w %q", errRepeatedName, name)
				}
				haveInst = true
				req.Instance, err = d.instance(needInst)
			default:
				err = fmt.Errorf("bad request body: unknown field %q", name)
			}
			return err
		})
	default:
		err = errors.New("bad request body: not an object")
	}
	if err != nil {
		return updateRequest{}, err
	}
	if d.skipSpace(); d.pos < len(d.data) {
		return updateRequest{}, errors.New("bad request body: data after the request object")
	}
	return req, nil
}

// key decodes the "key" member: an array of values, or null. A verb that
// reads no key only checks its syntax.
func (d *decoder) key(need bool) (reldb.Tuple, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '[':
	default:
		return nil, errors.New("bad request body: key must be an array")
	}
	if !need {
		_, err := d.skip()
		return nil, err
	}
	// Decode every element, keep no more than the pivot key can use:
	// the arity check needs the count, not the values.
	want := len(d.def.NodeSchema(d.def.Root()).Key())
	key := make(reldb.Tuple, 0, want)
	n := 0
	err := d.array(func() error {
		d.str = d.str[:0]
		v, err := d.value()
		if err != nil {
			return fmt.Errorf("bad key: element %d: %w", n, err)
		}
		if n < want {
			key = append(key, v)
		}
		n++
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n != want {
		return nil, keyArity(d.def, n)
	}
	return key, nil
}

// instance decodes the "instance" member: a document of the definition,
// or null. A verb that names no document only checks its syntax.
func (d *decoder) instance(need bool) (*viewobject.Instance, error) {
	switch d.peek() {
	case 'n':
		return nil, d.literal("null")
	case '{':
	default:
		return nil, errors.New("bad request body: instance must be an object")
	}
	if !need {
		_, err := d.skip()
		return nil, err
	}
	if err := d.node(planFor(d.def), -1); err != nil {
		return nil, err
	}
	// Every decoded tuple enters through BuildInstance, the hostile-input
	// boundary: CheckTuple, then a copy into the instance's own slab.
	inst, err := viewobject.BuildInstance(d.def, len(d.nodes), func(i int) (*viewobject.Node, int, reldb.Tuple) {
		pn := d.nodes[i]
		return pn.plan.node, pn.parent, d.vals[pn.off : pn.off+pn.plan.arity]
	})
	if err != nil {
		return nil, fmt.Errorf("bad instance: %w", err)
	}
	return inst, nil
}

// node decodes one document of p's node, whose '{' is next, and every
// document below it, appending them to d.nodes in preorder. Absent
// attributes stay null.
func (d *decoder) node(p *nodePlan, parent int) error {
	self, off := len(d.nodes), len(d.vals)
	d.vals = append(d.vals, make([]reldb.Value, p.arity)...)
	d.nodes = append(d.nodes, pendingNode{plan: p, parent: parent, off: off})
	seen := len(d.seen)
	d.seen = append(d.seen, make([]bool, len(p.fields))...)
	err := d.object(func(name []byte) error {
		fi := p.field(name)
		if fi < 0 {
			// A document writes only what the view shows: an attribute
			// of the relation that the node does not project is no field.
			return fmt.Errorf("bad instance: node %s: field %q is neither a projected attribute of %s nor a child node",
				p.node.ID, name, p.node.Relation)
		}
		if d.seen[seen+fi] {
			return fmt.Errorf("bad instance: node %s: %w %q", p.node.ID, errRepeatedName, name)
		}
		d.seen[seen+fi] = true
		f := &p.fields[fi]
		if f.child == nil {
			d.str = d.str[:0]
			v, err := d.value()
			if err != nil {
				return fmt.Errorf("bad instance: node %s: field %q: %w", p.node.ID, f.name, err)
			}
			d.vals[off+f.attr] = v
			return nil
		}
		switch d.peek() {
		case 'n':
			return d.literal("null")
		case '[':
		default:
			return fmt.Errorf("bad instance: node %s: child %s must be an array", p.node.ID, f.name)
		}
		return d.array(func() error {
			if d.peek() != '{' {
				return fmt.Errorf("bad instance: node %s: child %s holds a non-object element", p.node.ID, f.name)
			}
			return d.node(f.child, self)
		})
	})
	d.seen = d.seen[:seen]
	return err
}

// field returns the index of the plan field named name, or -1.
func (p *nodePlan) field(name []byte) int {
	for i := range p.fields {
		if p.fields[i].name == string(name) {
			return i
		}
	}
	return -1
}

// value decodes one attribute value by the wire table (codec.go): the
// scalar forms, a bare number, or an object form through tagForm.
func (d *decoder) value() (reldb.Value, error) {
	switch c := d.peek(); {
	case c == 'n':
		return reldb.Null(), d.literal("null")
	case c == 't':
		return reldb.Bool(true), d.literal("true")
	case c == 'f':
		return reldb.Bool(false), d.literal("false")
	case c == '"':
		s, err := d.string()
		return reldb.String(string(s)), err
	case c == '-' || '0' <= c && c <= '9':
		num, err := d.number()
		if err != nil {
			return reldb.Null(), err
		}
		return decodeNumber(num)
	case c == '{':
		var f tagForm[[]byte]
		err := d.object(func(name []byte) error {
			m := f.member(string(name))
			if m == nil {
				_, err := d.skip()
				return err
			}
			if d.peek() == '"' {
				s, err := d.string()
				*m = tagMember[[]byte]{set: true, s: s}
				return err
			}
			kind, err := d.skip()
			*m = tagMember[[]byte]{set: true, kind: kind}
			return err
		})
		if err != nil {
			return reldb.Null(), err
		}
		return f.value()
	case c == '[':
		return reldb.Null(), errors.New("serve: cannot decode array as a value")
	}
	return reldb.Null(), d.syntaxErr()
}

// scanner reads JSON over a byte slice, checking the grammar as
// encoding/json's scanner does.
type scanner struct {
	data  []byte
	pos   int
	depth int
	// str holds unescaped strings. Each read appends, so an earlier
	// string stays intact until the owner truncates str.
	str []byte
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at the
// end of the body).
func (s *scanner) peek() byte {
	s.skipSpace()
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// syntaxErr reports the byte at pos (or the end of the body) as
// unexpected.
func (s *scanner) syntaxErr() error {
	if s.pos >= len(s.data) {
		return errors.New("bad request body: unexpected end of JSON input")
	}
	return fmt.Errorf("bad request body: invalid character %q at offset %d", s.data[s.pos], s.pos)
}

// enter consumes the opening byte of an object or array, and leave its
// closing byte.
func (s *scanner) enter() error {
	if s.depth++; s.depth > maxDepth {
		return errors.New("bad request body: exceeded max depth")
	}
	s.pos++
	return nil
}

func (s *scanner) leave() {
	s.pos++
	s.depth--
}

// object scans the object whose '{' is next, calling member with each
// member's name once its colon is consumed; member must consume the
// value. The name may live in s.str, so it is valid until str is
// truncated.
func (s *scanner) object(member func(name []byte) error) error {
	if err := s.enter(); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.leave()
		return nil
	}
	for {
		if s.peek() != '"' {
			return s.syntaxErr()
		}
		name, err := s.string()
		if err != nil {
			return err
		}
		if s.peek() != ':' {
			return s.syntaxErr()
		}
		s.pos++
		if err := member(name); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case '}':
			s.leave()
			return nil
		default:
			return s.syntaxErr()
		}
	}
}

// array scans the array whose '[' is next, calling elem with the
// position at each element; elem must consume it.
func (s *scanner) array(elem func() error) error {
	if err := s.enter(); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.leave()
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch s.peek() {
		case ',':
			s.pos++
		case ']':
			s.leave()
			return nil
		default:
			return s.syntaxErr()
		}
	}
}

// skip consumes one value of any shape, checking its syntax only, and
// returns its kind.
func (s *scanner) skip() (jsonKind, error) {
	switch c := s.peek(); {
	case c == '{':
		return kindObject, s.object(func([]byte) error { _, err := s.skip(); return err })
	case c == '[':
		return kindArray, s.array(func() error { _, err := s.skip(); return err })
	case c == '"':
		_, err := s.string()
		return kindString, err
	case c == 't':
		return kindBool, s.literal("true")
	case c == 'f':
		return kindBool, s.literal("false")
	case c == 'n':
		return kindNull, s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := s.number()
		return kindNumber, err
	}
	return kindOther, s.syntaxErr()
}

// literal consumes lit, which the next byte begins.
func (s *scanner) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if s.pos >= len(s.data) || s.data[s.pos] != lit[i] {
			return s.syntaxErr()
		}
		s.pos++
	}
	return nil
}

// number consumes a number by the JSON grammar and returns its bytes:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, error) {
	start := s.pos
	if s.data[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(s.data) && s.data[s.pos] == '0' {
		s.pos++
	} else if !s.digits() {
		return nil, s.syntaxErr()
	}
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if !s.digits() {
			return nil, s.syntaxErr()
		}
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if !s.digits() {
			return nil, s.syntaxErr()
		}
	}
	return s.data[start:s.pos], nil
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// string consumes the string whose '"' is next and returns its content
// as encoding/json decodes it: escapes resolved, a \u escape that is not
// a valid surrogate pair and every invalid UTF-8 byte becoming U+FFFD.
// A string that needs none of that is returned as the body's own bytes;
// any other is appended to s.str. Either way the caller copies what it
// keeps.
func (s *scanner) string() ([]byte, error) {
	s.pos++ // the opening quote
	start := s.pos
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], nil
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return s.unquote(start)
		}
		s.pos++
	}
	return nil, s.syntaxErr()
}

// unquote finishes a string that needs decoding: the bytes from start
// to pos are plain, and pos is at the first byte that is not.
func (s *scanner) unquote(start int) ([]byte, error) {
	from := len(s.str)
	s.str = append(s.str, s.data[start:s.pos]...)
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.str[from:], nil
		case c < ' ':
			return nil, s.syntaxErr()
		case c == '\\':
			if s.pos+1 >= len(s.data) {
				s.pos = len(s.data)
				return nil, s.syntaxErr()
			}
			e := s.data[s.pos+1]
			switch e {
			case '"', '\\', '/':
				s.str = append(s.str, e)
			case 'b':
				s.str = append(s.str, '\b')
			case 'f':
				s.str = append(s.str, '\f')
			case 'n':
				s.str = append(s.str, '\n')
			case 'r':
				s.str = append(s.str, '\r')
			case 't':
				s.str = append(s.str, '\t')
			case 'u':
				r, ok := s.hex4(s.pos + 2)
				if !ok {
					return nil, s.syntaxErr()
				}
				s.pos += 6
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with an immediately following
					// \u low surrogate; anything else is U+FFFD, and the
					// next escape is read on its own.
					r2, ok := rune(-1), false
					if s.pos+1 < len(s.data) && s.data[s.pos] == '\\' && s.data[s.pos+1] == 'u' {
						r2, ok = s.hex4(s.pos + 2)
					}
					if dec := utf16.DecodeRune(r, r2); ok && dec != unicode.ReplacementChar {
						s.pos += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				s.str = utf8.AppendRune(s.str, r)
				continue
			default:
				s.pos++
				return nil, s.syntaxErr()
			}
			s.pos += 2
		case c < utf8.RuneSelf:
			s.str = append(s.str, c)
			s.pos++
		default:
			r, size := utf8.DecodeRune(s.data[s.pos:])
			if r == utf8.RuneError && size == 1 {
				s.str = utf8.AppendRune(s.str, unicode.ReplacementChar)
			} else {
				s.str = append(s.str, s.data[s.pos:s.pos+size]...)
			}
			s.pos += size
		}
	}
	return nil, s.syntaxErr()
}

// hex4 reads the four hex digits at i.
func (s *scanner) hex4(i int) (rune, bool) {
	if i+4 > len(s.data) {
		return 0, false
	}
	var r rune
	for _, c := range s.data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// foldEqual reports whether the member name matches field, an
// upper-case ASCII name, as encoding/json matches a struct field's name
// case-insensitively: ASCII letters fold to upper case and any other
// rune to the smallest rune of its case-folding orbit, so "Key", "KEY"
// and "\u212aey" (a Kelvin sign) all name "key".
func foldEqual(name []byte, field string) bool {
	j := 0
	for i := 0; i < len(name); {
		r, n := rune(name[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(name[i:])
			// SimpleFold walks the orbit upwards and wraps to its least.
			for f := unicode.SimpleFold(r); ; f = unicode.SimpleFold(r) {
				if f <= r {
					r = f
					break
				}
				r = f
			}
		} else if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		i += n
		var buf [utf8.UTFMax]byte
		w := utf8.EncodeRune(buf[:], r)
		if j+w > len(field) || string(buf[:w]) != field[j:j+w] {
			return false
		}
		j += w
	}
	return j == len(field)
}
