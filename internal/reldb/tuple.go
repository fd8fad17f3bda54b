package reldb

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
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

// Row is a tuple as reldb hands it out: read-only, and one immutable
// string. The string holds a uvarint key length, the row's primary-key
// encoding (AppendKey of the key values in declaration order, the bytes
// the row tree sorts by), then every value in declaration order as
// AppendBinaryValue encodes it: the bytes the WAL and snapshot write. A
// stored row carries its key, and its row-tree entry is keyed by that
// substring; a row built from a client's tuple (RowOf, CopyRows, a join
// or a projection) or read from a WAL record has key length 0. The
// string holds no pointers, so the collector never scans it.
//
// Every read — Get, MatchEqualBatchAt and MatchEqual, Select, Scan,
// All, a Delta's images, the row Delete or Replace took out — hands out
// the stored string itself:
// committed versions are immutable, and a Row has no method that writes.
// At decodes one value in place (a string value is a substring), so a
// read allocates nothing; Tuple decodes a copy a writer may edit. The
// zero Row has no values.
type Row struct{ s string }

// AppendBinaryValue appends v's binary encoding to dst: its Kind byte,
// then an int's zigzag varint, a float's 8 big-endian Float64bits bytes,
// a string's u32 big-endian length and raw bytes, a bool's byte 0 or 1,
// and nothing more for a null. It is the engine's one byte-level value
// encoding: a stored row holds its values in it, and the WAL and the
// snapshot write those bytes as they are. Unlike the order-preserving
// AppendKey it keeps the kind (Int(3) and Float(3) encode differently),
// every int64, every float bit pattern (-0 and NaN payloads included)
// and arbitrary string bytes, and each value has one encoding: two
// Values are Identical exactly when their encodings are equal. External
// codecs (the serving tier's JSON value codec) test their round-trips
// against it.
func AppendBinaryValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindInt:
		return binary.AppendVarint(dst, v.i())
	case KindFloat:
		return binary.BigEndian.AppendUint64(dst, v.bits)
	case KindString:
		return append(binary.BigEndian.AppendUint32(dst, uint32(len(v.s))), v.s...)
	case KindBool:
		return append(dst, byte(v.bits))
	}
	return dst
}

// readBinaryValue reads one value's encoding from r and appends its
// bytes to dst: the one decoder of the bytes the WAL and snapshot hold.
// It accepts exactly what AppendBinaryValue writes — a known kind, a
// varint with no over-long tail, a bool byte of 0 or 1, a string of at
// most maxStringBytes that fits in what r has left — so valueAt reads
// the bytes in place and they re-encode to themselves.
func readBinaryValue(r byteReader, dst []byte) ([]byte, error) {
	k, err := r.ReadByte()
	if err != nil {
		return dst, err
	}
	dst = append(dst, k)
	n := 0
	switch Kind(k) {
	case KindNull:
	case KindInt:
		for i := 0; ; i++ {
			b, err := r.ReadByte()
			if err != nil {
				return dst, err
			}
			dst = append(dst, b)
			if i == binary.MaxVarintLen64-1 && b > 1 || i > 0 && b == 0 {
				return dst, fmt.Errorf("reldb: malformed varint % x", dst[len(dst)-i-1:])
			}
			if b < 0x80 {
				return dst, nil
			}
		}
	case KindFloat:
		n = 8
	case KindString:
		l, err := readU32(r)
		if err != nil {
			return dst, err
		}
		if l > maxStringBytes || overruns(r, l) {
			return dst, fmt.Errorf("reldb: string length %d too large", l)
		}
		dst, n = binary.BigEndian.AppendUint32(dst, l), int(l)
	case KindBool:
		n = 1
	default:
		return dst, fmt.Errorf("reldb: unknown value kind %d", k)
	}
	p := len(dst)
	dst = slices.Grow(dst, n)[:p+n]
	if _, err := io.ReadFull(r, dst[p:]); err != nil {
		return dst, err
	}
	if Kind(k) == KindBool && dst[p] > 1 {
		return dst, fmt.Errorf("reldb: bool byte %d", dst[p])
	}
	return dst, nil
}

// appendRow appends to dst the row string of t, keyed by the values at
// key (nil: a row with no key).
func appendRow(dst []byte, key []int, t Tuple) []byte {
	var kb [64]byte
	k := kb[:0]
	for _, j := range key {
		k = AppendKey(k, t[j])
	}
	dst = append(binary.AppendUvarint(dst, uint64(len(k))), k...)
	for _, v := range t {
		dst = AppendBinaryValue(dst, v)
	}
	return dst
}

// newRow returns the row of t keyed by the values at key: a relation
// stores t as newRow(schema.key, t).
func newRow(key []int, t Tuple) Row {
	var buf [256]byte
	return Row{string(appendRow(buf[:0], key, t))}
}

// keyed returns a row holding r's value bytes as they are, keyed by the
// values at key: a relation stores a row read from the WAL or a snapshot
// as vals.keyed(schema.key).
func (r Row) keyed(key []int) Row {
	var kb [64]byte
	k := kb[:0]
	for _, j := range key {
		k = AppendKey(k, r.At(j))
	}
	var lb [binary.MaxVarintLen64]byte
	return Row{string(binary.AppendUvarint(lb[:0], uint64(len(k)))) + string(k) + r.s[r.pos(0):]}
}

// RowOf returns a Row holding a copy of t's values: the caller may go on
// editing t.
func RowOf(t Tuple) Row { return newRow(nil, t) }

// CopyRows returns Rows over copies of ts, in order, every row carved
// from one string.
func CopyRows(ts []Tuple) []Row {
	n := 0
	for _, t := range ts {
		n++ // the zero key length
		for _, v := range t {
			n += binaryValueLen(v)
		}
	}
	var b strings.Builder
	b.Grow(n)
	var buf [256]byte
	for _, t := range ts {
		b.Write(appendRow(buf[:0], nil, t))
	}
	s := b.String()
	rows := make([]Row, len(ts))
	for i, t := range ts {
		end := skip(s, 1, len(t))
		rows[i], s = Row{s[:end]}, s[end:]
	}
	return rows
}

// binaryValueLen returns the length of v's binary encoding.
func binaryValueLen(v Value) int {
	if v.kind == KindString {
		return 5 + len(v.s)
	}
	var b [binary.MaxVarintLen64 + 1]byte
	return len(AppendBinaryValue(b[:0], v))
}

// uvarintAt decodes the uvarint at s[p:] and returns it with the
// position past it.
func uvarintAt(s string, p int) (uint64, int) {
	if b := s[p]; b < 0x80 {
		return uint64(b), p + 1
	}
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := s[p]
		p++
		if b < 0x80 {
			return x | uint64(b)<<shift, p
		}
		x |= uint64(b&0x7f) << shift
	}
}

// u32At and u64At read the big-endian integer at s[p:].
func u32At(s string, p int) uint32 {
	b := s[p : p+4]
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func u64At(s string, p int) uint64 { return uint64(u32At(s, p))<<32 | uint64(u32At(s, p+4)) }

// valueAt decodes the value at s[p:] and returns it with the position
// past it. A string value is a substring of s.
func valueAt(s string, p int) (Value, int) {
	switch Kind(s[p]) {
	case KindInt:
		u, q := uvarintAt(s, p+1)
		return Value{kind: KindInt, bits: u>>1 ^ -(u & 1)}, q
	case KindFloat:
		return Value{kind: KindFloat, bits: u64At(s, p+1)}, p + 9
	case KindString:
		e := p + 5 + int(u32At(s, p+1))
		return Value{kind: KindString, s: s[p+5 : e]}, e
	case KindBool:
		return Value{kind: KindBool, bits: uint64(s[p+1])}, p + 2
	}
	return Value{}, p + 1
}

// skip returns the position past the n values at s[p:]. At walks every
// value before the one it reads, so this loop is what a read costs.
func skip(s string, p, n int) int {
	for ; n > 0; n-- {
		switch Kind(s[p]) {
		case KindInt:
			for p++; s[p] >= 0x80; p++ {
			}
			p++
		case KindFloat:
			p += 9
		case KindString:
			p += 5 + int(u32At(s, p+1))
		case KindBool:
			p += 2
		default:
			p++
		}
	}
	return p
}

// key returns the row's key encoding: "" for a row built from a
// client's tuple.
func (r Row) key() string {
	if r.s == "" {
		return ""
	}
	n, p := uvarintAt(r.s, 0)
	return r.s[p : p+int(n)]
}

// pos returns the position of the i-th value.
func (r Row) pos(i int) int {
	s := r.s
	if s == "" {
		return 0
	}
	n, p := uvarintAt(s, 0)
	return skip(s, p+int(n), i)
}

// Len returns the number of values.
func (r Row) Len() int {
	n := 0
	for p := r.pos(0); p < len(r.s); p = skip(r.s, p, 1) {
		n++
	}
	return n
}

// At returns the i-th value, decoded in place.
func (r Row) At(i int) Value {
	if i < 0 {
		panic("reldb: Row.At with a negative index")
	}
	v, _ := valueAt(r.s, r.pos(i))
	return v
}

// Equal reports whether two rows have the same arity and pairwise equal
// values (null equals null).
func (r Row) Equal(u Row) bool {
	p, q := r.pos(0), u.pos(0)
	if r.s[p:] == u.s[q:] {
		return true // every value identical
	}
	for p < len(r.s) && q < len(u.s) {
		var a, b Value
		a, p = valueAt(r.s, p)
		b, q = valueAt(u.s, q)
		if !a.Equal(b) {
			return false
		}
	}
	return p == len(r.s) && q == len(u.s)
}

// Same reports whether two rows are the same string data: the same key
// and every value identical. Two reads of one stored row are Same; a
// copy a client built (RowOf) is not the stored row it equals.
func (r Row) Same(u Row) bool { return r.s == u.s }

// Tuple returns a copy of the row's values: the one way to get a tuple a
// writer may edit and pass back in.
func (r Row) Tuple() Tuple {
	if r.s == "" {
		return nil
	}
	t := make(Tuple, 0, r.Len())
	for p := r.pos(0); p < len(r.s); {
		var v Value
		v, p = valueAt(r.s, p)
		t = append(t, v)
	}
	return t
}

// Project extracts the values at the given indices, in order, into a
// new tuple.
func (r Row) Project(idx []int) Tuple {
	p := make(Tuple, len(idx))
	for i, j := range idx {
		p[i] = r.At(j)
	}
	return p
}

// project is Project into a row with no key: each value's bytes copied
// as they are.
func (r Row) project(idx []int) Row {
	var buf [256]byte
	b := append(buf[:0], 0)
	for _, j := range idx {
		p := r.pos(j)
		b = append(b, r.s[p:skip(r.s, p, 1)]...)
	}
	return Row{string(b)}
}

// concat returns a row with no key holding r's values, then u's.
func (r Row) concat(u Row) Row {
	return Row{"\x00" + r.s[r.pos(0):] + u.s[u.pos(0):]}
}

// nullRow returns a row of n nulls: a zero key length and n KindNull
// bytes.
func nullRow(n int) Row { return Row{strings.Repeat("\x00", n+1)} }

// Key returns the row's primary-key values under schema s, in canonical
// key order.
func (r Row) Key(s *Schema) Tuple { return r.Project(s.key) }

// EncodeKey returns the row's encoded primary key under schema s. A
// stored row answers with the key it is stored under, a prefix of its
// string, so s must be its relation's schema (or one keyed by the same
// attributes); any other row encodes its key values.
func (r Row) EncodeKey(s *Schema) string {
	if k := r.key(); k != "" {
		return k
	}
	var dst []byte
	for _, j := range s.key {
		dst = AppendKey(dst, r.At(j))
	}
	return string(dst)
}

// Encode returns the order-preserving encoding of the whole row.
func (r Row) Encode() string {
	var dst []byte
	for p := r.pos(0); p < len(r.s); {
		var v Value
		v, p = valueAt(r.s, p)
		dst = AppendKey(dst, v)
	}
	return string(dst)
}

// String renders the row as a tuple does.
func (r Row) String() string { return r.Tuple().String() }
