package reldb

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// valueParts is a value spelled as the fuzz target's inputs: a kind, a
// 64-bit payload (an int's two's-complement bits, a float's IEEE 754
// bits, or the low bit of a bool) and a string payload.
type valueParts struct {
	kind Kind
	bits uint64
	s    string
}

// edgeParts are the value edge cases: the int64 extremes, the first int
// past the key codec's exact domain, negative zero, both infinities, a
// NaN with a payload, the empty string, non-UTF-8 bytes around a NUL,
// both bools and null. The FuzzBinaryValue seed corpus spells the same.
var edgeParts = []valueParts{
	{KindNull, 0, ""},
	{KindInt, 1 << 63, ""}, // math.MinInt64
	{KindInt, math.MaxInt64, ""},
	{KindInt, maxExactInt + 1, ""},
	{KindFloat, 1 << 63, ""}, // -0
	{KindFloat, 0x7ff0000000000000, ""},
	{KindFloat, 0xfff0000000000000, ""},
	{KindFloat, 0x7ff0000000000001, ""},
	{KindString, 0, ""},
	{KindString, 0, "\x00\xff"},
	{KindBool, 0, ""},
	{KindBool, 1, ""},
}

// build makes the Value p spells through the public constructor for its
// kind (any kind byte maps onto one of the five).
func (p valueParts) build() Value {
	switch p.kind % 5 {
	case KindInt:
		return Int(int64(p.bits))
	case KindFloat:
		return Float(math.Float64frombits(p.bits))
	case KindString:
		return String(p.s)
	case KindBool:
		return Bool(p.bits&1 == 1)
	}
	return Null()
}

// readBack spells v through its public accessors, so that for every p,
// readBack(p.build()) == p.canonical().
func readBack(v Value) valueParts {
	switch v.Kind() {
	case KindInt:
		n, _ := v.AsInt()
		return valueParts{KindInt, uint64(n), ""}
	case KindFloat:
		f, _ := v.AsFloat()
		return valueParts{KindFloat, math.Float64bits(f), ""}
	case KindString:
		s, _ := v.AsString()
		return valueParts{KindString, 0, s}
	case KindBool:
		b, _ := v.AsBool()
		if b {
			return valueParts{KindBool, 1, ""}
		}
		return valueParts{KindBool, 0, ""}
	}
	return valueParts{v.Kind(), 0, ""}
}

// canonical drops what p's kind does not carry.
func (p valueParts) canonical() valueParts {
	switch k := p.kind % 5; k {
	case KindInt, KindFloat:
		return valueParts{k, p.bits, ""}
	case KindString:
		return valueParts{k, 0, p.s}
	case KindBool:
		return valueParts{k, p.bits & 1, ""}
	default:
		return valueParts{k, 0, ""}
	}
}

// TestValueLayout pins the 32-byte Value (string header, one 64-bit
// payload, kind) and that every edge case reads back bit for bit.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	for _, p := range edgeParts {
		v := p.build()
		if v.Kind() != p.kind {
			t.Errorf("%+v built a %s value", p, v.Kind())
		}
		if got := readBack(v); got != p {
			t.Errorf("%+v reads back as %+v", p, got)
		}
	}
}

// FuzzBinaryValue: a value built from any (kind, bits, string) survives
// the one binary value codec — readBinaryValue accepts its encoding and
// valueAt decodes it to the same kind and payload bits (NaN payloads and
// -0 included) — and any raw bytes readBinaryValue accepts are the bytes
// AppendBinaryValue writes for the value valueAt reads from them: no
// value has a second encoding.
func FuzzBinaryValue(f *testing.F) {
	// The seed corpus is in testdata/fuzz.
	f.Fuzz(func(t *testing.T, kind byte, bits uint64, s string) {
		p := valueParts{Kind(kind), bits, s}
		enc := AppendBinaryValue(nil, p.build())
		read, err := readBinaryValue(bytes.NewReader(enc), nil)
		if err != nil || !bytes.Equal(read, enc) {
			t.Fatalf("%+v: reading %x gives %x, %v", p, enc, read, err)
		}
		got, end := valueAt(string(enc), 0)
		if end != len(enc) {
			t.Fatalf("%+v: valueAt ends at %d of %d bytes", p, end, len(enc))
		}
		if rb := readBack(got); rb != p.canonical() {
			t.Fatalf("%+v decodes as %+v", p, rb)
		}

		// The string as raw codec input: whatever the reader accepts is
		// the encoding of the value it holds.
		r := bytes.NewReader([]byte(s))
		raw, err := readBinaryValue(r, nil)
		if err != nil {
			return
		}
		if want := s[:len(s)-r.Len()]; string(raw) != want {
			t.Fatalf("reader consumed %x but appended %x", want, raw)
		}
		v, end := valueAt(string(raw), 0)
		if end != len(raw) {
			t.Fatalf("%x: valueAt ends at %d of %d bytes", raw, end, len(raw))
		}
		if again := AppendBinaryValue(nil, v); !bytes.Equal(again, raw) {
			t.Fatalf("%x is accepted as %#v, which encodes as %x", raw, v, again)
		}
	})
}
