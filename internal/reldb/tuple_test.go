package reldb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTupleClone(t *testing.T) {
	tup := Tuple{Int(1), String("a")}
	c := tup.Clone()
	c[0] = Int(2)
	if tup[0].MustInt() != 1 {
		t.Fatal("Clone aliases the original")
	}
	if Tuple(nil).Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

func TestTupleEqual(t *testing.T) {
	a := Tuple{Int(1), String("x"), Null()}
	b := Tuple{Int(1), String("x"), Null()}
	if !a.Equal(b) {
		t.Fatal("equal tuples reported unequal")
	}
	if a.Equal(Tuple{Int(1), String("x")}) {
		t.Fatal("different arity reported equal")
	}
	if a.Equal(Tuple{Int(1), String("y"), Null()}) {
		t.Fatal("different values reported equal")
	}
}

func TestTupleProjectWithConcat(t *testing.T) {
	tup := Tuple{Int(1), String("a"), Bool(true)}
	p := tup.Project([]int{2, 0})
	if !p.Equal(Tuple{Bool(true), Int(1)}) {
		t.Fatalf("Project = %v", p)
	}
	c := RowOf(Tuple{Int(1)}).concat(RowOf(Tuple{Int(2), Int(3)}))
	if !c.Tuple().Equal(Tuple{Int(1), Int(2), Int(3)}) {
		t.Fatalf("concat = %v", c)
	}
}

func TestTupleString(t *testing.T) {
	got := Tuple{Int(1), String("a"), Null()}.String()
	if got != "(1, a, NULL)" {
		t.Fatalf("String = %q", got)
	}
}

// rowFuzzTuple reads a tuple from data, value by value: a kind byte
// (kind%5; bit 3 declares an int's column float), then an int's or a
// float's 8 bytes, a string's length byte and bytes, or a bool's byte.
// floatCol[i] reports the declared float column.
func rowFuzzTuple(data []byte) (t Tuple, floatCol []bool) {
	take := func(n int) []byte {
		n = min(n, len(data))
		b := data[:n]
		data = data[n:]
		return b
	}
	u64 := func() uint64 {
		var b [8]byte
		copy(b[:], take(8))
		return binary.LittleEndian.Uint64(b[:])
	}
	for len(data) > 0 {
		k := take(1)[0]
		var v Value
		switch Kind(k&7) % 5 {
		case KindInt:
			v = Int(int64(u64()))
		case KindFloat:
			v = Float(math.Float64frombits(u64()))
		case KindString:
			n := 0
			if b := take(1); len(b) > 0 {
				n = int(b[0])
			}
			v = String(string(take(n)))
		case KindBool:
			b := take(1)
			v = Bool(len(b) > 0 && b[0]&1 == 1)
		}
		t, floatCol = append(t, v), append(floatCol, k&8 != 0)
	}
	return t, floatCol
}

// rowFuzzBytes spells vals as rowFuzzTuple reads them, every int in a
// float column when intsAsFloat is set.
func rowFuzzBytes(intsAsFloat bool, vals ...Value) []byte {
	var b []byte
	for _, v := range vals {
		k := byte(v.kind)
		if intsAsFloat && v.kind == KindInt {
			k |= 8
		}
		b = append(b, k)
		switch v.kind {
		case KindInt, KindFloat:
			b = binary.LittleEndian.AppendUint64(b, v.bits)
		case KindString:
			b = append(append(b, byte(len(v.s))), v.s...)
		case KindBool:
			b = append(b, byte(v.bits))
		}
	}
	return b
}

// FuzzRowCodec: any tuple survives the row string — as a stored row (a
// key prefix over its first nKey%len+1 values), as RowOf and CopyRows
// copies, through Len, At, Tuple, Project, Key, EncodeKey, the WAL's
// tuple writer and, when the tuple is storable, Insert and Get — every
// value coming back Identical (an int in a float column, -0, a NaN
// payload, "", NUL bytes, nulls and wide rows included).
func FuzzRowCodec(f *testing.F) {
	var edges []Value
	for _, p := range edgeParts {
		edges = append(edges, p.build())
	}
	f.Add(rowFuzzBytes(false, edges...), byte(0))
	f.Add(rowFuzzBytes(true, Int(1), Int(-1), Float(math.Copysign(0, -1)), Null()), byte(1))
	f.Add(rowFuzzBytes(false, String(""), String("a\x00b"), String("\x00"), Float(math.NaN())), byte(2))
	f.Add(rowFuzzBytes(false, String(strings.Repeat("wide", 60)), Int(math.MinInt64), Int(math.MaxInt64)), byte(0))
	var wide []Value
	for i := 0; i < 200; i++ {
		wide = append(wide, edges[i%len(edges)])
	}
	f.Add(rowFuzzBytes(true, wide...), byte(7))
	f.Fuzz(func(t *testing.T, data []byte, nKey byte) {
		tup, floatCol := rowFuzzTuple(data)
		if len(tup) == 0 {
			return
		}
		k := 1 + int(nKey)%len(tup)
		attrs := make([]Attribute, len(tup))
		names := make([]string, len(tup))
		for i, v := range tup {
			names[i] = fmt.Sprintf("a%d", i)
			attrs[i] = Attribute{Name: names[i], Type: v.kind, Nullable: true}
			if v.kind == KindNull {
				attrs[i].Type = KindString
			}
			if floatCol[i] && v.kind == KindInt {
				attrs[i].Type = KindFloat
			}
		}
		s := MustSchema("R", attrs, names[:k])
		ek := EncodeValues(tup[:k]...)
		same := func(what string, got Tuple) {
			t.Helper()
			if len(got) != len(tup) {
				t.Fatalf("%s: %d values, want %d", what, len(got), len(tup))
			}
			for i := range got {
				if !got[i].Identical(tup[i]) {
					t.Fatalf("%s: value %d = %#v, want %#v", what, i, got[i], tup[i])
				}
			}
		}
		check := func(what string, row Row) {
			t.Helper()
			if row.Len() != len(tup) {
				t.Fatalf("%s: Len %d, want %d", what, row.Len(), len(tup))
			}
			at := make(Tuple, len(tup))
			for i := range at {
				at[i] = row.At(i)
			}
			same(what+" At", at)
			same(what+" Tuple", row.Tuple())
			same(what+" Project", row.Project(identity(len(tup))))
			same(what+" project", row.project(identity(len(tup))).Tuple())
			if got := row.Key(s); !identicalTuples(got, tup[:k]) {
				t.Fatalf("%s: Key %v, want %v", what, got, tup[:k])
			}
			if got := row.EncodeKey(s); got != ek {
				t.Fatalf("%s: EncodeKey %x, want %x", what, got, ek)
			}
			if !row.Equal(RowOf(tup)) {
				t.Fatalf("%s: not Equal to a copy of its own tuple", what)
			}
			var buf bytes.Buffer
			writeTuple(&buf, row)
			back, _, err := readTuple(&buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			same(what+" through the WAL tuple codec", back.Tuple())
		}
		stored := newRow(s.key, tup)
		if stored.key() != ek {
			t.Fatalf("stored row key %x, want %x", stored.key(), ek)
		}
		check("stored row", stored)
		check("RowOf", RowOf(tup))
		rows := CopyRows([]Tuple{tup, tup})
		check("CopyRows[0]", rows[0])
		check("CopyRows[1]", rows[1])
		if stored.Same(RowOf(tup)) || !RowOf(tup).Same(rows[1]) {
			t.Fatal("Same does not tell a stored row from a copy, or copies apart")
		}
		if c := stored.concat(RowOf(tup)); c.Len() != 2*len(tup) || !c.project(identity(len(tup))).Equal(stored) {
			t.Fatalf("concat of two %d-value rows is %v", len(tup), c)
		}

		r := NewRelation(s)
		if r.Insert(tup) != nil {
			return // not storable: a null or out-of-domain key value
		}
		got, ok := r.Get(tup[:k])
		if !ok {
			t.Fatal("an inserted tuple is not found by its key")
		}
		check("Insert then Get", got)
	})
}

// identity returns the indices 0..n-1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// identicalTuples reports whether a and b hold pairwise Identical values.
func identicalTuples(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Identical(b[i]) {
			return false
		}
	}
	return true
}
