package reldb

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Fatal("Null() should be null")
	}
	if v := Int(42); v.Kind() != KindInt || v.MustInt() != 42 {
		t.Fatalf("Int(42) = %v", v)
	}
	if v := Float(2.5); v.Kind() != KindFloat {
		t.Fatalf("Float kind = %v", v.Kind())
	} else if f, ok := v.AsFloat(); !ok || f != 2.5 {
		t.Fatalf("AsFloat = %v %v", f, ok)
	}
	if v := String("x"); v.MustString() != "x" {
		t.Fatalf("String payload = %q", v.MustString())
	}
	if v := Bool(true); v.Kind() != KindBool {
		t.Fatalf("Bool kind = %v", v.Kind())
	} else if b, ok := v.AsBool(); !ok || !b {
		t.Fatalf("AsBool = %v %v", b, ok)
	}
	// Int promotes to float via AsFloat.
	if f, ok := Int(3).AsFloat(); !ok || f != 3.0 {
		t.Fatalf("Int.AsFloat = %v %v", f, ok)
	}
	// Wrong-kind accessors report !ok.
	if _, ok := String("x").AsInt(); ok {
		t.Fatal("AsInt on string should fail")
	}
	if _, ok := Int(1).AsString(); ok {
		t.Fatal("AsString on int should fail")
	}
	if _, ok := Int(1).AsBool(); ok {
		t.Fatal("AsBool on int should fail")
	}
	if _, ok := String("x").AsFloat(); ok {
		t.Fatal("AsFloat on string should fail")
	}
}

func TestMustAccessorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustInt on string should panic")
		}
	}()
	String("x").MustInt()
}

func TestMustStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustString on int should panic")
		}
	}()
	Int(1).MustString()
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null(), Null(), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), String(""), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v,%v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareCrossKindErrors(t *testing.T) {
	bad := [][2]Value{
		{String("a"), Int(1)},
		{Bool(true), Int(1)},
		{String("a"), Bool(false)},
		{Float(1), String("1")},
	}
	for _, p := range bad {
		if _, err := Compare(p[0], p[1]); err == nil {
			t.Errorf("Compare(%v,%v) should fail", p[0], p[1])
		}
	}
}

func TestValueEqual(t *testing.T) {
	if !Int(2).Equal(Float(2.0)) {
		t.Error("Int(2) should equal Float(2.0)")
	}
	if Int(2).Equal(String("2")) {
		t.Error("Int(2) should not equal String(\"2\")")
	}
	if !Null().Equal(Null()) {
		t.Error("null should equal null at the storage layer")
	}
	if Null().Equal(Int(0)) {
		t.Error("null should not equal 0")
	}
}

// TestValueIdentical: Identical is Equal without the cross-kind and
// signed-zero coincidences, and it holds every value identical to itself.
func TestValueIdentical(t *testing.T) {
	nan := Float(math.Float64frombits(0x7ff8_0000_0000_0001))
	same := []Value{Null(), Bool(false), Bool(true), Int(0), Int(-7), Float(0), Float(math.Copysign(0, -1)),
		Float(1.5), nan, String(""), String("a\x00b")}
	for i, v := range same {
		for j, w := range same {
			if got := v.Identical(w); got != (i == j) {
				t.Errorf("%s (kind %s).Identical(%s (kind %s)) = %v", v, v.Kind(), w, w.Kind(), got)
			}
		}
	}
	// Values built apart are identical when kind and payload match.
	if !String("ab").Identical(String(string([]byte{'a', 'b'}))) || !Int(3).Identical(Int(3)) {
		t.Error("equal payloads built apart are not identical")
	}
	// The pairs Equal joins and Identical keeps apart.
	for _, p := range [][2]Value{{Int(1), Float(1)}, {Float(0), Float(math.Copysign(0, -1))}, {Null(), Bool(false)}} {
		if p[0].Identical(p[1]) {
			t.Errorf("%s (kind %s) identical to %s (kind %s)", p[0], p[0].Kind(), p[1], p[1].Kind())
		}
	}
}

func TestValueStringAndLiteral(t *testing.T) {
	cases := []struct {
		v        Value
		str, lit string
	}{
		{Null(), "NULL", "NULL"},
		{Int(-7), "-7", "-7"},
		{Float(1.5), "1.5", "1.5"},
		{String(`a"b`), `a"b`, `"a\"b"`},
		{Bool(true), "true", "true"},
		{Bool(false), "false", "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if got := c.v.Literal(); got != c.lit {
			t.Errorf("Literal() = %q, want %q", got, c.lit)
		}
	}
}

func TestParseKind(t *testing.T) {
	good := map[string]Kind{
		"int": KindInt, "INTEGER": KindInt,
		"float": KindFloat, "real": KindFloat, "Double": KindFloat,
		"string": KindString, "TEXT": KindString, "varchar": KindString,
		"bool": KindBool, "Boolean": KindBool,
	}
	for name, want := range good {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(KindInt, "42")
	if err != nil || v.MustInt() != 42 {
		t.Fatalf("ParseValue int: %v %v", v, err)
	}
	v, err = ParseValue(KindFloat, "2.25")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := v.AsFloat(); f != 2.25 {
		t.Fatalf("ParseValue float = %v", f)
	}
	v, err = ParseValue(KindBool, "true")
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := v.AsBool(); !b {
		t.Fatal("ParseValue bool")
	}
	v, err = ParseValue(KindString, "hello")
	if err != nil || v.MustString() != "hello" {
		t.Fatalf("ParseValue string: %v %v", v, err)
	}
	for _, kind := range []Kind{KindInt, KindFloat, KindString, KindBool} {
		v, err := ParseValue(kind, "NULL")
		if err != nil || !v.IsNull() {
			t.Errorf("ParseValue(%v, NULL) = %v, %v", kind, v, err)
		}
	}
	if _, err := ParseValue(KindInt, "xyz"); err == nil {
		t.Error("ParseValue int from garbage should fail")
	}
	if _, err := ParseValue(KindBool, "maybe"); err == nil {
		t.Error("ParseValue bool from garbage should fail")
	}
}

// TestKeyEncodingOrderPreserving verifies the central codec invariant:
// bytes(a) < bytes(b) iff a < b, for same-kind values.
func TestKeyEncodingOrderPreserving(t *testing.T) {
	ints := []int64{math.MinInt64, -1000, -1, 0, 1, 42, 1000, math.MaxInt64}
	for i := 0; i < len(ints); i++ {
		for j := 0; j < len(ints); j++ {
			a := EncodeValues(Int(ints[i]))
			b := EncodeValues(Int(ints[j]))
			if (a < b) != (ints[i] < ints[j]) {
				t.Errorf("int ordering broken for %d vs %d", ints[i], ints[j])
			}
		}
	}
	floats := []float64{math.Inf(-1), -1e300, -2.5, -0.0, 0.0, 1e-300, 2.5, 1e300, math.Inf(1)}
	for i := 0; i < len(floats); i++ {
		for j := 0; j < len(floats); j++ {
			a := EncodeValues(Float(floats[i]))
			b := EncodeValues(Float(floats[j]))
			if (a < b) != (floats[i] < floats[j]) {
				t.Errorf("float ordering broken for %v vs %v", floats[i], floats[j])
			}
		}
	}
	strs := []string{"", "a", "aa", "ab", "b", "ba", "z\x00", "z\x00\x00", "z\x01"}
	for i := 0; i < len(strs); i++ {
		for j := 0; j < len(strs); j++ {
			a := EncodeValues(String(strs[i]))
			b := EncodeValues(String(strs[j]))
			if (a < b) != (strs[i] < strs[j]) {
				t.Errorf("string ordering broken for %q vs %q", strs[i], strs[j])
			}
		}
	}
}

// Property: encoded composite keys are injective — distinct value sequences
// never collide. Exercised with random value vectors.
func TestKeyEncodingInjectiveProperty(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return Int(r.Int63() - r.Int63())
		case 1:
			return Float(r.NormFloat64())
		case 2:
			n := r.Intn(8)
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(r.Intn(4)) // skew toward 0x00-0x03 to stress escaping
			}
			return String(string(b))
		default:
			return Bool(r.Intn(2) == 0)
		}
	}
	r := rand.New(rand.NewSource(1))
	seen := make(map[string]Tuple)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(3)
		tup := make(Tuple, n)
		for i := range tup {
			tup[i] = gen(r)
		}
		enc := tup.Encode()
		if prev, ok := seen[enc]; ok && !prev.Equal(tup) {
			t.Fatalf("collision: %v and %v encode to the same key", prev, tup)
		}
		seen[enc] = tup
	}
}

// Property via testing/quick: int ordering is preserved by the codec.
func TestQuickIntOrdering(t *testing.T) {
	f := func(a, b int64) bool {
		ea, eb := EncodeValues(Int(a)), EncodeValues(Int(b))
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property via testing/quick: string ordering is preserved by the codec,
// including strings containing NUL bytes.
func TestQuickStringOrdering(t *testing.T) {
	f := func(a, b string) bool {
		ea, eb := EncodeValues(String(a)), EncodeValues(String(b))
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: prefix-freedom of composite encodings — the encoding of a tuple
// is never a strict prefix of the encoding of a different-arity tuple that
// extends it, unless the values differ. (Guards the self-delimiting design.)
func TestEncodingSelfDelimiting(t *testing.T) {
	a := EncodeValues(String("ab"))
	b := EncodeValues(String("a"), String("b"))
	if a == b {
		t.Fatal(`("ab") and ("a","b") must encode differently`)
	}
	c := EncodeValues(String("a\x00b"))
	d := EncodeValues(String("a"), String("b"))
	if c == d {
		t.Fatal(`("a\x00b") and ("a","b") must encode differently`)
	}
}

func TestNullSortsFirstInEncoding(t *testing.T) {
	null := EncodeValues(Null())
	for _, v := range []Value{Int(math.MinInt64), Float(math.Inf(-1)), String(""), Bool(false)} {
		if enc := EncodeValues(v); !(null < enc) {
			t.Errorf("null must sort before %v", v)
		}
	}
}

func TestAppendKeyAccumulates(t *testing.T) {
	var buf []byte
	buf = AppendKey(buf, Int(1))
	n := len(buf)
	buf = AppendKey(buf, String("x"))
	if len(buf) <= n {
		t.Fatal("AppendKey did not grow the buffer")
	}
	if !bytes.HasPrefix(buf, []byte(EncodeValues(Int(1)))) {
		t.Fatal("AppendKey prefix mismatch")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNull: "null", KindInt: "int", KindFloat: "float",
		KindString: "string", KindBool: "bool",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind String() = %q", got)
	}
}

func TestValueRoundTripViaQuick(t *testing.T) {
	// ParseValue(kind, v.String()) round-trips for non-null scalar kinds.
	fInt := func(n int64) bool {
		v, err := ParseValue(KindInt, Int(n).String())
		return err == nil && v.Equal(Int(n))
	}
	if err := quick.Check(fInt, nil); err != nil {
		t.Error(err)
	}
	fBool := func(b bool) bool {
		v, err := ParseValue(KindBool, Bool(b).String())
		return err == nil && v.Equal(Bool(b))
	}
	if err := quick.Check(fBool, nil); err != nil {
		t.Error(err)
	}
}

// Guard against accidental reflection-visible state sharing in Value.
func TestValueIsComparableByReflection(t *testing.T) {
	a, b := Int(5), Int(5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical ints should be deep-equal")
	}
}

// Property via testing/quick: composite-key encoding is lexicographic —
// ordering of (int, string) pairs matches ordering of their encodings.
func TestQuickCompositeLexicographic(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		ea := EncodeValues(Int(a1), String(a2))
		eb := EncodeValues(Int(b1), String(b2))
		var want int
		switch {
		case a1 < b1:
			want = -1
		case a1 > b1:
			want = 1
		case a2 < b2:
			want = -1
		case a2 > b2:
			want = 1
		}
		switch {
		case want < 0:
			return ea < eb
		case want > 0:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property via testing/quick: float ordering is preserved by the codec
// for all finite inputs.
func TestQuickFloatOrdering(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true // NaN has no ordering; keys never hold NaN
		}
		ea, eb := EncodeValues(Float(a)), EncodeValues(Float(b))
		switch {
		case a < b:
			return ea < eb
		case a > b:
			return ea > eb
		default:
			return ea == eb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
