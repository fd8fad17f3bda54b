package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"penguin/internal/reldb"
)

// roundTrip pushes v through the full wire path — encode, marshal,
// unmarshal (UseNumber, as the server decodes), decode — and returns
// the result.
func roundTrip(t *testing.T, v reldb.Value) reldb.Value {
	t.Helper()
	data, err := json.Marshal(EncodeValue(v))
	if err != nil {
		t.Fatalf("marshal %s: %v", v, err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		t.Fatalf("unmarshal %s (%s): %v", v, data, err)
	}
	got, err := DecodeValue(raw)
	if err != nil {
		t.Fatalf("decode %s (%s): %v", v, data, err)
	}
	return got
}

// binaryEq compares two values under the engine's one binary value
// encoding — the bytes a stored row, the WAL and the snapshot hold — so
// kind tags, every int64, every float bit pattern, and every string byte
// must match exactly.
func binaryEq(a, b reldb.Value) bool {
	return bytes.Equal(reldb.AppendBinaryValue(nil, a), reldb.AppendBinaryValue(nil, b))
}

// TestValueCodecEdgeCases pins the cases plain encoding/json gets
// wrong: int64 past 2^53, the Int/Float kind split for equal numerics
// (cross-kind values stored in float attributes), negative zero, ±Inf,
// NaN payload bits, and strings that are not valid UTF-8.
func TestValueCodecEdgeCases(t *testing.T) {
	cases := []reldb.Value{
		reldb.Null(),
		reldb.Bool(true),
		reldb.Bool(false),
		reldb.Int(0),
		reldb.Int(-1),
		reldb.Int(math.MaxInt64),
		reldb.Int(math.MinInt64),
		reldb.Int(1<<53 + 1), // first integer JSON numbers cannot hold
		reldb.Float(0),
		reldb.Float(math.Copysign(0, -1)), // -0.0
		reldb.Float(3),                    // same numeric as Int(3), different kind
		reldb.Float(0.1),
		reldb.Float(math.MaxFloat64),
		reldb.Float(math.SmallestNonzeroFloat64),
		reldb.Float(math.Inf(1)),
		reldb.Float(math.Inf(-1)),
		reldb.Float(math.NaN()),
		reldb.Float(math.Float64frombits(0x7ff8_0000_0000_0001)), // NaN, nonstandard payload
		reldb.String(""),
		reldb.String("plain"),
		reldb.String("non-ASCII: héllo, 世界"),
		reldb.String("embedded \x00 NUL"),
		reldb.String("\xff\xfe not UTF-8"),
		reldb.String(string([]byte{0x80, 0x81, 'a', 0xc3})), // truncated sequences
		reldb.String(strings.Repeat("x", 1<<16)),
	}
	for _, v := range cases {
		got := roundTrip(t, v)
		if !binaryEq(v, got) {
			t.Errorf("round trip changed %s (kind %s) into %s (kind %s)", v, v.Kind(), got, got.Kind())
		}
	}
	// Int(3) and Float(3) must stay distinguishable through the wire.
	if binaryEq(roundTrip(t, reldb.Int(3)), roundTrip(t, reldb.Float(3))) {
		t.Error("Int(3) and Float(3) collapsed to the same wire value")
	}
}

// TestValueCodecProperty round-trips a large randomized corpus.
func TestValueCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randValue := func() reldb.Value {
		switch rng.Intn(5) {
		case 0:
			return reldb.Null()
		case 1:
			return reldb.Bool(rng.Intn(2) == 0)
		case 2:
			return reldb.Int(int64(rng.Uint64()))
		case 3:
			// Arbitrary bit patterns: subnormals, NaNs, infinities.
			return reldb.Float(math.Float64frombits(rng.Uint64()))
		default:
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			return reldb.String(string(b))
		}
	}
	for i := 0; i < 2000; i++ {
		v := randValue()
		got := roundTrip(t, v)
		if !binaryEq(v, got) {
			t.Fatalf("iteration %d: round trip changed %s (kind %s) into %s (kind %s)",
				i, v, v.Kind(), got, got.Kind())
		}
	}
}

// TestDecodeConvenienceForms accepts handwritten JSON: bare numbers map
// integral → Int, fractional/exponent → Float.
func TestDecodeConvenienceForms(t *testing.T) {
	cases := []struct {
		in   string
		want reldb.Value
	}{
		{`17`, reldb.Int(17)},
		{`-3`, reldb.Int(-3)},
		{`9223372036854775807`, reldb.Int(math.MaxInt64)},
		{`2.5`, reldb.Float(2.5)},
		{`1e3`, reldb.Float(1000)},
		{`"hi"`, reldb.String("hi")},
		{`true`, reldb.Bool(true)},
		{`null`, reldb.Null()},
	}
	for _, c := range cases {
		dec := json.NewDecoder(strings.NewReader(c.in))
		dec.UseNumber()
		var raw any
		if err := dec.Decode(&raw); err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		got, err := DecodeValue(raw)
		if err != nil {
			t.Fatalf("%s: %v", c.in, err)
		}
		if !binaryEq(got, c.want) {
			t.Errorf("%s decoded to %s (kind %s), want %s (kind %s)", c.in, got, got.Kind(), c.want, c.want.Kind())
		}
	}
}

// TestDecodeRejectsMalformed checks the tagged forms fail loudly.
func TestDecodeRejectsMalformed(t *testing.T) {
	bad := []any{
		map[string]any{"int": "not a number"},
		map[string]any{"int": 3.0},
		map[string]any{"int": "1", "float": "2"},
		map[string]any{"float": "wat"},
		map[string]any{"float": "1.5", "bits": "3ff8000000000000"}, // bits on a non-NaN
		map[string]any{"bytes": "!!not base64!!"},
		map[string]any{"unknown": "tag"},
		[]any{1, 2},
	}
	for _, raw := range bad {
		if v, err := DecodeValue(raw); err == nil {
			t.Errorf("DecodeValue(%v) = %s, want error", raw, v)
		}
	}
}
