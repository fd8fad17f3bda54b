package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/university"
)

// decodeDoc is the handlers' decode path for an instance document: a
// UseNumber decode, so bare numbers reach DecodeValue undamaged.
func decodeDoc(data []byte) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	err := dec.Decode(&doc)
	return doc, err
}

// TestInstanceFromDocRejects holds the document decoder to its hostile-
// input boundary: every malformed document is refused whole.
func TestInstanceFromDocRejects(t *testing.T) {
	_, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	cases := map[string]string{
		"unknown field":              `{"CourseID": "X", "Nope": 1}`,
		"non-integral int":           `{"CourseID": "X", "Units": 3.5}`,
		"wrong type":                 `{"CourseID": "X", "Units": "three"}`,
		"child is not an array":      `{"CourseID": "X", "GRADES": "not-a-list"}`,
		"element is not an object":   `{"CourseID": "X", "GRADES": ["not-an-object"]}`,
		"unknown nested field":       `{"CourseID": "X", "GRADES": [{"Ghost": 1}]}`,
		"null key":                   `{"CourseID": null}`,
		"bool into string attribute": `{"CourseID": "X", "GRADES": [{"CourseID": true}]}`,
	}
	for name, body := range cases {
		doc, err := decodeDoc([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst, err := InstanceFromDoc(om, doc); err == nil {
			t.Errorf("%s: %s accepted as\n%s", name, body, inst.Render())
		}
	}
}

// TestInstanceFromDocNulls: an absent attribute becomes null, and a bare
// number keeps every digit (2^53+1 would round through a float64).
func TestInstanceFromDocNulls(t *testing.T) {
	_, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	doc, err := decodeDoc([]byte(`{"CourseID": "CS900", "Units": 9007199254740993,
		"GRADES": [{"CourseID": "CS900", "PID": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := InstanceFromDoc(om, doc)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := inst.Root().Get(om, "Title"); !v.IsNull() {
		t.Fatalf("absent attr = %v, want null", v)
	}
	if v, _ := inst.Root().Get(om, "Units"); v.Kind() != reldb.KindInt || !v.Equal(reldb.Int(1<<53+1)) {
		t.Fatalf("Units = %v (kind %s), want the int %d", v, v.Kind(), int64(1<<53+1))
	}
	if inst.Count(university.Grades) != 1 {
		t.Fatal("nested grade missing")
	}
}

// FuzzInstanceFromDoc feeds arbitrary bytes through the handlers' decode
// path over encodeFixture's definition. No input may panic it, and every
// instance it accepts must survive the wire: AppendInstance's bytes
// decode back to the same instance.
func FuzzInstanceFromDoc(f *testing.F) {
	def := encodeFixture(f)
	for _, seed := range []string{
		`{"id": 1}`,
		`{"id": {"int": "-42"}, "s": "x", "f": 2.5, "i": 9007199254740993, "b": true}`,
		`{"id": 1, "M": [{"id": 1, "mid": 2, "L\"eaf": [{"id": 1, "mid": 2, "lid": 3, "<&>": null}]}], "E": [{"id": 1, "eid": 7, "s": {"bytes": "/w=="}}]}`,
		`{"id": 1, "f": {"float": "NaN", "bits": "7ff8000000000001"}, "é\u2028": {"float": "-Inf"}}`,
		`{"id": 1, "M": null, "E": []}`,
		`{"id": 1, "Nope": 1}`,
		`{"id": 1.5}`,
		`[1, 2]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := decodeDoc(data)
		if err != nil {
			return
		}
		inst, err := InstanceFromDoc(def, doc)
		if err != nil {
			return
		}
		wire := AppendInstance(nil, inst)
		back, err := decodeDoc(wire)
		if err != nil {
			t.Fatalf("own output does not parse: %v\n%s", err, wire)
		}
		again, err := InstanceFromDoc(def, back)
		if err != nil {
			t.Fatalf("own output rejected: %v\n%s", err, wire)
		}
		if again.Render() != inst.Render() {
			t.Fatalf("instance changed across the wire:\nsent %s\ncame back %s", inst.Render(), again.Render())
		}
	})
}
