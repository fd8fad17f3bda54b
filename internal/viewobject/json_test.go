package viewobject_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/serve"
	"penguin/internal/university"
	. "penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// An instance's JSON document is the serving tier's wire codec
// (serve.InstanceDoc / serve.InstanceFromDoc); these tests hold the
// view-object side of it: the document's shape and the round trip.

// decodeDoc parses a document the way the HTTP handlers do: UseNumber,
// so no number is rounded on its way to the codec.
func decodeDoc(t *testing.T, data []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	db, om := seededOmega(t)
	inst, ok, err := InstantiateByKey(db, om, cs345Key())
	if err != nil || !ok {
		t.Fatal(err)
	}
	data, err := json.Marshal(serve.InstanceDoc(inst))
	if err != nil {
		t.Fatal(err)
	}
	doc := decodeDoc(t, data)
	if doc["CourseID"] != "CS345" || doc["Title"] != "Database Systems" {
		t.Fatalf("document = %s", data)
	}
	if units, _ := doc["Units"].(map[string]any); units["int"] != "4" {
		t.Fatalf("Units = %v, want the tagged int 4", doc["Units"])
	}
	grades, ok := doc[university.Grades].([]any)
	if !ok || len(grades) != 3 {
		t.Fatalf("grades = %v", doc[university.Grades])
	}
	students, ok := grades[0].(map[string]any)[university.Student].([]any)
	if !ok || len(students) != 1 {
		t.Fatalf("nested students = %v", grades[0])
	}

	back, err := serve.InstanceFromDoc(om, doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Render() != inst.Render() {
		t.Fatalf("round trip differs:\n%s\nvs\n%s", back.Render(), inst.Render())
	}
}

func TestJSONDocumentDrivesUpdate(t *testing.T) {
	// The O/R path an application would take: receive a handwritten JSON
	// document (bare numbers), turn it into an instance, insert it
	// through the translator.
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	doc := decodeDoc(t, []byte(`{
		"CourseID": "CS901", "Title": "JSON Course", "DeptName": "Computer Science",
		"Units": 3, "Level": "graduate",
		"GRADES": [
			{"CourseID": "CS901", "PID": 1, "Quarter": "Aut91", "Grade": "A",
			 "STUDENT": [{"PID": 1, "Degree": "PhD", "Year": 3}]}
		],
		"DEPARTMENT": [], "CURRICULUM": []
	}`))
	inst, err := serve.InstanceFromDoc(om, doc)
	if err != nil {
		t.Fatal(err)
	}
	if !inst.Key().Equal(reldb.Tuple{reldb.String("CS901")}) {
		t.Fatalf("key = %v", inst.Key())
	}
	if inst.Count(university.Student) != 1 {
		t.Fatal("nested student missing")
	}
	if _, err := vupdate.NewUpdater(vupdate.PermissiveTranslator(om)).InsertInstance(inst); err != nil {
		t.Fatal(err)
	}
	got, ok, err := InstantiateByKey(db, om, inst.Key())
	if err != nil || !ok {
		t.Fatalf("inserted instance not found: %v, %v", ok, err)
	}
	// DeptName references an existing department, which the stored
	// instance assembles although the document listed none.
	if got.Count(university.Grades) != 1 || got.Count(university.Student) != 1 || got.Count(university.Department) != 1 {
		t.Fatalf("stored instance:\n%s", got.Render())
	}
}
