// JSONBridge: view objects as an object/relational mapping layer. An
// application exchanges nested JSON documents; the view-object machinery
// turns documents into instances, translates updates into relational
// operations, and serializes query results back to JSON — while the data
// stays in the fully normalized Figure 1 database. Documents go through
// the serving tier's wire codec (penguin.InstanceDoc / InstanceFromDoc):
// values print in tagged form ({"int":"3"}), and bare JSON numbers in an
// incoming document still decode.
//
//	go run ./examples/jsonbridge
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"

	"penguin"
	"penguin/internal/university"
)

func main() {
	db, g, err := university.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	omega, err := university.Omega(g)
	if err != nil {
		log.Fatal(err)
	}
	u := penguin.NewUpdater(penguin.PermissiveTranslator(omega))

	// 1. A document arrives from the application (say, a web form): a new
	// graduate course with one enrollment.
	incoming := []byte(`{
		"CourseID": "CS520", "Title": "Knowledge Systems",
		"DeptName": "Computer Science", "Units": 3, "Level": "graduate",
		"GRADES": [
			{"CourseID": "CS520", "PID": 5, "Quarter": "Spr91", "Grade": "A",
			 "STUDENT": [{"PID": 5, "Degree": "PhD", "Year": 5}]}
		]
	}`)
	// UseNumber keeps every number exact on its way to the codec.
	dec := json.NewDecoder(bytes.NewReader(incoming))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		log.Fatal(err)
	}
	inst, err := penguin.InstanceFromDoc(omega, doc)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Preview what the document would do to the database, then commit.
	plan, err := u.PreviewInsertInstance(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the document translates into %d relational operations:\n%s\n\n", len(plan.Ops), plan)
	if _, err := u.InsertInstance(inst); err != nil {
		log.Fatal(err)
	}

	// 3. Query through the object and ship the results back as JSON.
	insts, err := penguin.QueryOQL(db, omega, `Level = 'graduate' and count(STUDENT) < 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graduate courses with fewer than 5 students: %d\n\n", len(insts))
	for _, i := range insts {
		data, err := json.MarshalIndent(penguin.InstanceDoc(i), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if i.Key()[0].MustString() == "CS520" {
			fmt.Println(string(data))
		}
	}

	// 4. Round-trip edit: parse a result, modify it, replace.
	current, ok, err := penguin.InstantiateByKey(db, omega, penguin.Tuple{penguin.String("CS520")})
	if err != nil || !ok {
		log.Fatal("CS520 missing")
	}
	doc = penguin.InstanceDoc(current)
	doc["Title"] = "Knowledge-Based Systems"
	edited, err := penguin.InstanceFromDoc(omega, doc)
	if err != nil {
		log.Fatal(err)
	}
	res, err := u.ReplaceByKey(current.Key(), edited)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndocument edit translated into %d operation(s):\n%s\n", len(res.Ops), res)

	// 5. The relational ground truth reflects every document operation.
	got, _ := db.MustRelation(university.Courses).Get(penguin.Tuple{penguin.String("CS520")})
	fmt.Printf("\nbase tuple now: %s\n", got)
	integrity := &penguin.Integrity{G: g}
	vs, err := integrity.Audit(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("structural-model violations: %d\n", len(vs))
}
