// Registrar: the paper's §6 scenario end to end — choosing translators by
// dialog and replaying the EES345 replacement under a permissive and a
// restrictive translator, plus a side-by-side comparison with the flat
// relational-view baseline of §4.
//
//	go run ./examples/registrar
package main

import (
	"fmt"
	"log"

	"penguin"
	"penguin/internal/university"
)

func main() {
	section6()
	baselineComparison()
}

// section6 reproduces the paper's §6: the dialog transcript, then the
// replacement request under both translators.
func section6() {
	fmt.Println("=== Section 6: choosing a translator for view-object updates ===")
	_, g, err := university.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	omega, err := university.Omega(g)
	if err != nil {
		log.Fatal(err)
	}
	_, tape, err := penguin.ChooseReplacementTranslator(omega, penguin.PaperDialogAnswers())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(tape.Render())

	run := func(restrictive bool) {
		db, g, err := university.NewSeeded()
		if err != nil {
			log.Fatal(err)
		}
		omega, err := university.Omega(g)
		if err != nil {
			log.Fatal(err)
		}
		answers := penguin.PaperDialogAnswers()
		label := "permissive"
		if restrictive {
			answers.Answers["outside.DEPARTMENT.modifiable"] = false
			label = "restrictive (DEPARTMENT frozen)"
		}
		tr, _, err := penguin.ChooseTranslator(omega, answers)
		if err != nil {
			log.Fatal(err)
		}
		tr.RepairInserts = true
		u := penguin.NewUpdater(tr)

		old, ok, err := penguin.InstantiateByKey(db, omega, penguin.Tuple{penguin.String("CS345")})
		if err != nil || !ok {
			log.Fatal("CS345 instance missing")
		}
		repl := old.Clone()
		must(repl.Root().SetAttr(omega, "CourseID", penguin.String("EES345")))
		must(repl.Root().SetAttr(omega, "DeptName", penguin.String("Engineering Economic Systems")))
		dep := repl.Root().Children(university.Department)[0]
		must(dep.SetTuple(omega, penguin.Tuple{
			penguin.String("Engineering Economic Systems"), penguin.Null(), penguin.Null(),
		}))

		fmt.Printf("\n--- replacing CS345 -> EES345 under the %s translator ---\n", label)
		res, err := u.ReplaceByKey(old.Key(), repl)
		if err != nil {
			fmt.Println("rejected:", err)
			return
		}
		fmt.Printf("accepted, %d operations:\n%s\n", len(res.Ops), res)
		ees := db.MustRelation(university.Department).Has(penguin.Tuple{penguin.String("Engineering Economic Systems")})
		fmt.Printf("DEPARTMENT now contains <Engineering Economic Systems>: %v\n", ees)
	}
	run(false)
	run(true)
}

// baselineComparison contrasts VO-CD with Keller's flat-view deletion on
// the same request: deleting course CS345.
func baselineComparison() {
	fmt.Println("\n=== View-object deletion vs flat-view deletion (the §4/§5 contrast) ===")

	// Flat baseline: delete through a COURSES ⋈ GRADES view.
	db1, g1, err := university.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	flat, err := penguin.NewFlatView(db1, "course-grades",
		[]penguin.FlatJoin{
			{Relation: university.Courses},
			{Relation: university.Grades,
				LeftAttrs:  []string{"COURSES.CourseID"},
				RightAttrs: []string{"CourseID"}},
		}, nil,
		[]string{"COURSES.CourseID", "COURSES.Title", "COURSES.Level", "GRADES.PID", "GRADES.Grade"})
	if err != nil {
		log.Fatal(err)
	}
	ft := penguin.PermissiveFlatTranslator(flat)
	fres, err := ft.Delete(penguin.Tuple{
		penguin.String("CS345"), penguin.String("Database Systems"), penguin.String("graduate"),
		penguin.Int(1), penguin.String("A"),
	})
	if err != nil {
		log.Fatal(err)
	}
	in1 := &penguin.Integrity{G: g1}
	v1, err := in1.Audit(db1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("flat view:   %d operation(s), %d integrity violations left behind\n",
		fres.Total(), len(v1))
	for _, v := range v1 {
		fmt.Println("   ", v)
	}

	// View object: the same request through ω.
	db2, g2, err := university.NewSeeded()
	if err != nil {
		log.Fatal(err)
	}
	omega, err := university.Omega(g2)
	if err != nil {
		log.Fatal(err)
	}
	u := penguin.NewUpdater(penguin.PermissiveTranslator(omega))
	vres, err := u.DeleteByKey(penguin.Tuple{penguin.String("CS345")})
	if err != nil {
		log.Fatal(err)
	}
	in2 := &penguin.Integrity{G: g2}
	v2, err := in2.Audit(db2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view object: %d operation(s), %d integrity violations left behind\n",
		len(vres.Ops), len(v2))
	fmt.Println("\nthe view-object translation performs more base operations but preserves")
	fmt.Println("global consistency; the flat translation orphans the course's grades and")
	fmt.Println("leaves curriculum rows dangling.")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
