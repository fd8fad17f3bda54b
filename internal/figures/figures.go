// Package figures regenerates every evaluation artifact of the paper as a
// deterministic text rendering: Figure 1 (the structural schema), Figure 2
// (subgraph extraction, tree expansion, pruning), Figure 3 (the alternate
// object ω′), Figure 4 (instantiation), the §6 translator-selection
// dialog, and the §6 replacement example under the permissive and
// restrictive translators. The penguin-figures command prints them;
// EXPERIMENTS.md records them against the paper's claims.
package figures

import (
	"fmt"
	"strings"

	"penguin/internal/keller"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// Figure1 renders the structural schema of the university database.
func Figure1(g *structural.Graph) string {
	return "Figure 1: Structural schema of a university database\n\n" + g.Render()
}

// Figure2 renders the three stages of view-object definition for ω:
// (a) the relevant subgraph, (b) the expanded tree with its two PEOPLE
// copies, and (c) the pruned configuration of complexity 5.
func Figure2(g *structural.Graph) (string, error) {
	sub, err := viewobject.ExtractSubgraph(g, university.Courses, viewobject.DefaultMetric())
	if err != nil {
		return "", err
	}
	tree := viewobject.BuildTree(sub)
	om, err := university.Omega(g)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 2: Definition of a view object\n\n")
	b.WriteString("(a) " + sub.Render() + "\n")
	b.WriteString("(b) " + tree.Render())
	fmt.Fprintf(&b, "    (%d occurrences; PEOPLE appears %d times — one per path from COURSES)\n\n",
		tree.Size(), len(tree.Occurrences(university.People)))
	b.WriteString("(c) " + om.Render())
	return b.String(), nil
}

// Figure3 renders the alternate view object ω′ of Figure 3.
func Figure3(g *structural.Graph) (string, error) {
	op, err := university.OmegaPrime(g)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 3: A different view of the database\n\n")
	b.WriteString(op.Render())
	st, _ := op.Node(university.Student)
	fmt.Fprintf(&b, "\nNote: the edge from COURSES to STUDENT is a path of %d connections\n", len(st.Path))
	b.WriteString("(COURSES --* GRADES inv(--*) STUDENT) since GRADES is not part of omega-prime.\n")
	return b.String(), nil
}

// Figure4 renders the instantiation of ω for the paper's request:
// graduate courses with less than 5 students having enrolled.
func Figure4(db *reldb.Database, g *structural.Graph) (string, error) {
	om, err := university.Omega(g)
	if err != nil {
		return "", err
	}
	const query = `Level = 'graduate' and count(STUDENT) < 5`
	insts, err := oql.Query(db, om, query)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Figure 4: Instantiation of a view object\n\n")
	fmt.Fprintf(&b, "query: %s\n", query)
	fmt.Fprintf(&b, "matching instances: %d\n\n", len(insts))
	for _, inst := range insts {
		b.WriteString(inst.Render())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// Section4Enumeration renders Keller's translation space (§4) for one
// flat-view deletion: every candidate translation with its validity
// verdict, showing the ambiguity that the definition-time dialog
// resolves. The example deletes EE201's only view row, which admits two
// minimal valid translations.
func Section4Enumeration(db *reldb.Database) (string, error) {
	view, err := keller.NewView(db, "course-grades",
		[]keller.Join{
			{Relation: university.Courses},
			{Relation: university.Grades,
				LeftAttrs: []string{"COURSES.CourseID"}, RightAttrs: []string{"CourseID"}},
		}, nil,
		[]string{"COURSES.CourseID", "COURSES.Title", "COURSES.Level", "GRADES.PID", "GRADES.Grade"})
	if err != nil {
		return "", err
	}
	tr := keller.PermissiveTranslator(view)
	viewTuple := reldb.Tuple{
		reldb.String("EE201"), reldb.String("Circuits I"), reldb.String("undergraduate"),
		reldb.Int(3), reldb.String("A"),
	}
	cands, err := tr.EnumerateDeletionTranslations(viewTuple)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Section 4: the space of alternative translations (Keller)\n\n")
	fmt.Fprintf(&b, "view: %s\n", view)
	fmt.Fprintf(&b, "request: delete view tuple %s\n\n", viewTuple)
	valid := 0
	for _, c := range cands {
		if c.Valid {
			valid++
		}
		fmt.Fprintf(&b, "  %s\n", c)
	}
	fmt.Fprintf(&b, "\n%d candidate(s), %d valid — the ambiguity the definition-time dialog resolves.\n",
		len(cands), valid)
	return b.String(), nil
}

// Section6Dialog renders the §6 translator-selection dialog for ω with
// the paper's answers (the replacement portion the paper prints).
func Section6Dialog(g *structural.Graph) (string, error) {
	om, err := university.Omega(g)
	if err != nil {
		return "", err
	}
	_, tape, err := vupdate.ChooseReplacementTranslator(om, vupdate.PaperDialogAnswers())
	if err != nil {
		return "", err
	}
	return "Section 6: Choosing a translator for view-object updates\n\n" + tape.Render(), nil
}

// Section6Example runs the paper's replacement example twice — once under
// the permissive dialog-built translator (the request succeeds and a
// ⟨Engineering Economic Systems⟩ tuple is inserted into DEPARTMENT) and
// once under the restrictive one (the request is rejected) — and reports
// both outcomes. Each run uses its own fresh database.
func Section6Example() (string, error) {
	var b strings.Builder
	b.WriteString("Section 6: the EES345 replacement example\n\n")

	run := func(restrictive bool) error {
		db, g, err := university.NewSeeded()
		if err != nil {
			return err
		}
		om, err := university.Omega(g)
		if err != nil {
			return err
		}
		answers := vupdate.PaperDialogAnswers()
		label := "permissive translator (the paper's dialog)"
		if restrictive {
			answers.Answers["outside.DEPARTMENT.modifiable"] = false
			label = "restrictive translator (DEPARTMENT not modifiable)"
		}
		tr, _, err := vupdate.ChooseTranslator(om, answers)
		if err != nil {
			return err
		}
		tr.RepairInserts = true
		old, ok, err := viewobject.InstantiateByKey(db, om, reldb.Tuple{reldb.String("CS345")})
		if err != nil || !ok {
			return fmt.Errorf("figures: CS345 instance: %v %v", ok, err)
		}
		repl := old.Clone()
		if err := repl.Root().SetAttr(om, "CourseID", reldb.String("EES345")); err != nil {
			return err
		}
		if err := repl.Root().SetAttr(om, "DeptName", reldb.String("Engineering Economic Systems")); err != nil {
			return err
		}
		dep := repl.Root().Children(university.Department)[0]
		if err := dep.SetTuple(om, reldb.Tuple{
			reldb.String("Engineering Economic Systems"), reldb.Null(), reldb.Null(),
		}); err != nil {
			return err
		}
		fmt.Fprintf(&b, "replace (COURSE: CS345 ... (DEPARTMENT: Computer Science) ...)\n")
		fmt.Fprintf(&b, "   with (COURSE: EES345 ... (DEPARTMENT: Engineering Economic Systems) ...)\n")
		fmt.Fprintf(&b, "under the %s:\n", label)
		res, err := vupdate.NewUpdater(tr).ReplaceByKey(old.Key(), repl)
		if err != nil {
			fmt.Fprintf(&b, "  REJECTED: %v\n\n", err)
			return nil
		}
		fmt.Fprintf(&b, "  ACCEPTED; %d database operations:\n", len(res.Ops))
		for _, op := range res.Ops {
			fmt.Fprintf(&b, "    %s\n", op)
		}
		ees := db.MustRelation(university.Department).Has(reldb.Tuple{reldb.String("Engineering Economic Systems")})
		fmt.Fprintf(&b, "  DEPARTMENT now contains <Engineering Economic Systems>: %v\n\n", ees)
		return nil
	}
	if err := run(false); err != nil {
		return "", err
	}
	if err := run(true); err != nil {
		return "", err
	}
	return b.String(), nil
}

// All regenerates every artifact into one report.
func All() (string, error) {
	db, g, err := university.NewSeeded()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	sep := strings.Repeat("=", 72) + "\n"
	b.WriteString(sep)
	b.WriteString(Figure1(g))
	b.WriteString(sep)
	f2, err := Figure2(g)
	if err != nil {
		return "", err
	}
	b.WriteString(f2)
	b.WriteString(sep)
	f3, err := Figure3(g)
	if err != nil {
		return "", err
	}
	b.WriteString(f3)
	b.WriteString(sep)
	f4, err := Figure4(db, g)
	if err != nil {
		return "", err
	}
	b.WriteString(f4)
	b.WriteString(sep)
	s4, err := Section4Enumeration(db)
	if err != nil {
		return "", err
	}
	b.WriteString(s4)
	b.WriteString(sep)
	d, err := Section6Dialog(g)
	if err != nil {
		return "", err
	}
	b.WriteString(d)
	b.WriteString(sep)
	ex, err := Section6Example()
	if err != nil {
		return "", err
	}
	b.WriteString(ex)
	return b.String(), nil
}
