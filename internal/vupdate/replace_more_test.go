package vupdate_test

import (
	"errors"
	"strings"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
)

// A replacement that only ADDS components (no removals): the unpaired new
// subtrees are inserted with VO-CI semantics, including their children.
func TestVORAddsNewSubtrees(t *testing.T) {
	db, g, om, u := fixture(t)
	old := currentInstance(t, db, om, "ME301")
	repl := old.Clone()
	// Add a new grade with its student subtree.
	gr := repl.Root().MustAddChild(om, university.Grades,
		reldb.Tuple{s("ME301"), iv(3), s("Win91"), s("B+")})
	gr.MustAddChild(om, university.Student, reldb.Tuple{iv(3), s("MS"), iv(2)})
	// Add a new curriculum row (outside component).
	repl.Root().MustAddChild(om, university.Curriculum,
		reldb.Tuple{s("Mechanical Engineering"), s("MS"), s("ME301")})

	res, err := u.ReplaceInstance(old, repl)
	if err != nil {
		t.Fatal(err)
	}
	if !db.MustRelation(university.Grades).Has(reldb.Tuple{s("ME301"), iv(3)}) {
		t.Fatal("added grade missing")
	}
	if !db.MustRelation(university.Curriculum).Has(reldb.Tuple{s("Mechanical Engineering"), s("MS"), s("ME301")}) {
		t.Fatal("added curriculum row missing")
	}
	// grade + curriculum inserted; the existing STUDENT(3) is CASE 1.
	if res.Count(OpInsert) != 2 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

// Adding an outside component during replacement respects the outside
// insert permission.
func TestVORAddOutsideComponentGated(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.Outside[university.Curriculum] = OutsidePolicy{Modifiable: true, AllowInsert: false, AllowModifyExisting: true}
	u := NewUpdater(tr)
	old := currentInstance(t, db, om, "ME301")
	repl := old.Clone()
	repl.Root().MustAddChild(om, university.Curriculum,
		reldb.Tuple{s("Mechanical Engineering"), s("MS"), s("ME301")})
	if _, err := u.ReplaceInstance(old, repl); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// Peninsula with non-key attributes: non-key changes on a peninsula
// component apply during a pivot key change (the FK follows in step 3,
// the payload replaces in the machine).
func TestVORPeninsulaNonKeyChangeWithKeyPropagation(t *testing.T) {
	db := reldb.NewDatabase()
	db.MustCreateRelation(reldb.MustSchema("HUB", []reldb.Attribute{
		{Name: "ID", Type: reldb.KindString},
		{Name: "Label", Type: reldb.KindString, Nullable: true},
	}, []string{"ID"}))
	db.MustCreateRelation(reldb.MustSchema("SPOKE", []reldb.Attribute{
		{Name: "SID", Type: reldb.KindInt},
		{Name: "HubID", Type: reldb.KindString, Nullable: true},
		{Name: "Note", Type: reldb.KindString, Nullable: true},
	}, []string{"SID"}))
	g := structural.NewGraph(db)
	g.MustAddConnection(&structural.Connection{
		Name: "spoke-hub", Type: structural.Reference,
		From: "SPOKE", To: "HUB",
		FromAttrs: []string{"HubID"}, ToAttrs: []string{"ID"},
	})
	err := db.RunInTx(func(tx *reldb.Tx) error {
		_ = tx.Insert("HUB", reldb.Tuple{s("h1"), s("hub")})
		return tx.Insert("SPOKE", reldb.Tuple{iv(1), s("h1"), s("old note")})
	})
	if err != nil {
		t.Fatal(err)
	}
	def, err := viewobject.Define(g, "hub", "HUB", viewobject.DefaultMetric(),
		map[string][]string{"SPOKE": nil})
	if err != nil {
		t.Fatal(err)
	}
	topo := Analyze(def)
	if topo.Class["SPOKE"] != ClassPeninsula {
		t.Fatalf("SPOKE class = %v", topo.Class["SPOKE"])
	}
	u := NewUpdater(PermissiveTranslator(def))
	old, ok, err := viewobject.InstantiateByKey(db, def, reldb.Tuple{s("h1")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	repl := old.Clone()
	_ = repl.Root().SetAttr(def, "ID", s("h2")) // pivot key change
	sp := repl.Root().Children("SPOKE")[0]
	_ = sp.SetAttr(def, "Note", s("new note")) // peninsula non-key change
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	got, _ := db.MustRelation("SPOKE").Get(reldb.Tuple{iv(1)})
	if got.At(1).MustString() != "h2" {
		t.Fatalf("FK = %v, want h2", got.At(1))
	}
	if got.At(2).MustString() != "new note" {
		t.Fatalf("note = %v", got.At(2))
	}
	in := &structural.Integrity{G: g}
	if vs, _ := in.Audit(db); len(vs) != 0 {
		t.Fatalf("violations: %s", structural.FormatViolations(vs))
	}

	// A peninsula payload change is rejected when the translator freezes
	// the relation.
	tr2 := PermissiveTranslator(def)
	tr2.Outside["SPOKE"] = OutsidePolicy{Modifiable: false}
	u2 := NewUpdater(tr2)
	old2, _, _ := viewobject.InstantiateByKey(db, def, reldb.Tuple{s("h2")})
	repl2 := old2.Clone()
	_ = repl2.Root().SetAttr(def, "ID", s("h3"))
	sp2 := repl2.Root().Children("SPOKE")[0]
	_ = sp2.SetAttr(def, "Note", s("changed again"))
	if _, err := u2.ReplaceInstance(old2, repl2); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// Merge path where the absorbed tuple already matches the new values: the
// delete happens but no second replace is emitted.
func TestVORMergeIdenticalExisting(t *testing.T) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	// Craft CS446 identical (in projected values) to what CS445 would
	// become after merging — title etc. match CS445's values.
	cs445, _ := db.MustRelation(university.Courses).Get(reldb.Tuple{s("CS445")})
	clone := cs445.Tuple()
	clone[0] = s("CS446")
	err := db.RunInTx(func(tx *reldb.Tx) error {
		return tx.Insert(university.Courses, clone)
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := PermissiveTranslator(om)
	p := tr.Island[university.Courses]
	p.AllowMergeWithExisting = true
	tr.Island[university.Courses] = p
	pg := tr.Island[university.Grades]
	pg.AllowMergeWithExisting = true
	tr.Island[university.Grades] = pg
	u := NewUpdater(tr)

	old := currentInstance(t, db, om, "CS445")
	repl := old.Clone()
	_ = repl.Root().SetAttr(om, "CourseID", s("CS446"))
	res, err := u.ReplaceInstance(old, repl)
	if err != nil {
		t.Fatal(err)
	}
	// CS445 deleted; CS446 absorbed without a replace op on COURSES.
	if db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS445")}) {
		t.Fatal("old tuple survived")
	}
	sawCoursesReplace := false
	for _, op := range res.Ops {
		if op.Kind == OpReplace && op.Relation == university.Courses {
			sawCoursesReplace = true
		}
	}
	if sawCoursesReplace {
		t.Fatalf("identical absorption should not replace:\n%s", res)
	}
	auditClean(t, db, g)
}

// Exhaustive String methods for diagnostics types.
func TestDiagnosticStrings(t *testing.T) {
	ops := []DBOp{
		{Kind: OpInsert, Relation: "R", Tuple: reldb.Tuple{iv(1)}},
		{Kind: OpDelete, Relation: "R", Key: reldb.Tuple{iv(1)}},
		{Kind: OpReplace, Relation: "R", Key: reldb.Tuple{iv(1)}, Tuple: reldb.Tuple{iv(2)}},
	}
	res := &Result{Ops: ops}
	text := res.String()
	for _, want := range []string{"insert R (1)", "delete R key (1)", "replace R key (1) with (2)"} {
		if !strings.Contains(text, want) {
			t.Errorf("Result.String missing %q:\n%s", want, text)
		}
	}
	if OpInsert.String() != "insert" || OpDelete.String() != "delete" || OpReplace.String() != "replace" {
		t.Error("OpKind strings")
	}
	if !strings.Contains(OpKind(9).String(), "op(") {
		t.Error("unknown OpKind string")
	}
	for a, want := range map[PeninsulaAction]string{
		PeninsulaDeleteTuple: "delete-tuple", PeninsulaSetNull: "set-null",
		PeninsulaReplaceDefault: "replace-default", PeninsulaRestrict: "restrict",
	} {
		if a.String() != want {
			t.Errorf("%v.String() = %q", a, a.String())
		}
	}
	if !strings.Contains(PeninsulaAction(9).String(), "peninsulaaction") {
		t.Error("unknown PeninsulaAction string")
	}
}

// CASE I-4: a key-change pair whose new tuple exists in the database with
// conflicting values — the existing tuple's projected attributes are
// replaced.
func TestVORStateICase4ConflictingExisting(t *testing.T) {
	db, g, om, u := fixture(t)
	old := currentInstance(t, db, om, "CS445")
	repl := old.Clone()
	// Move the grade of student 5 to student 3, and claim student 3 has
	// Year 4 while the database says 2: the STUDENT pair enters state I
	// with differing keys (5 vs 3) and hits I-4.
	for _, gr := range repl.Root().Children(university.Grades) {
		if gr.Row().Tuple()[1].MustInt() == 5 {
			if err := gr.SetTuple(om, reldb.Tuple{s("CS445"), iv(3), s("Spr91"), s("B")}); err != nil {
				t.Fatal(err)
			}
			st := gr.Children(university.Student)[0]
			if err := st.SetTuple(om, reldb.Tuple{iv(3), s("MS"), iv(4)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := u.ReplaceInstance(old, repl); err != nil {
		t.Fatal(err)
	}
	got, _ := db.MustRelation(university.Student).Get(reldb.Tuple{iv(3)})
	if y, _ := got.At(2).AsInt(); y != 4 {
		t.Fatalf("I-4 did not replace: year = %v", got.At(2))
	}
	auditClean(t, db, g)

	// The same conflict is rejected when STUDENT may not be modified.
	db2, _, om2, _ := fixtureNamed(t)
	tr := PermissiveTranslator(om2)
	tr.Outside[university.Student] = OutsidePolicy{Modifiable: true, AllowInsert: true, AllowModifyExisting: false}
	u2 := NewUpdater(tr)
	old2, ok, err := viewobject.InstantiateByKey(db2, om2, reldb.Tuple{s("CS445")})
	if err != nil || !ok {
		t.Fatal(err)
	}
	repl2 := old2.Clone()
	for _, gr := range repl2.Root().Children(university.Grades) {
		if gr.Row().Tuple()[1].MustInt() == 5 {
			_ = gr.SetTuple(om2, reldb.Tuple{s("CS445"), iv(3), s("Spr91"), s("B")})
			st := gr.Children(university.Student)[0]
			_ = st.SetTuple(om2, reldb.Tuple{iv(3), s("MS"), iv(4)})
		}
	}
	if _, err := u2.ReplaceInstance(old2, repl2); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v", err)
	}
}

// fixtureNamed is fixture without the updater (avoids shadowing clashes).
func fixtureNamed(t *testing.T) (*reldb.Database, *structural.Graph, *viewobject.Definition, struct{}) {
	t.Helper()
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	return db, g, om, struct{}{}
}
