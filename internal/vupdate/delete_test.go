package vupdate_test

import (
	"errors"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
)

// fixture builds the seeded university, ω, and a permissive updater.
func fixture(t *testing.T) (*reldb.Database, *structural.Graph, *viewobject.Definition, *Updater) {
	t.Helper()
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	u := NewUpdater(PermissiveTranslator(om))
	return db, g, om, u
}

func s(v string) reldb.Value { return reldb.String(v) }
func iv(v int64) reldb.Value { return reldb.Int(v) }
func auditClean(t *testing.T, db *reldb.Database, g *structural.Graph) {
	t.Helper()
	in := &structural.Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("integrity violations after update:\n%s", structural.FormatViolations(vs))
	}
}

// VO-CD on CS345: the pivot tuple and its GRADES go; CURRICULUM rows
// referencing CS345 are updated (deleted — their foreign key is part of
// their key); STUDENT and DEPARTMENT survive.
func TestVOCDDeletesIslandAndPeninsula(t *testing.T) {
	db, g, _, u := fixture(t)
	res, err := u.DeleteByKey(reldb.Tuple{s("CS345")})
	if err != nil {
		t.Fatal(err)
	}
	if db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS345")}) {
		t.Fatal("pivot tuple survived")
	}
	grades, _ := db.MustRelation(university.Grades).MatchEqual([]string{"CourseID"}, reldb.Tuple{s("CS345")})
	if len(grades) != 0 {
		t.Fatalf("island GRADES survived: %v", grades)
	}
	curr, _ := db.MustRelation(university.Curriculum).MatchEqual([]string{"CourseID"}, reldb.Tuple{s("CS345")})
	if len(curr) != 0 {
		t.Fatalf("peninsula rows still reference CS345: %v", curr)
	}
	// Non-island data survives.
	if db.MustRelation(university.Student).Count() != 5 {
		t.Fatal("students were deleted")
	}
	if db.MustRelation(university.Department).Count() != 3 {
		t.Fatal("departments were deleted")
	}
	// 1 course + 3 grades + 2 curriculum rows.
	if got := res.Count(OpDelete); got != 6 {
		t.Fatalf("deletes = %d, want 6\n%s", got, res)
	}
	if got := res.Count(OpInsert) + res.Count(OpReplace); got != 0 {
		t.Fatalf("unexpected non-delete ops:\n%s", res)
	}
	auditClean(t, db, g)
}

func TestVOCDNotAllowed(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.AllowDeletion = false
	u := NewUpdater(tr)
	before := db.TotalRows()
	_, err := u.DeleteByKey(reldb.Tuple{s("CS345")})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if db.TotalRows() != before {
		t.Fatal("rejected deletion mutated the database")
	}
}

// §5.1: "In a case where replacements are not allowed on any of the
// referencing peninsulas, the transaction cannot be completed and has to
// be rolled back."
func TestVOCDPeninsulaRestrictRollsBack(t *testing.T) {
	db, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.Peninsula[university.Curriculum] = PeninsulaPolicy{AllowUpdateOnDelete: false}
	u := NewUpdater(tr)
	before := db.TotalRows()
	_, err := u.DeleteByKey(reldb.Tuple{s("CS345")})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if db.TotalRows() != before {
		t.Fatal("rolled-back deletion left changes")
	}
	if !db.MustRelation(university.Courses).Has(reldb.Tuple{s("CS345")}) {
		t.Fatal("pivot gone despite rollback")
	}
}

// A course no peninsula references deletes fine under the restrictive
// peninsula policy.
func TestVOCDRestrictOnlyBitesWhenReferenced(t *testing.T) {
	db, g, om, _ := fixture(t)
	// CS445 is referenced by curriculum (PhD). Remove that row first so
	// the restrictive policy has nothing to restrict.
	err := db.RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Delete(university.Curriculum, reldb.Tuple{s("Computer Science"), s("PhD"), s("CS445")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := PermissiveTranslator(om)
	tr.Peninsula[university.Curriculum] = PeninsulaPolicy{AllowUpdateOnDelete: false}
	u := NewUpdater(tr)
	if _, err := u.DeleteByKey(reldb.Tuple{s("CS445")}); err != nil {
		t.Fatalf("unreferenced delete failed: %v", err)
	}
	auditClean(t, db, g)
}

func TestVOCDMissingInstance(t *testing.T) {
	_, _, _, u := fixture(t)
	_, err := u.DeleteByKey(reldb.Tuple{s("NOPE")})
	if !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
}

// TestVOCDDeleteInstanceAPI: DeleteByKey is the one VO-CD entry point.
// It deletes the instance it assembles, and a second call finds the
// pivot gone.
func TestVOCDDeleteInstanceAPI(t *testing.T) {
	db, g, om, u := fixture(t)
	key := reldb.Tuple{s("EE201")}
	if _, ok, err := viewobject.InstantiateByKey(db, om, key); err != nil || !ok {
		t.Fatalf("EE201 before the delete: %v, %v", ok, err)
	}
	if _, err := u.DeleteByKey(key); err != nil {
		t.Fatal(err)
	}
	if db.MustRelation(university.Courses).Has(key) {
		t.Fatal("EE201 survived")
	}
	if _, ok, err := viewobject.InstantiateByKey(db, om, key); err != nil || ok {
		t.Fatalf("EE201 after the delete: %v, %v", ok, err)
	}
	auditClean(t, db, g)
	if _, err := u.DeleteByKey(key); !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("second delete err = %v", err)
	}
}

// Peninsula set-null policy: referencing tuples keep their keys and null
// their FK. Build a schema where the FK is a non-key attribute.
func TestVOCDPeninsulaSetNull(t *testing.T) {
	db := reldb.NewDatabase()
	db.MustCreateRelation(reldb.MustSchema("HUB", []reldb.Attribute{
		{Name: "ID", Type: reldb.KindString},
		{Name: "Label", Type: reldb.KindString, Nullable: true},
	}, []string{"ID"}))
	db.MustCreateRelation(reldb.MustSchema("SPOKE", []reldb.Attribute{
		{Name: "SID", Type: reldb.KindInt},
		{Name: "HubID", Type: reldb.KindString, Nullable: true},
	}, []string{"SID"}))
	g := structural.NewGraph(db)
	g.MustAddConnection(&structural.Connection{
		Name: "spoke-hub", Type: structural.Reference,
		From: "SPOKE", To: "HUB",
		FromAttrs: []string{"HubID"}, ToAttrs: []string{"ID"},
	})
	err := db.RunInTx(func(tx *reldb.Tx) error {
		_ = tx.Insert("HUB", reldb.Tuple{s("h1"), s("hub one")})
		_ = tx.Insert("SPOKE", reldb.Tuple{iv(1), s("h1")})
		return tx.Insert("SPOKE", reldb.Tuple{iv(2), s("h1")})
	})
	if err != nil {
		t.Fatal(err)
	}
	def, err := viewobject.Define(g, "hub", "HUB", viewobject.DefaultMetric(), map[string][]string{
		"SPOKE": nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := PermissiveTranslator(def)
	if tr.Peninsula["SPOKE"].OnDelete != PeninsulaSetNull {
		t.Fatalf("default SPOKE action = %v, want set-null (FK outside key)", tr.Peninsula["SPOKE"].OnDelete)
	}
	u := NewUpdater(tr)
	res, err := u.DeleteByKey(reldb.Tuple{s("h1")})
	if err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("SPOKE").Count() != 2 {
		t.Fatal("set-null should keep spokes")
	}
	got, _ := db.MustRelation("SPOKE").Get(reldb.Tuple{iv(1)})
	if !got.At(1).IsNull() {
		t.Fatalf("FK not nulled: %v", got)
	}
	if res.Count(OpReplace) != 2 || res.Count(OpDelete) != 1 {
		t.Fatalf("ops: %s", res)
	}
	in := &structural.Integrity{G: g}
	if vs, _ := in.Audit(db); len(vs) != 0 {
		t.Fatalf("violations: %s", structural.FormatViolations(vs))
	}
}

// Peninsula replace-default policy rewrites the FK to a DBA-chosen value.
func TestVOCDPeninsulaReplaceDefault(t *testing.T) {
	db, g, om, _ := fixture(t)
	_ = g
	tr := PermissiveTranslator(om)
	// Redirect curriculum rows of a deleted course to CS101.
	tr.Peninsula[university.Curriculum] = PeninsulaPolicy{
		AllowUpdateOnDelete: true,
		OnDelete:            PeninsulaReplaceDefault,
		Default:             reldb.Tuple{s("CS101")},
	}
	u := NewUpdater(tr)
	if _, err := u.DeleteByKey(reldb.Tuple{s("CS445")}); err != nil {
		t.Fatal(err)
	}
	// The PhD/CS445 row became PhD/CS101.
	if !db.MustRelation(university.Curriculum).Has(reldb.Tuple{s("Computer Science"), s("PhD"), s("CS101")}) {
		t.Fatal("default replacement missing")
	}
	auditClean(t, db, g)
}

func TestVOCDPeninsulaDefaultArityChecked(t *testing.T) {
	_, _, om, _ := fixture(t)
	tr := PermissiveTranslator(om)
	tr.Peninsula[university.Curriculum] = PeninsulaPolicy{
		AllowUpdateOnDelete: true,
		OnDelete:            PeninsulaReplaceDefault,
		Default:             reldb.Tuple{s("CS101"), s("extra")},
	}
	u := NewUpdater(tr)
	if _, err := u.DeleteByKey(reldb.Tuple{s("CS445")}); err == nil {
		t.Fatal("bad default arity accepted")
	}
}

// Deleting a department through a DEPARTMENT-pivot object cascades into
// its owned curriculum, updates people and courses referencing it, and
// cascades across ownership chains outside the object.
func TestVOCDDeepCascadeOutsideObject(t *testing.T) {
	db, g := university.MustNewSeeded()
	def, err := viewobject.Define(g, "dept", university.Department, viewobject.DefaultMetric(),
		map[string][]string{university.Curriculum: nil})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdater(PermissiveTranslator(def))
	res, err := u.DeleteByKey(reldb.Tuple{s("Mechanical Engineering")})
	if err != nil {
		t.Fatal(err)
	}
	// ME's course ME301 referenced the department with a key FK? No:
	// COURSES.DeptName is a non-key nullable attribute, so the default
	// action nulls it; PEOPLE.DeptName likewise.
	me301, _ := db.MustRelation(university.Courses).Get(reldb.Tuple{s("ME301")})
	if !me301.At(2).IsNull() {
		t.Fatalf("ME301 DeptName = %v, want null", me301.At(2))
	}
	bob, _ := db.MustRelation(university.People).Get(reldb.Tuple{iv(2)})
	if !bob.At(2).IsNull() {
		t.Fatalf("Bob's DeptName = %v, want null", bob.At(2))
	}
	// The ME curriculum row (owned) is gone.
	rows, _ := db.MustRelation(university.Curriculum).MatchEqual([]string{"DeptName"}, reldb.Tuple{s("Mechanical Engineering")})
	if len(rows) != 0 {
		t.Fatal("owned curriculum rows survived")
	}
	if res.Count(OpDelete) < 2 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}

// An m:n relationship is a link relation owned by both sides (§2). VO-CD
// of an author through an AUTHORS-pivot object deletes the author's WROTE
// rows (Definition 2.2, criterion 2) and leaves every paper, including
// the one a remaining co-author still links to.
func TestVOCDManyToManyLinkRelation(t *testing.T) {
	db := reldb.NewDatabase()
	db.MustCreateRelation(reldb.MustSchema("AUTHORS", []reldb.Attribute{
		{Name: "AID", Type: reldb.KindInt},
		{Name: "Name", Type: reldb.KindString, Nullable: true},
	}, []string{"AID"}))
	db.MustCreateRelation(reldb.MustSchema("PAPERS", []reldb.Attribute{
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Title", Type: reldb.KindString, Nullable: true},
	}, []string{"PID"}))
	db.MustCreateRelation(reldb.MustSchema("WROTE", []reldb.Attribute{
		{Name: "AID", Type: reldb.KindInt},
		{Name: "PID", Type: reldb.KindInt},
		{Name: "Position", Type: reldb.KindInt, Nullable: true},
	}, []string{"AID", "PID"}))
	g := structural.NewGraph(db)
	g.MustAddConnection(&structural.Connection{
		Name: "author-wrote", Type: structural.Ownership,
		From: "AUTHORS", To: "WROTE",
		FromAttrs: []string{"AID"}, ToAttrs: []string{"AID"},
	})
	g.MustAddConnection(&structural.Connection{
		Name: "paper-wrote", Type: structural.Ownership,
		From: "PAPERS", To: "WROTE",
		FromAttrs: []string{"PID"}, ToAttrs: []string{"PID"},
	})
	err := db.RunInTx(func(tx *reldb.Tx) error {
		for _, ins := range []struct {
			rel string
			row reldb.Tuple
		}{
			{"AUTHORS", reldb.Tuple{iv(1), s("Codd")}},
			{"AUTHORS", reldb.Tuple{iv(2), s("Date")}},
			{"PAPERS", reldb.Tuple{iv(10), s("Relational Model")}},
			{"PAPERS", reldb.Tuple{iv(11), s("Normal Forms")}},
			{"WROTE", reldb.Tuple{iv(1), iv(10), iv(1)}},
			{"WROTE", reldb.Tuple{iv(1), iv(11), iv(1)}},
			{"WROTE", reldb.Tuple{iv(2), iv(11), iv(2)}},
		} {
			if err := tx.Insert(ins.rel, ins.row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	def, err := viewobject.Define(g, "author", "AUTHORS", viewobject.DefaultMetric(),
		map[string][]string{"WROTE": nil, "PAPERS": nil})
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdater(PermissiveTranslator(def))
	res, err := u.DeleteByKey(reldb.Tuple{iv(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.MustRelation("WROTE").Count(); got != 1 {
		t.Fatalf("WROTE count = %d, want 1", got)
	}
	if got := db.MustRelation("PAPERS").Count(); got != 2 {
		t.Fatalf("PAPERS count = %d, want 2: papers must survive author deletion", got)
	}
	// Codd + Codd's two WROTE rows.
	if got := res.Count(OpDelete); got != 3 || len(res.Ops) != 3 {
		t.Fatalf("ops:\n%s", res)
	}
	auditClean(t, db, g)
}
