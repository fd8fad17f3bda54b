package penguin_test

import (
	"errors"
	"strings"
	"testing"

	"penguin"
)

// TestFacadeEndToEnd builds a small schema, a view object, and runs the
// full lifecycle through the public facade only — the integration path an
// external adopter would follow.
func TestFacadeEndToEnd(t *testing.T) {
	db := penguin.NewDatabase()

	// Schema: LIBRARY —* BOOK, BOOK —> AUTHOR.
	librarySchema, err := penguin.NewSchema("LIBRARY", []penguin.Attribute{
		{Name: "LibID", Type: penguin.KindString},
		{Name: "City", Type: penguin.KindString, Nullable: true},
	}, []string{"LibID"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(librarySchema); err != nil {
		t.Fatal(err)
	}
	bookSchema, err := penguin.NewSchema("BOOK", []penguin.Attribute{
		{Name: "LibID", Type: penguin.KindString},
		{Name: "Shelf", Type: penguin.KindInt},
		{Name: "AuthorID", Type: penguin.KindInt, Nullable: true},
		{Name: "Title", Type: penguin.KindString, Nullable: true},
	}, []string{"LibID", "Shelf"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(bookSchema); err != nil {
		t.Fatal(err)
	}
	authorSchema, err := penguin.NewSchema("AUTHOR", []penguin.Attribute{
		{Name: "AuthorID", Type: penguin.KindInt},
		{Name: "Name", Type: penguin.KindString, Nullable: true},
	}, []string{"AuthorID"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateRelation(authorSchema); err != nil {
		t.Fatal(err)
	}

	g := penguin.NewGraph(db)
	for _, c := range []*penguin.Connection{
		{Name: "lib-books", Type: penguin.Ownership,
			From: "LIBRARY", To: "BOOK", FromAttrs: []string{"LibID"}, ToAttrs: []string{"LibID"}},
		{Name: "book-author", Type: penguin.Reference,
			From: "BOOK", To: "AUTHOR", FromAttrs: []string{"AuthorID"}, ToAttrs: []string{"AuthorID"}},
	} {
		if err := g.AddConnection(c); err != nil {
			t.Fatal(err)
		}
	}

	// Data through RQL.
	for _, stmt := range []string{
		`INSERT INTO LIBRARY VALUES ('green', 'Stanford')`,
		`INSERT INTO AUTHOR VALUES (1, 'Codd'), (2, 'Date')`,
		`INSERT INTO BOOK VALUES ('green', 1, 1, 'Relational Model'), ('green', 2, 2, 'Intro')`,
	} {
		if _, err := penguin.ExecRQL(db, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	// Define the object through the pipeline.
	def, err := penguin.Define(g, "library", "LIBRARY", penguin.DefaultMetric(),
		map[string][]string{"BOOK": nil, "AUTHOR": nil})
	if err != nil {
		t.Fatal(err)
	}
	if def.Complexity() != 3 {
		t.Fatalf("complexity = %d", def.Complexity())
	}
	topo := penguin.Analyze(def)
	if !topo.InIsland("BOOK") {
		t.Fatal("BOOK should be in the island")
	}

	// OQL query.
	insts, err := penguin.QueryOQL(db, def, `count(BOOK) >= 2 and exists(AUTHOR: Name = 'Codd')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 1 {
		t.Fatalf("instances = %d", len(insts))
	}
	if !strings.Contains(insts[0].Render(), "Relational Model") {
		t.Fatal("render missing book")
	}

	// Update lifecycle under a dialog-chosen translator.
	tr, tape, err := penguin.ChooseTranslator(def, penguin.ScriptedAnswerer{Default: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tape) == 0 {
		t.Fatal("empty dialog")
	}
	tr.RepairInserts = true
	u := penguin.NewUpdater(tr)

	// Partial insert of a new book referencing an unknown author: the
	// dependency repair inserts the author.
	res, err := u.PartialInsert(penguin.Tuple{penguin.String("green")}, "BOOK",
		penguin.Tuple{penguin.String("green"), penguin.Int(3), penguin.Int(9), penguin.String("New")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count(penguin.OpInsert) != 2 { // book + repaired author
		t.Fatalf("ops:\n%s", res)
	}

	// Complete deletion drains books, authors survive.
	if _, err := u.DeleteByKey(penguin.Tuple{penguin.String("green")}); err != nil {
		t.Fatal(err)
	}
	if db.MustRelation("BOOK").Count() != 0 {
		t.Fatal("books survived")
	}
	if db.MustRelation("AUTHOR").Count() != 3 {
		t.Fatal("authors should survive")
	}

	in := &penguin.Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}

	// Rejection path through the facade sentinel.
	tr2 := penguin.NewTranslator(def)
	u2 := penguin.NewUpdater(tr2)
	_, err = u2.DeleteByKey(penguin.Tuple{penguin.String("missing")})
	if err == nil {
		t.Fatal("zero translator should reject or fail")
	}
	inst, err := penguin.NewInstance(def, penguin.Tuple{penguin.String("blue"), penguin.Null()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u2.InsertInstance(inst); !errors.Is(err, penguin.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

// TestFacadeFlatBaseline drives the Keller baseline through the facade.
func TestFacadeFlatBaseline(t *testing.T) {
	db := penguin.NewDatabase()
	for _, stmt := range []string{
		`CREATE TABLE A (id int, v string null) KEY (id)`,
		`CREATE TABLE B (id int, aid int, w string null) KEY (id)`,
		`INSERT INTO A VALUES (1, 'x'), (2, 'y')`,
		`INSERT INTO B VALUES (10, 1, 'b1'), (11, 1, 'b2'), (12, 2, 'b3')`,
	} {
		if _, err := penguin.ExecRQL(db, stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	v, err := penguin.NewFlatView(db, "ab", []penguin.FlatJoin{
		{Relation: "A"},
		{Relation: "B", LeftAttrs: []string{"A.id"}, RightAttrs: []string{"aid"}},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := v.Materialize()
	if err != nil || rs.Len() != 3 {
		t.Fatalf("rows = %d, %v", rs.Len(), err)
	}
	ft := penguin.PermissiveFlatTranslator(v)
	res, err := ft.Delete(rs.Rows[0].Tuple())
	if err != nil || res.Deletes != 1 {
		t.Fatalf("delete: %+v, %v", res, err)
	}
}
