package structural

import (
	"testing"

	"penguin/internal/reldb"
)

// The paper (§2): "m:n relationships are not modeled directly in the
// structural model but can be represented using combinations of
// connections." The canonical combination is a link relation owned by
// both sides — exactly the shape of GRADES in the university schema.
// This test builds a standalone m:n (AUTHORS ↔ PAPERS via WROTE) and
// verifies that it audits clean and traverses as m:n. Deleting an author
// through it is VO-CD's job (TestVOCDManyToManyLinkRelation in vupdate).
func TestManyToManyViaLinkRelation(t *testing.T) {
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

	g := NewGraph(db)
	g.MustAddConnection(&Connection{
		Name: "author-wrote", Type: Ownership,
		From: "AUTHORS", To: "WROTE",
		FromAttrs: []string{"AID"}, ToAttrs: []string{"AID"},
	})
	g.MustAddConnection(&Connection{
		Name: "paper-wrote", Type: Ownership,
		From: "PAPERS", To: "WROTE",
		FromAttrs: []string{"PID"}, ToAttrs: []string{"PID"},
	})

	err := db.RunInTx(func(tx *reldb.Tx) error {
		i := reldb.Int
		for _, row := range []reldb.Tuple{
			{i(1), reldb.String("Codd")}, {i(2), reldb.String("Date")},
		} {
			if err := tx.Insert("AUTHORS", row); err != nil {
				return err
			}
		}
		for _, row := range []reldb.Tuple{
			{i(10), reldb.String("Relational Model")}, {i(11), reldb.String("Normal Forms")},
		} {
			if err := tx.Insert("PAPERS", row); err != nil {
				return err
			}
		}
		for _, row := range []reldb.Tuple{
			{i(1), i(10), i(1)}, {i(1), i(11), i(1)}, {i(2), i(11), i(2)},
		} {
			if err := tx.Insert("WROTE", row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	in := &Integrity{G: g}
	if vs, _ := in.Audit(db); len(vs) != 0 {
		t.Fatalf("violations: %s", FormatViolations(vs))
	}

	// Traversing the combination gives the m:n semantics: papers of an
	// author via author-wrote forward then paper-wrote inverse.
	aw, _ := g.Connection("author-wrote")
	pw, _ := g.Connection("paper-wrote")
	codd, _ := db.MustRelation("AUTHORS").Get(reldb.Tuple{reldb.Int(1)})
	links, err := ConnectedVia(db, Edge{Conn: aw, Forward: true}, codd)
	if err != nil || len(links) != 2 {
		t.Fatalf("Codd's links = %d, %v", len(links), err)
	}
	papers := map[int64]bool{}
	for _, l := range links {
		ps, err := ConnectedVia(db, Edge{Conn: pw, Forward: false}, l)
		if err != nil || len(ps) != 1 {
			t.Fatalf("link->paper: %v, %v", ps, err)
		}
		papers[ps[0].At(0).MustInt()] = true
	}
	if !papers[10] || !papers[11] {
		t.Fatalf("Codd's papers = %v", papers)
	}
}
