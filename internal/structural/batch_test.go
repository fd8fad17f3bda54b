package structural

import (
	"testing"

	"penguin/internal/reldb"
)

// seedOwned fills OWNER and OWNED so each owner k has fanout owned rows.
func seedOwned(t *testing.T, db *reldb.Database, owners, fanout int) {
	t.Helper()
	owner := db.MustRelation("OWNER")
	owned := db.MustRelation("OWNED")
	for k := 0; k < owners; k++ {
		if err := owner.Insert(reldb.Tuple{reldb.Int(int64(k)), reldb.String("o")}); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < fanout; s++ {
			if err := owned.Insert(reldb.Tuple{reldb.Int(int64(k)), reldb.Int(int64(s)), reldb.String("v")}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A batch of many rows must agree with a batch of each one on every
// input — same alignment, same ordering, same nil-for-null semantics.
func TestConnectedViaBatchMatchesSingle(t *testing.T) {
	db := miniDB(t)
	g := NewGraph(db)
	g.MustAddConnection(ownershipConn())
	g.MustAddConnection(referenceConn())
	seedOwned(t, db, 4, 3)
	refer := db.MustRelation("REFER")
	target := db.MustRelation("TARGET")
	if err := target.Insert(reldb.Tuple{reldb.String("t1"), reldb.String("i")}); err != nil {
		t.Fatal(err)
	}
	// One row referencing t1, one dangling, one null.
	for _, row := range []reldb.Tuple{
		{reldb.Int(1), reldb.String("t1")},
		{reldb.Int(2), reldb.String("missing")},
		{reldb.Int(3), reldb.Null()},
	} {
		if err := refer.Insert(row); err != nil {
			t.Fatal(err)
		}
	}

	own, _ := g.Connection("own")
	ref, _ := g.Connection("ref")
	cases := []struct {
		name   string
		edge   Edge
		tuples []reldb.Row
	}{
		{"ownership forward", Edge{Conn: own, Forward: true}, db.MustRelation("OWNER").All()},
		{"ownership inverse", Edge{Conn: own, Forward: false}, db.MustRelation("OWNED").All()},
		{"reference with null and dangling", Edge{Conn: ref, Forward: true}, refer.All()},
	}
	for _, tc := range cases {
		batch, err := ConnectedVia(db, tc.edge, tc.tuples, nil)
		if err != nil {
			t.Fatalf("%s: batch: %v", tc.name, err)
		}
		if len(batch) != len(tc.tuples) {
			t.Fatalf("%s: batch returned %d results for %d inputs", tc.name, len(batch), len(tc.tuples))
		}
		for i, tuple := range tc.tuples {
			single, err := connectedOne(db, tc.edge, tuple)
			if err != nil {
				t.Fatalf("%s: single: %v", tc.name, err)
			}
			if (single == nil) != (batch[i] == nil) {
				t.Fatalf("%s[%d]: nil-ness differs: single %v, batch %v", tc.name, i, single, batch[i])
			}
			if len(single) != len(batch[i]) {
				t.Fatalf("%s[%d]: single %d rows, batch %d rows", tc.name, i, len(single), len(batch[i]))
			}
			for j := range single {
				if !single[j].Equal(batch[i][j]) {
					t.Fatalf("%s[%d] row %d: single %v, batch %v", tc.name, i, j, single[j], batch[i][j])
				}
			}
		}
	}

	// The whole ownership-forward batch costs one probe per distinct owner
	// key, with no scans (the auto edge index serves it).
	var st reldb.MatchStats
	owners := db.MustRelation("OWNER").All()
	e := Edge{Conn: own, Forward: true}
	if _, err := ConnectedVia(db, e, owners, &st); err != nil {
		t.Fatal(err)
	}
	if st.Scans != 0 || st.Probes != len(owners) {
		t.Fatalf("batch stats = %+v, want %d probes and no scans", st, len(owners))
	}
}

func TestConnectedViaBatchEmpty(t *testing.T) {
	db := miniDB(t)
	g := NewGraph(db)
	g.MustAddConnection(ownershipConn())
	own, _ := g.Connection("own")
	e := Edge{Conn: own, Forward: true}
	out, err := ConnectedVia(db, e, nil, nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

// connectedOne crosses e for the one row.
func connectedOne(res Resolver, e Edge, row reldb.Row) ([]reldb.Row, error) {
	out, err := ConnectedVia(res, e, []reldb.Row{row}, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// AddConnection must register edge indexes on connecting-attribute sets
// that are not already served by the primary key, and skip the rest.
func TestAddConnectionRegistersEdgeIndexes(t *testing.T) {
	db := miniDB(t)
	g := NewGraph(db)
	g.MustAddConnection(ownershipConn())
	g.MustAddConnection(referenceConn())
	g.MustAddConnection(subsetConn())

	// Ownership own: OWNER(ID)=whole key → skip; OWNED(ID)⊂key → index.
	if !db.MustRelation("OWNED").HasIndexOn([]string{"ID"}) {
		t.Fatal("ownership target side not indexed")
	}
	if len(db.MustRelation("OWNER").IndexNames()) != 0 {
		t.Fatalf("whole-key side indexed: %v", db.MustRelation("OWNER").IndexNames())
	}
	// Reference ref: TARGET(K)=whole key → skip; REFER(FK) non-key → index.
	if !db.MustRelation("REFER").HasIndexOn([]string{"FK"}) {
		t.Fatal("reference source side not indexed")
	}
	if len(db.MustRelation("TARGET").IndexNames()) != 0 {
		t.Fatalf("whole-key side indexed: %v", db.MustRelation("TARGET").IndexNames())
	}
	// Subset sub: both sides are whole keys → no indexes.
	if len(db.MustRelation("GENERAL").IndexNames())+len(db.MustRelation("SPECIAL").IndexNames()) != 0 {
		t.Fatal("subset connection created indexes over whole keys")
	}
}

// An existing index over the connecting attributes — in any order — is
// reused rather than duplicated.
func TestAddConnectionReusesExistingIndex(t *testing.T) {
	db := miniDB(t)
	if err := db.MustRelation("OWNED").CreateIndex("mine", []string{"ID"}); err != nil {
		t.Fatal(err)
	}
	g := NewGraph(db)
	g.MustAddConnection(ownershipConn())
	names := db.MustRelation("OWNED").IndexNames()
	if len(names) != 1 || names[0] != "mine" {
		t.Fatalf("indexes after AddConnection = %v, want just the pre-existing one", names)
	}
}
