package structural

import (
	"strings"
	"testing"

	"penguin/internal/reldb"
)

func miniGraph(t *testing.T) (*reldb.Database, *Graph) {
	t.Helper()
	db := miniDB(t)
	g := NewGraph(db)
	g.MustAddConnection(ownershipConn())
	g.MustAddConnection(referenceConn())
	g.MustAddConnection(subsetConn())
	return db, g
}

func TestGraphAddAndLookup(t *testing.T) {
	_, g := miniGraph(t)
	if len(g.Connections()) != 3 {
		t.Fatalf("connections = %d", len(g.Connections()))
	}
	c, ok := g.Connection("own")
	if !ok || c.From != "OWNER" {
		t.Fatalf("Connection(own) = %v, %v", c, ok)
	}
	if _, ok := g.Connection("nope"); ok {
		t.Fatal("unknown connection found")
	}
	if g.Database() == nil {
		t.Fatal("Database() nil")
	}
}

func TestGraphRejectsInvalidAndDuplicate(t *testing.T) {
	db := miniDB(t)
	g := NewGraph(db)
	bad := &Connection{Name: "bad", Type: Reference, From: "REFER", To: "NOPE",
		FromAttrs: []string{"FK"}, ToAttrs: []string{"K"}}
	if err := g.AddConnection(bad); err == nil {
		t.Fatal("invalid connection accepted")
	}
	g.MustAddConnection(referenceConn())
	dup := referenceConn()
	if err := g.AddConnection(dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name: %v", err)
	}
}

func TestGraphAutoNames(t *testing.T) {
	db := miniDB(t)
	g := NewGraph(db)
	c1 := referenceConn()
	c1.Name = ""
	g.MustAddConnection(c1)
	if c1.Name == "" {
		t.Fatal("auto-name not assigned")
	}
	c2 := referenceConn()
	c2.Name = ""
	g.MustAddConnection(c2)
	if c2.Name == c1.Name {
		t.Fatal("auto-names collided")
	}
}

func TestGraphMustAddPanics(t *testing.T) {
	db := miniDB(t)
	g := NewGraph(db)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAddConnection should panic")
		}
	}()
	g.MustAddConnection(&Connection{Type: Reference, From: "X", To: "Y",
		FromAttrs: []string{"A"}, ToAttrs: []string{"B"}})
}

func TestOutgoingIncoming(t *testing.T) {
	_, g := miniGraph(t)
	out := g.Outgoing("OWNER")
	if len(out) != 1 || out[0].Name != "own" {
		t.Fatalf("Outgoing(OWNER) = %v", out)
	}
	in := g.Incoming("TARGET")
	if len(in) != 1 || in[0].Name != "ref" {
		t.Fatalf("Incoming(TARGET) = %v", in)
	}
	if len(g.Outgoing("OWNED")) != 0 || len(g.Incoming("OWNER")) != 0 {
		t.Fatal("unexpected edges")
	}
}

func TestEdges(t *testing.T) {
	_, g := miniGraph(t)
	edges := g.Edges("OWNED")
	if len(edges) != 1 {
		t.Fatalf("Edges(OWNED) = %v", edges)
	}
	e := edges[0]
	if e.Forward {
		t.Fatal("OWNED edge should be inverse")
	}
	if e.Source() != "OWNED" || e.Target() != "OWNER" {
		t.Fatalf("edge endpoints %s -> %s", e.Source(), e.Target())
	}
	if strings.Join(e.SourceAttrs(), ",") != "ID" || strings.Join(e.TargetAttrs(), ",") != "ID" {
		t.Fatal("edge attrs wrong")
	}
	if !strings.Contains(e.String(), "inv(") {
		t.Fatalf("inverse edge String = %q", e.String())
	}

	fwd := g.Edges("OWNER")[0]
	if !fwd.Forward || fwd.Source() != "OWNER" || fwd.Target() != "OWNED" {
		t.Fatalf("forward edge wrong: %v", fwd)
	}
	if strings.Contains(fwd.String(), "inv(") {
		t.Fatalf("forward edge String = %q", fwd.String())
	}
}

func TestGraphRelations(t *testing.T) {
	_, g := miniGraph(t)
	rels := g.Relations()
	want := "GENERAL,OWNED,OWNER,REFER,SPECIAL,TARGET"
	if strings.Join(rels, ",") != want {
		t.Fatalf("Relations = %v", rels)
	}
}

func TestConnectedTuples(t *testing.T) {
	db, g := miniGraph(t)
	err := db.RunInTx(func(tx *reldb.Tx) error {
		_ = tx.Insert("OWNER", reldb.Tuple{reldb.Int(1), reldb.String("o1")})
		_ = tx.Insert("OWNED", reldb.Tuple{reldb.Int(1), reldb.Int(1), reldb.String("a")})
		_ = tx.Insert("OWNED", reldb.Tuple{reldb.Int(1), reldb.Int(2), reldb.String("b")})
		_ = tx.Insert("TARGET", reldb.Tuple{reldb.String("t1"), reldb.Null()})
		_ = tx.Insert("REFER", reldb.Tuple{reldb.Int(5), reldb.String("t1")})
		return tx.Insert("REFER", reldb.Tuple{reldb.Int(6), reldb.Null()})
	})
	if err != nil {
		t.Fatal(err)
	}
	own, _ := g.Connection("own")
	owner, _ := db.MustRelation("OWNER").Get(reldb.Tuple{reldb.Int(1)})
	owned, err := ConnectedVia(db, Edge{Conn: own, Forward: true}, owner)
	if err != nil || len(owned) != 2 {
		t.Fatalf("owned = %d, %v", len(owned), err)
	}
	// Inverse: owned tuple -> owner.
	owners, err := ConnectedVia(db, Edge{Conn: own, Forward: false}, owned[0])
	if err != nil || len(owners) != 1 {
		t.Fatalf("owners = %d, %v", len(owners), err)
	}
	// Null FK connects to nothing.
	ref, _ := g.Connection("ref")
	nullRef, _ := db.MustRelation("REFER").Get(reldb.Tuple{reldb.Int(6)})
	targets, err := ConnectedVia(db, Edge{Conn: ref, Forward: true}, nullRef)
	if err != nil || targets != nil {
		t.Fatalf("null FK should connect to nothing, got %v, %v", targets, err)
	}
}

func TestGraphValidateAfterSchemaChange(t *testing.T) {
	db, g := miniGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Drop a relation the graph references and re-validate.
	if err := db.DropRelation("TARGET"); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should fail after dropping TARGET")
	}
}

func TestGraphRender(t *testing.T) {
	_, g := miniGraph(t)
	out := g.Render()
	for _, want := range []string{
		"Structural schema",
		"OWNER(ID) --* OWNED(ID)",
		"REFER(FK) --> TARGET(K)",
		"GENERAL(K) --) SPECIAL(K)",
		"[ownership, 1:n]",
		"[reference, n:1]",
		"[subset, 1:[0,1]]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}
