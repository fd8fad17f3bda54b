package shard_test

// The shard package is tested through the workload generator (which
// lives above it in the dependency order): internal/workload's sharded
// stress, crash, and benchmark suites drive Cluster end to end. The
// tests here pin the cluster-level invariants that need no workload:
// routing determinism, placement-conflict rejection, the shard check at
// registration, re-registration, and the data-directory layout check.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// miniRelations creates mini's relations on db: the pivot R and the C
// it owns, whose second key attribute N is of kind nKind.
func miniRelations(db *reldb.Database, nKind reldb.Kind) {
	db.MustCreateRelation(reldb.MustSchema("R", []reldb.Attribute{
		{Name: "K", Type: reldb.KindInt},
		{Name: "V", Type: reldb.KindString, Nullable: true},
	}, []string{"K"}))
	db.MustCreateRelation(reldb.MustSchema("C", []reldb.Attribute{
		{Name: "K", Type: reldb.KindInt},
		{Name: "N", Type: nKind},
	}, []string{"K", "N"}))
}

// miniObject builds a two-relation object (pivot R owning C) over db,
// creating the relations first where db lacks them.
func miniObject(db *reldb.Database) (*vupdate.Translator, error) {
	if !db.HasRelation("R") {
		miniRelations(db, reldb.KindInt)
	}
	g := structural.NewGraph(db)
	conn := &structural.Connection{
		Name: "R>C", Type: structural.Ownership,
		From: "R", To: "C", FromAttrs: []string{"K"}, ToAttrs: []string{"K"},
	}
	if err := g.AddConnection(conn); err != nil {
		return nil, err
	}
	def, err := viewobject.NewDefinition("mini", g, &viewobject.Node{
		Relation: "R",
		Children: []*viewobject.Node{{
			Relation: "C",
			Path:     []structural.Edge{{Conn: conn, Forward: true}},
		}},
	})
	if err != nil {
		return nil, err
	}
	return vupdate.PermissiveTranslator(def), nil
}

// everyShard runs build over every shard of c — the DDL, once per shard
// — and returns shard 0's translator, the one to register.
func everyShard(t *testing.T, c *shard.Cluster, build func(*reldb.Database) (*vupdate.Translator, error)) *vupdate.Translator {
	t.Helper()
	var tr0 *vupdate.Translator
	for i := 0; i < c.N(); i++ {
		tr, err := build(c.DB(i))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tr0 = tr
		}
	}
	return tr0
}

func newMiniCluster(t *testing.T, n int) *shard.Cluster {
	t.Helper()
	dbs := make([]*reldb.Database, n)
	for i := range dbs {
		dbs[i] = reldb.NewDatabase()
	}
	c, err := shard.New(dbs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddObject("mini", everyShard(t, c, miniObject)); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoutingDeterministic pins that a key always routes to the same
// shard and that the population spreads over all shards.
func TestRoutingDeterministic(t *testing.T) {
	c := newMiniCluster(t, 4)
	seen := make(map[int]int)
	for k := 0; k < 256; k++ {
		key := reldb.Tuple{reldb.Int(int64(k))}
		h1, err := c.HomeOf("mini", key)
		if err != nil {
			t.Fatal(err)
		}
		h2, _ := c.HomeOf("mini", key)
		if h1 != h2 {
			t.Fatalf("key %d routed to %d then %d", k, h1, h2)
		}
		if h1 < 0 || h1 >= 4 {
			t.Fatalf("key %d routed off-cluster: %d", k, h1)
		}
		seen[h1]++
	}
	for s := 0; s < 4; s++ {
		if seen[s] == 0 {
			t.Fatalf("no key of 256 routed to shard %d: %v", s, seen)
		}
	}
}

// TestFastPathLocalCommit: an all-island update advances only the home
// shard's generation.
func TestFastPathLocalCommit(t *testing.T) {
	c := newMiniCluster(t, 2)
	def, err := c.Object("mini")
	if err != nil {
		t.Fatal(err)
	}
	key := reldb.Tuple{reldb.Int(7)}
	home, _ := c.HomeOf("mini", key)
	inst := viewobject.MustNewInstance(def, reldb.Tuple{reldb.Int(7), reldb.String("v")})
	inst.Root().MustAddChild(def, "C", reldb.Tuple{reldb.Int(7), reldb.Int(1)})

	gensBefore := c.Generations()
	if _, err := c.InsertInstance("mini", inst); err != nil {
		t.Fatal(err)
	}
	gensAfter := c.Generations()
	for i := range gensAfter {
		want := gensBefore[i]
		if i == home {
			want++
		}
		if gensAfter[i] != want {
			t.Fatalf("shard %d generation %d -> %d (home=%d)", i, gensBefore[i], gensAfter[i], home)
		}
	}

	// The instance reads back from its home shard only.
	got, ok, err := c.InstantiateByKey("mini", key)
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if got.Count("C") != 1 {
		t.Fatalf("child count %d, want 1", got.Count("C"))
	}
	other := c.DB(1 - home)
	if n, _ := other.Relation("R"); n.Count() != 0 {
		t.Fatalf("island row leaked to shard %d", 1-home)
	}
}

// TestCrossShardMoveRejected: a replacement that re-routes the pivot
// key is refused with ErrCrossShardMove.
func TestCrossShardMoveRejected(t *testing.T) {
	c := newMiniCluster(t, 4)
	def, _ := c.Object("mini")
	// Find two keys with different homes.
	var kOld, kNew int64 = -1, -1
	h0, _ := c.HomeOf("mini", reldb.Tuple{reldb.Int(0)})
	kOld = 0
	for k := int64(1); k < 64; k++ {
		if h, _ := c.HomeOf("mini", reldb.Tuple{reldb.Int(k)}); h != h0 {
			kNew = k
			break
		}
	}
	if kNew < 0 {
		t.Fatal("could not find keys with distinct homes")
	}
	oldInst := viewobject.MustNewInstance(def, reldb.Tuple{reldb.Int(kOld), reldb.String("v")})
	newInst := viewobject.MustNewInstance(def, reldb.Tuple{reldb.Int(kNew), reldb.String("v")})
	if _, err := c.ReplaceInstance("mini", oldInst, newInst); err == nil {
		t.Fatal("cross-shard pivot move accepted")
	} else if got := fmt.Sprintf("%v", err); got == "" {
		t.Fatal("empty error")
	}
}

// conflictObject builds an object over a new pivot P that references R:
// R would be a referenced relation (replicated) — but mini already
// partitioned it.
func conflictObject(db *reldb.Database) (*vupdate.Translator, error) {
	if !db.HasRelation("P") {
		db.MustCreateRelation(reldb.MustSchema("P", []reldb.Attribute{
			{Name: "PK", Type: reldb.KindInt},
			{Name: "RK", Type: reldb.KindInt, Nullable: true},
		}, []string{"PK"}))
	}
	g := structural.NewGraph(db)
	conn := &structural.Connection{
		Name: "P->R", Type: structural.Reference,
		From: "P", To: "R", FromAttrs: []string{"RK"}, ToAttrs: []string{"K"},
	}
	if err := g.AddConnection(conn); err != nil {
		return nil, err
	}
	def, err := viewobject.NewDefinition("conflict", g, &viewobject.Node{
		Relation: "P",
		Children: []*viewobject.Node{{
			Relation: "R",
			Path:     []structural.Edge{{Conn: conn, Forward: true}},
		}},
	})
	if err != nil {
		return nil, err
	}
	return vupdate.PermissiveTranslator(def), nil
}

// TestPlacementConflictRejected: registering an object whose island
// claims a relation an earlier object replicated (or vice versa) fails —
// between replicas. One shard holds every relation whole, so the same
// pair of objects registers there as it would over a plain database.
// A shard that lacks a relation the definition names, or holds it
// under another schema, is refused too; each refusal leaves the earlier
// registration as the only one, in force.
func TestPlacementConflictRejected(t *testing.T) {
	c := newMiniCluster(t, 2)
	err := c.AddObject("conflict", everyShard(t, c, conflictObject))
	if err == nil || !strings.Contains(err.Error(), "placement conflicts") {
		t.Fatalf("conflicting placement over 2 shards: err = %v, want a placement conflict", err)
	}
	one := newMiniCluster(t, 1)
	if err := one.AddObject("conflict", everyShard(t, one, conflictObject)); err != nil {
		t.Fatalf("1-shard cluster refused a placement that only replicas constrain: %v", err)
	}

	// P created on shard 0 only: shard 1 cannot serve the object.
	c = newMiniCluster(t, 2)
	tr, err := conflictObject(c.DB(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddObject("conflict", tr); !errors.Is(err, reldb.ErrNoSuchRelation) || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("a shard without P: err = %v, want shard 1's missing relation", err)
	}
	// Shard 1's P under another schema.
	c.DB(1).MustCreateRelation(reldb.MustSchema("P", []reldb.Attribute{
		{Name: "PK", Type: reldb.KindInt},
		{Name: "RK", Type: reldb.KindString, Nullable: true},
	}, []string{"PK"}))
	if err := c.AddObject("conflict", tr); err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "the definition reads") {
		t.Fatalf("a shard holding P under another schema: err = %v, want shard 1's schema refused", err)
	}
	if got := c.Objects(); len(got) != 1 || got[0] != "mini" {
		t.Fatalf("objects after refused registrations = %v, want [mini]", got)
	}
	checkMiniInForce(t, c)
}

// checkMiniInForce asserts that mini is registered with a permissive
// translator that still translates: an insert commits.
func checkMiniInForce(t *testing.T, c *shard.Cluster) {
	t.Helper()
	if !c.Updatable("mini") {
		t.Fatal("mini is no longer updatable")
	}
	def, err := c.Object("mini")
	if err != nil {
		t.Fatal(err)
	}
	k := int64(100 + c.Generation())
	inst := viewobject.MustNewInstance(def, reldb.Tuple{reldb.Int(k), reldb.String("v")})
	inst.Root().MustAddChild(def, "C", reldb.Tuple{reldb.Int(k), reldb.Int(1)})
	if _, err := c.InsertInstance("mini", inst); err != nil {
		t.Fatalf("mini insert after a refused registration: %v", err)
	}
}

// TestReplaceObject: a re-registration swaps the translator in, is
// refused for a name never added, and is refused — leaving the earlier
// registration in force — when its island contradicts the placement the
// rows already have, when its definition names a relation the shards
// lack, or when it reads a relation under another schema than theirs.
func TestReplaceObject(t *testing.T) {
	c := newMiniCluster(t, 2)
	def, err := c.Object("mini")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceObject("nope", vupdate.NewTranslator(def)); err == nil {
		t.Fatal("ReplaceObject accepted an unregistered name")
	}
	// Definitions built over private databases, not over a shard.
	// conflict names P, which no shard holds yet.
	priv := reldb.NewDatabase()
	if _, err := miniObject(priv); err != nil {
		t.Fatal(err)
	}
	tr, err := conflictObject(priv)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceObject("mini", tr); !errors.Is(err, reldb.ErrNoSuchRelation) || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("ReplaceObject naming a relation no shard holds: err = %v, want shard 0's missing relation", err)
	}
	// This mini reads C with N a string; the shards key it by an int.
	odd := reldb.NewDatabase()
	miniRelations(odd, reldb.KindString)
	if tr, err = miniObject(odd); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceObject("mini", tr); err == nil || !strings.Contains(err.Error(), "the definition reads") {
		t.Fatalf("ReplaceObject reading C under another schema: err = %v, want the schema refused", err)
	}
	// Over the shards, conflict's island contradicts mini's placement.
	if err := c.ReplaceObject("mini", everyShard(t, c, conflictObject)); err == nil || !strings.Contains(err.Error(), "placement conflicts") {
		t.Fatalf("ReplaceObject with a contradicting island: err = %v, want a placement conflict", err)
	}
	if got, err := c.Object("mini"); err != nil || got != def {
		t.Fatalf("Object after refused replacements = %p, %v; want the earlier definition %p", got, err, def)
	}
	checkMiniInForce(t, c)

	// A definition over a private database of the shards' shape is
	// accepted: registration needs the shape, not the database.
	same := reldb.NewDatabase()
	if tr, err = miniObject(same); err != nil {
		t.Fatal(err)
	}
	if err := c.ReplaceObject("mini", vupdate.NewTranslator(tr.Definition())); err != nil {
		t.Fatal(err)
	}
	if c.Updatable("mini") {
		t.Fatal("replacement translator not in force")
	}
	if _, err := c.DeleteByKey("mini", reldb.Tuple{reldb.Int(1)}); err == nil {
		t.Fatal("restrictive replacement still translated a deletion")
	}
}

// TestOpenRefusesDatabaseDir: a directory a plain reldb.OpenDatabase
// wrote (log segments at its top level) must not open as a cluster —
// that would seed empty shards beside the data and ignore it.
func TestOpenRefusesDatabaseDir(t *testing.T) {
	dir := t.TempDir()
	db, err := reldb.OpenDatabase(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreateRelation(reldb.MustSchema("R", []reldb.Attribute{{Name: "K", Type: reldb.KindInt}}, []string{"K"}))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := shard.Open(dir, 1, reldb.OpenOptions{})
	if !errors.Is(err, shard.ErrDatabaseLayout) {
		if c != nil {
			c.Close()
		}
		t.Fatalf("Open over a single-database directory: err = %v, want ErrDatabaseLayout", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0")); !os.IsNotExist(err) {
		t.Fatalf("refused Open still created shard-0 (stat err %v)", err)
	}
}
