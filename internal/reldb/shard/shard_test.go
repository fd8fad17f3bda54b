package shard_test

// The shard package is tested through the workload generator (which
// lives above it in the dependency order): internal/workload's sharded
// stress, crash, and benchmark suites drive Cluster end to end. The
// tests here pin the cluster-level invariants that need no workload:
// routing determinism, placement-conflict rejection, re-registration,
// and the data-directory layout check.

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

// miniObject builds a two-relation object (pivot R owning C) over db.
func miniObject(db *reldb.Database) (*vupdate.Translator, error) {
	if !db.HasRelation("R") {
		db.MustCreateRelation(reldb.MustSchema("R", []reldb.Attribute{
			{Name: "K", Type: reldb.KindInt},
			{Name: "V", Type: reldb.KindString, Nullable: true},
		}, []string{"K"}))
		db.MustCreateRelation(reldb.MustSchema("C", []reldb.Attribute{
			{Name: "K", Type: reldb.KindInt},
			{Name: "N", Type: reldb.KindInt},
		}, []string{"K", "N"}))
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
	if err := c.AddObject("mini", func(_ int, db *reldb.Database) (*vupdate.Translator, error) {
		return miniObject(db)
	}); err != nil {
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
	def, err := c.Object("mini", 0)
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
	def, _ := c.Object("mini", 0)
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
func conflictObject(_ int, db *reldb.Database) (*vupdate.Translator, error) {
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
func TestPlacementConflictRejected(t *testing.T) {
	err := newMiniCluster(t, 2).AddObject("conflict", conflictObject)
	if err == nil || !strings.Contains(err.Error(), "placement conflicts") {
		t.Fatalf("conflicting placement over 2 shards: err = %v, want a placement conflict", err)
	}
	if err := newMiniCluster(t, 1).AddObject("conflict", conflictObject); err != nil {
		t.Fatalf("1-shard cluster refused a placement that only replicas constrain: %v", err)
	}
}

// TestReplaceObject: a re-registration swaps the translators in, is
// refused for a name never added, and is refused — leaving the earlier
// registration in force — when its island contradicts the placement the
// rows already have.
func TestReplaceObject(t *testing.T) {
	c := newMiniCluster(t, 2)
	if err := c.ReplaceObject("nope", miniRestrictive); err == nil {
		t.Fatal("ReplaceObject accepted an unregistered name")
	}
	if err := c.ReplaceObject("mini", conflictObject); err == nil || !strings.Contains(err.Error(), "placement conflicts") {
		t.Fatalf("ReplaceObject with a contradicting island: err = %v, want a placement conflict", err)
	}
	if !c.Updatable("mini") {
		t.Fatal("refused replacement displaced the earlier registration")
	}
	if err := c.ReplaceObject("mini", miniRestrictive); err != nil {
		t.Fatal(err)
	}
	if c.Updatable("mini") {
		t.Fatal("replacement translator not in force")
	}
	if _, err := c.DeleteByKey("mini", reldb.Tuple{reldb.Int(1)}); err == nil {
		t.Fatal("restrictive replacement still translated a deletion")
	}
}

// miniRestrictive rebuilds mini with the default translator (no verb
// allowed).
func miniRestrictive(_ int, db *reldb.Database) (*vupdate.Translator, error) {
	tr, err := miniObject(db)
	if err != nil {
		return nil, err
	}
	return vupdate.NewTranslator(tr.Definition()), nil
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
