package penguin_test

import (
	"errors"
	"fmt"
	"testing"

	"penguin"
)

// TestFacadeSharding drives the sharded execution path through the
// public facade only: assemble a cluster over in-memory shards, create
// the relation on every shard (DDL runs once per shard), register the
// object once, and run the routed update verbs plus the fan-out read.
func TestFacadeSharding(t *testing.T) {
	const n = 3
	dbs := make([]*penguin.Database, n)
	for i := range dbs {
		dbs[i] = penguin.NewDatabase()
	}
	c, err := penguin.NewShardCluster(dbs)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One pivot-only object: the island is just SENSOR, so every update
	// translation stays island-local and commits on the home shard's
	// fast path.
	schema, err := penguin.NewSchema("SENSOR", []penguin.Attribute{
		{Name: "SensorID", Type: penguin.KindString},
		{Name: "Reading", Type: penguin.KindInt, Nullable: true},
	}, []string{"SensorID"})
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range dbs {
		if _, err := db.CreateRelation(schema); err != nil {
			t.Fatal(err)
		}
	}
	def, err := penguin.Define(penguin.NewGraph(dbs[0]), "sensor", "SENSOR", penguin.DefaultMetric(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddObject("sensor", penguin.PermissiveTranslator(def)); err != nil {
		t.Fatal(err)
	}
	if !c.Updatable("sensor") {
		t.Fatal("sensor should be updatable")
	}

	// Inserts route by hashed pivot key; the rows must spread over more
	// than one shard.
	if got, err := c.Object("sensor"); err != nil || got != def {
		t.Fatalf("Object = %p, %v; want the registered definition %p", got, err, def)
	}
	for i := 0; i < 16; i++ {
		inst, err := penguin.NewInstance(def,
			penguin.Tuple{penguin.String(fmt.Sprintf("s%02d", i)), penguin.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.InsertInstance("sensor", inst); err != nil {
			t.Fatal(err)
		}
	}
	if c.TotalRows() != 16 {
		t.Fatalf("total rows = %d, want 16", c.TotalRows())
	}
	spread := 0
	for i := 0; i < c.N(); i++ {
		if c.DB(i).TotalRows() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("rows landed on %d shard(s), want a spread", spread)
	}

	// Fan-out read merges every shard in pivot-key order.
	insts, err := c.Instantiate("sensor", penguin.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 16 {
		t.Fatalf("instantiated %d, want 16", len(insts))
	}

	// Routed point read and delete.
	inst, ok, err := c.InstantiateByKey("sensor", penguin.Tuple{penguin.String("s03")})
	if err != nil || !ok {
		t.Fatalf("point read: ok=%v err=%v", ok, err)
	}
	if _, err := c.DeleteByKey("sensor", inst.Key()); err != nil {
		t.Fatal(err)
	}
	if c.TotalRows() != 15 {
		t.Fatalf("total rows after delete = %d, want 15", c.TotalRows())
	}

	// A replacement that would re-home the pivot key is refused with the
	// facade sentinel rather than silently migrating the island.
	oldInst, ok, err := c.InstantiateByKey("sensor", penguin.Tuple{penguin.String("s04")})
	if err != nil || !ok {
		t.Fatalf("point read: ok=%v err=%v", ok, err)
	}
	home, err := c.HomeOf("sensor", oldInst.Key())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		key := penguin.Tuple{penguin.String(fmt.Sprintf("m%02d", i))}
		h, err := c.HomeOf("sensor", key)
		if err != nil {
			t.Fatal(err)
		}
		if h == home {
			continue
		}
		newInst, err := penguin.NewInstance(def, penguin.Tuple{key[0], penguin.Int(99)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ReplaceInstance("sensor", oldInst, newInst); !errors.Is(err, penguin.ErrCrossShardMove) {
			t.Fatalf("cross-shard replace err = %v, want ErrCrossShardMove", err)
		}
		return
	}
	t.Fatal("no candidate key hashes to another shard")
}
