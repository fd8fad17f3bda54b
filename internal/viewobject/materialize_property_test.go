package viewobject_test

import (
	"fmt"
	"math/rand"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
	"penguin/internal/workload"
)

// The materialization differential property (mirroring the
// naive/batched/parallel assembly harness): drive a random stream of
// VO-R / VO-CD / VO-CI update translations through the database and,
// at every observed generation, the materialized cache must serve the
// full extent element-wise byte-identical to a fresh instantiation over
// a snapshot of the same generation — through arbitrary interleavings
// of membership changes and island restamps, whether the cache is read
// after every burst or only now and then, across windows of several
// commits whose net diff hides the intermediate images.
func TestMaterializedDifferentialRandomStream(t *testing.T) {
	spec := workload.TreeSpec{Depth: 2, Width: 2, Fanout: 2, Roots: 5, Peninsulas: 1}
	w, err := workload.BuildTree(spec)
	if err != nil {
		t.Fatal(err)
	}
	u := vupdate.NewUpdater(vupdate.PermissiveTranslator(w.Def))

	// Two caches over the same stream: one read after every burst, and
	// one read only every lagEvery-th step, which patches from the net
	// diff of several bursts at once.
	const lagEvery = 4
	patched := viewobject.NewMaterializer(w.DB, w.Def)
	defer patched.Close()
	lagging := viewobject.NewMaterializer(w.DB, w.Def)
	defer lagging.Close()

	key := func(k int64) reldb.Tuple { return reldb.Tuple{reldb.Int(k)} }
	fetch := func(k int64) (*viewobject.Instance, bool) {
		t.Helper()
		rtx := w.DB.BeginRead()
		defer rtx.Close()
		inst, ok, err := viewobject.InstantiateByKey(rtx, w.Def, key(k))
		if err != nil {
			t.Fatal(err)
		}
		return inst, ok
	}
	stamp := func(k int64, s string) *viewobject.Instance {
		t.Helper()
		cur, ok := fetch(k)
		if !ok {
			t.Fatalf("stamp: no instance with key %d", k)
		}
		st := cur.Clone()
		for _, relName := range w.IslandRels {
			for _, n := range st.NodesAt(relName) {
				if err := n.SetAttr(w.Def, "V", reldb.String(s)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := u.ReplaceInstance(cur, st); err != nil {
			t.Fatalf("VO-R key %d: %v", k, err)
		}
		return st
	}

	// parked holds the last materialized form of each deleted instance,
	// for VO-CI to re-insert.
	parked := map[int64]*viewobject.Instance{}

	compare := func(step int) {
		t.Helper()
		rtx := w.DB.BeginRead()
		want, err := viewobject.Instantiate(rtx, w.Def, viewobject.Query{})
		rtx.Close()
		if err != nil {
			t.Fatal(err)
		}
		for name, m := range map[string]*viewobject.Materializer{"patched": patched, "lagging": lagging} {
			if m == lagging && step%lagEvery != 0 {
				continue
			}
			got, err := m.Instantiate(viewobject.Query{})
			if err != nil {
				t.Fatalf("step %d: %s: %v", step, name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: %s serves %d instances, fresh %d", step, name, len(got), len(want))
			}
			for i := range got {
				if g, f := got[i].Render(), want[i].Render(); g != f {
					t.Fatalf("step %d: %s instance %d diverged\nmaterialized:\n%s\nfresh:\n%s", step, name, i, g, f)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(17))
	compare(0)
	for step := 1; step <= 60; step++ {
		// A burst of 1-3 translations between serves: every serve patches
		// a window of one or more commits.
		for b := rng.Intn(3) + 1; b > 0; b-- {
			k := int64(rng.Intn(spec.Roots))
			switch rng.Intn(3) {
			case 0: // VO-R (or revive first if the key is deleted)
				if _, dead := parked[k]; dead {
					continue
				}
				stamp(k, fmt.Sprintf("s%d", step))
			case 1: // VO-CD
				if _, dead := parked[k]; dead {
					continue
				}
				inst, ok := fetch(k)
				if !ok {
					t.Fatalf("step %d: key %d vanished outside VO-CD", step, k)
				}
				if _, err := u.DeleteByKey(key(k)); err != nil {
					t.Fatalf("step %d: VO-CD key %d: %v", step, k, err)
				}
				parked[k] = inst
			default: // VO-CI
				inst, dead := parked[k]
				if !dead {
					continue
				}
				if _, err := u.InsertInstance(inst); err != nil {
					t.Fatalf("step %d: VO-CI key %d: %v", step, k, err)
				}
				delete(parked, k)
			}
		}
		compare(step)
	}
}
