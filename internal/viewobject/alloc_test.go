package viewobject_test

import (
	"strings"
	"testing"

	"penguin/internal/reldb"
	. "penguin/internal/viewobject"
	"penguin/internal/workload"
)

// TestAssemblyAllocations pins what assembly allocates on the benchmark
// object (46 components per instance): a level costs a few allocations
// plus one stored-tuple copy per component, so a one-instance read and a
// 96-pivot range read stay near the figures logged here. The race
// detector's allocations do not belong in the count.
func TestAssemblyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Peninsulas: 1, Roots: 200})
	if err != nil {
		t.Fatal(err)
	}
	key := reldb.Tuple{reldb.Int(3)}
	inst, ok, err := InstantiateByKey(w.DB, w.Def, key)
	if err != nil || !ok {
		t.Fatal(ok, err)
	}
	if nodes := strings.Count(inst.Render(), "\n") - 1; nodes != 46 {
		t.Fatalf("the benchmark object has %d nodes per instance, want 46", nodes)
	}
	get := testing.AllocsPerRun(100, func() {
		if _, _, err := InstantiateByKey(w.DB, w.Def, key); err != nil {
			t.Fatal(err)
		}
	})

	q := Query{PivotPred: reldb.AndAll(
		reldb.Cmp{Op: reldb.OpGe, L: reldb.Attr{Name: "K0"}, R: reldb.Const{V: reldb.Int(100)}},
		reldb.Cmp{Op: reldb.OpLt, L: reldb.Attr{Name: "K0"}, R: reldb.Const{V: reldb.Int(196)}},
	)}
	insts, err := Instantiate(w.DB, w.Def, q)
	if err != nil || len(insts) != 96 {
		t.Fatalf("range query = %d instances, %v; want 96", len(insts), err)
	}
	query := testing.AllocsPerRun(20, func() {
		if _, err := Instantiate(w.DB, w.Def, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("InstantiateByKey: %v allocations; 96-pivot Instantiate: %v", get, query)
	// 381 and 27155 before levels were built in slabs, 177 and 6241
	// after. The bounds leave room for the runtime to drift, not for a
	// per-component object beyond the tuple copy.
	if get > 200 {
		t.Errorf("InstantiateByKey allocates %v times, want <= 200", get)
	}
	if query > 6900 {
		t.Errorf("96-pivot Instantiate allocates %v times, want <= 6900", query)
	}
}
