package serve

import (
	"fmt"
	"net/http"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// courseDoc is a new omega instance for course id: one grade by each
// student in pids, each with its STUDENT reference, and a CURRICULUM row
// for each degree — a replicated relation, so an insert or a replace
// that adds a degree takes the cross-shard commit over several shards
// while the GRADES rows stay on the course's home shard.
func courseDoc(id, title string, pids []int, degrees ...string) map[string]any {
	grades := make([]any, len(pids))
	for i, pid := range pids {
		p := map[string]any{"int": fmt.Sprint(pid)}
		grades[i] = map[string]any{
			"CourseID": id, "PID": p, "Quarter": "Spr92", "Grade": "A",
			"STUDENT": []any{map[string]any{"PID": p, "Degree": "PhD", "Year": map[string]any{"int": "3"}}},
		}
	}
	curriculum := make([]any, len(degrees))
	for i, d := range degrees {
		curriculum[i] = map[string]any{"CourseID": id, "Degree": d, "DeptName": "Computer Science"}
	}
	return map[string]any{
		"CourseID": id, "Title": title, "DeptName": "Computer Science",
		"Units": map[string]any{"int": "3"}, "Level": "graduate",
		"DEPARTMENT": []any{map[string]any{"DeptName": "Computer Science", "Building": "Gates"}},
		"GRADES":     grades,
		"CURRICULUM": curriculum,
	}
}

// TestOneDefinitionServesEveryShard: an object is registered once, so
// the definition Object returns is the one every shard reads and
// translates with. Documents the handler decodes once against it are
// inserted and then replaced on each key's home shard — the keys cover
// every shard — and every instance read back, by key or by query, is
// bound to that definition. The listing that results is the 1-shard
// one, byte for byte.
func TestOneDefinitionServesEveryShard(t *testing.T) {
	// Two keys homed on each shard at N = 3 (HomeOf checks it below).
	keys := []string{"CS246", "CS500", "ME101", "PH202", "NEW0", "PH101"}
	listings := make(map[int][]byte)
	forEachN(t, func(t *testing.T, n int) {
		s, c, _ := newTestServer(t, n, Config{})
		homes := make(map[int]bool)
		for _, k := range keys {
			home, err := c.HomeOf("omega", reldb.Tuple{reldb.String(k)})
			if err != nil {
				t.Fatal(err)
			}
			homes[home] = true
			if code, res := do(t, s, "POST", "/objects/omega:insert",
				map[string]any{"instance": courseDoc(k, "Inserted", []int{1}, "PhD")}); code != http.StatusOK {
				t.Fatalf("insert %s on shard %d = %d: %v", k, home, code, res)
			}
			if code, res := do(t, s, "POST", "/objects/omega:replace",
				map[string]any{"key": []any{k}, "instance": courseDoc(k, "Replaced", []int{1, 5}, "PhD", "MS")}); code != http.StatusOK {
				t.Fatalf("replace %s on shard %d = %d: %v", k, home, code, res)
			}
		}
		if len(homes) != n {
			t.Fatalf("the keys are homed on %d of %d shards", len(homes), n)
		}

		var listing []byte
		for _, name := range c.Objects() {
			def, err := c.Object(name)
			if err != nil {
				t.Fatal(err)
			}
			insts, err := c.Instantiate(name, viewobject.Query{})
			if err != nil {
				t.Fatal(err)
			}
			for _, inst := range insts {
				if inst.Definition() != def {
					t.Errorf("%s %v: Instantiate bound it to another definition", name, inst.Key())
				}
				byKey, ok, err := c.InstantiateByKey(name, inst.Key())
				if err != nil || !ok {
					t.Fatalf("%s %v: ok=%v err=%v", name, inst.Key(), ok, err)
				}
				if byKey.Definition() != def {
					t.Errorf("%s %v: InstantiateByKey bound it to another definition", name, inst.Key())
				}
				listing = AppendInstance(listing, inst)
			}
		}
		listings[n] = listing
		if n > 1 && string(listing) != string(listings[1]) {
			t.Errorf("listing over %d shards differs from the 1-shard one:\n got %s\nwant %s", n, listing, listings[1])
		}
	})
}
