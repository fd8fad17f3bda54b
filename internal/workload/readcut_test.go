package workload

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"penguin/internal/reldb"
	"penguin/internal/university"
	"penguin/internal/viewobject"
)

// TestShardedReadCut: a query reads one state of the cluster. One
// goroutine keeps replacing CS345's DEPARTMENT.Building through the
// coordinator. DEPARTMENT lies outside ω's island, so each write is a
// global commit that installs the replicated row on every shard. Another
// goroutine keeps running the whole-extent query. Every response must
// agree, across its instances, on each department's Building: a response
// that pairs one shard's state after a global commit with another's
// before it is torn. At one shard a query is one snapshot and cannot
// tear; at three the Computer Science courses live on several shards.
// Run under -race by shard-stress.
func TestShardedReadCut(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			c, err := university.NewSharded(n)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			key := reldb.Tuple{reldb.String("CS345")}
			if n > 1 {
				homes := map[int]bool{}
				for _, id := range []string{"CS101", "CS345", "CS445"} {
					h, err := c.HomeOf(university.ObjOmega, reldb.Tuple{reldb.String(id)})
					if err != nil {
						t.Fatal(err)
					}
					homes[h] = true
				}
				if len(homes) < 2 {
					t.Fatal("the Computer Science courses share one home shard: no query could tear")
				}
			}

			var stop atomic.Bool
			var writes atomic.Int64
			var wg sync.WaitGroup
			writeErr := make(chan error, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					inst, ok, err := c.InstantiateByKey(university.ObjOmega, key)
					if err != nil || !ok {
						writeErr <- fmt.Errorf("read CS345: ok=%v err=%v", ok, err)
						return
					}
					repl := inst.Clone()
					dep := repl.Root().Children(university.Department)[0]
					if err := dep.SetAttr(repl.Definition(), "Building", reldb.String(fmt.Sprintf("Hall %d", i%2))); err != nil {
						writeErr <- err
						return
					}
					if _, err := c.ReplaceByKey(university.ObjOmega, key, repl); err != nil {
						writeErr <- fmt.Errorf("replace %d: %w", i, err)
						return
					}
					writes.Add(1)
				}
			}()

			queries, torn := 0, 0
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) && (queries < 2000 || writes.Load() < 200) {
				insts, err := c.Instantiate(university.ObjOmega, viewobject.Query{})
				if err != nil {
					stop.Store(true)
					wg.Wait()
					t.Fatal(err)
				}
				queries++
				if msg := tornDepartment(insts); msg != "" {
					if torn == 0 {
						t.Errorf("query %d: %s", queries, msg)
					}
					torn++
				}
			}
			stop.Store(true)
			wg.Wait()
			select {
			case err := <-writeErr:
				t.Fatal(err)
			default:
			}
			if writes.Load() == 0 {
				t.Fatal("the writer committed nothing")
			}
			t.Logf("%d queries beside %d global writes, %d torn", queries, writes.Load(), torn)
			if torn > 0 {
				t.Errorf("%d of %d queries disagree on a department's Building", torn, queries)
			}
		})
	}
}

// tornDepartment reports the first department whose Building differs
// between two instances of one response, or "".
func tornDepartment(insts []*viewobject.Instance) string {
	building := map[string]string{}
	for _, inst := range insts {
		def := inst.Definition()
		for _, dep := range inst.Root().Children(university.Department) {
			name, _ := dep.Get(def, "DeptName")
			b, _ := dep.Get(def, "Building")
			if seen, ok := building[name.String()]; ok && seen != b.String() {
				return fmt.Sprintf("department %s is in %s and in %s", name, seen, b)
			}
			building[name.String()] = b.String()
		}
	}
	return ""
}
