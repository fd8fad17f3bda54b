// Concurrent-workload stress generator over a shard.Cluster of any size:
// reader goroutines instantiate the generated view object through the
// coordinator while writer goroutines execute VO-R / VO-CD / VO-CI update
// translations through it. Writers route by pivot key; with peninsulas in
// the tree every VO-CD and VO-CI on more than one shard takes the
// cross-shard two-phase commit (peninsula rows are replicated), and
// without them every commit stays on the home shard. Every assembled
// instance is checked against invariants that only hold for a consistent
// committed state, so a torn read (an instance assembled across a commit
// boundary, or across a half-committed cross-shard update) is caught even
// when it would not trip the race detector.
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
)

// StressSpec sizes a concurrent stress run over a sharded tree workload.
type StressSpec struct {
	// Tree shapes the schema and data. Roots must be >= Writers so every
	// writer owns a disjoint, non-empty set of instances.
	Tree TreeSpec
	// Readers is the number of concurrent instantiation goroutines.
	Readers int
	// ParallelReaders is the number of concurrent goroutines running
	// full-object Instantiate calls (all roots at once), which read every
	// shard — so writer commits race against whole-cluster snapshot
	// reads. May be 0.
	ParallelReaders int
	// MaterializedReaders is the number of concurrent goroutines reading
	// through the run's viewobject.Materializers (one per shard, a key
	// served by its home shard's) — instances patched by diffing relation
	// versions, racing the same VO writers. May be 0.
	MaterializedReaders int
	// Writers is the number of concurrent update-translation goroutines.
	// Writer w owns the root keys k with k mod Writers == w; readers read
	// every key.
	Writers int
	// Cycles is the number of VO-R → VO-CD → VO-CI rounds each writer runs
	// per owned key.
	Cycles int
	// ReadTxLagAlert, when > 0, overrides the registry's stale-ReadTx
	// alert threshold for the duration of the run (restored on return).
	// The run holds one ReadTx per shard open across every writer cycle
	// and forks each before closing, so any threshold the writers outrun
	// trips both the stale-fork and stale-close alerts deterministically.
	ReadTxLagAlert int64
}

// StressResult reports what a stress run did and what it found.
type StressResult struct {
	// Instantiations counts reader instantiations that found an instance.
	Instantiations int64
	// ParallelInstantiations counts instances assembled by the full-object
	// readers.
	ParallelInstantiations int64
	// Absent counts reader lookups that found no instance (the key was
	// between its VO-CD and VO-CI).
	Absent int64
	// MaterializedInstantiations counts instances served through the
	// materializers.
	MaterializedInstantiations int64
	// Replaces, Deletes, Inserts count committed writer translations.
	Replaces, Deletes, Inserts int64
	// Violations lists invariant violations (torn instances). Empty means
	// every observed instance was consistent with a committed state.
	Violations []string
	// SlowTraces counts operations the flight recorder captured during
	// the run (0 when no recorder is installed on obs.Default).
	SlowTraces int64
	// Metrics is the engine-metric delta across the run (everything the
	// obs.Default registry accumulated between RunStress entry and exit).
	Metrics obs.Snapshot
}

// Summary renders the run as one log line: what the workload did and
// what the engine metrics observed while it ran.
func (r *StressResult) Summary() string {
	return fmt.Sprintf(
		"stress: %d instantiations (%d parallel, %d materialized), %d absent, %d replaces, %d deletes, %d inserts, %d violations | %s",
		r.Instantiations, r.ParallelInstantiations, r.MaterializedInstantiations, r.Absent, r.Replaces, r.Deletes, r.Inserts, len(r.Violations),
		r.Metrics.Summary())
}

// stamp is the uniform payload a VO-R writes into every island node of an
// instance; readers use it to detect instances assembled across commits.
func stamp(writer, cycle int) string { return fmt.Sprintf("w%d-c%d", writer, cycle) }

// RunStress builds the workload over shards in-memory shards and drives
// readers against writers until every writer finishes its cycles. It
// returns the tallies and any invariant violations; data races surface
// through `go test -race`. One shard is the plain database.
func RunStress(spec StressSpec, shards int) (*StressResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	before := obs.Capture()
	sw, err := NewShardedTree(spec.Tree, shards)
	if err != nil {
		return nil, err
	}
	return runStress(sw, spec, before)
}

// RunStressOn drives the same reader/writer traffic over an already-built
// workload — the crash matrix uses it to stress a durable cluster whose
// build it observes through its own delta subscription and whose process
// it kills. spec.Tree must be the spec the workload was built with (the
// instance-shape invariants derive from it). The metric delta in the
// result covers only the traffic, not the build.
func RunStressOn(sw *ShardedWorkload, spec StressSpec) (*StressResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return runStress(sw, spec, obs.Capture())
}

func (spec StressSpec) validate() error {
	if spec.Readers < 1 || spec.Writers < 1 || spec.Cycles < 1 || spec.ParallelReaders < 0 || spec.MaterializedReaders < 0 {
		return fmt.Errorf("workload: stress needs readers, writers, cycles >= 1 (got %+v)", spec)
	}
	if spec.Tree.Roots < spec.Writers {
		return fmt.Errorf("workload: %d roots cannot feed %d writers", spec.Tree.Roots, spec.Writers)
	}
	return nil
}

func runStress(sw *ShardedWorkload, spec StressSpec, before obs.Snapshot) (*StressResult, error) {
	if spec.ReadTxLagAlert > 0 {
		prev := obs.Default.SetReadTxLagAlert(spec.ReadTxLagAlert)
		defer obs.Default.SetReadTxLagAlert(prev)
	}
	c, w0 := sw.C, sw.Shards[0]
	key := func(k int) reldb.Tuple { return reldb.Tuple{reldb.Int(int64(k))} }

	// Stamp every instance once, serially, so the uniform-stamp invariant
	// holds from the first concurrent read.
	for k := 0; k < spec.Tree.Roots; k++ {
		if _, err := replaceStamped(sw, int64(k), "seed"); err != nil {
			return nil, fmt.Errorf("workload: initial stamping of key %d: %w", k, err)
		}
	}

	// The agers pin one snapshot per shard across every writer cycle; they
	// fork and close after the writers finish, so with a lag-alert
	// threshold the writers outrun, both stale-ReadTx alerts fire
	// deterministically.
	agers := make([]*reldb.ReadTx, c.N())
	for i := range agers {
		agers[i] = c.DB(i).BeginRead()
		defer agers[i].Close()
	}

	// Materialized readers share one cache per shard and read each key
	// through its home shard's: every serve syncs that cache to the
	// shard's committed head and patches exactly the instances the writers
	// touched. The same torn-instance invariants apply — a patched
	// instance must be consistent with a committed state.
	var mats []*viewobject.Materializer
	var homes []int // key -> home shard; nil without materialized readers
	if spec.MaterializedReaders > 0 {
		homes = make([]int, spec.Tree.Roots)
		for k := range homes {
			home, err := c.HomeOf(ShardedObject, key(k))
			if err != nil {
				return nil, err
			}
			homes[k] = home
		}
		mats = make([]*viewobject.Materializer, c.N())
		for i := range mats {
			mats[i] = viewobject.NewMaterializer(c.DB(i), w0.Def)
			defer mats[i].Close()
			// Prime the cache before any writer starts: on a
			// small-GOMAXPROCS box the scheduler can run every writer to
			// completion before the materialized readers' first slice, and
			// a cache first built after the last commit has nothing left
			// to patch.
			if _, _, err := mats[i].InstantiateByKey(key(0)); err != nil {
				return nil, fmt.Errorf("workload: priming materializer %d: %w", i, err)
			}
		}
	}

	res := &StressResult{}
	var mu sync.Mutex
	violate := func(format string, args ...any) {
		mu.Lock()
		if len(res.Violations) < 20 {
			res.Violations = append(res.Violations, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	// reader runs read(0), read(1), ... until done; a read that errors or
	// observes a torn instance reports and stops its goroutine.
	reader := func(read func(i int) error) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				if err := read(i); err != nil {
					violate("%v", err)
					return
				}
			}
		}()
	}
	// observe tallies one keyed lookup and checks what it found.
	observe := func(who string, k reldb.Tuple, inst *viewobject.Instance, ok bool, err error, found *int64) error {
		if err != nil {
			return fmt.Errorf("%s: instantiate %s: %w", who, k, err)
		}
		if !ok {
			atomic.AddInt64(&res.Absent, 1)
			return nil
		}
		atomic.AddInt64(found, 1)
		if msg := checkInstance(w0, spec.Tree, inst); msg != "" {
			return fmt.Errorf("%s: key %s: %s", who, k, msg)
		}
		return nil
	}

	for r := 0; r < spec.Readers; r++ {
		who := fmt.Sprintf("reader %d", r)
		reader(func(i int) error {
			k := key((r + i) % spec.Tree.Roots)
			inst, ok, err := c.InstantiateByKey(ShardedObject, k)
			return observe(who, k, inst, ok, err, &res.Instantiations)
		})
	}

	// Full-object readers: the query runs on every shard's snapshot and
	// merges; every instance in the result passes the same torn-instance
	// invariants.
	for r := 0; r < spec.ParallelReaders; r++ {
		reader(func(int) error {
			insts, err := c.Instantiate(ShardedObject, viewobject.Query{})
			if err != nil {
				return fmt.Errorf("parallel reader %d: instantiate: %w", r, err)
			}
			atomic.AddInt64(&res.ParallelInstantiations, int64(len(insts)))
			for _, inst := range insts {
				if msg := checkInstance(w0, spec.Tree, inst); msg != "" {
					return fmt.Errorf("parallel reader %d: %s", r, msg)
				}
			}
			return nil
		})
	}

	for r := 0; r < spec.MaterializedReaders; r++ {
		who := fmt.Sprintf("materialized reader %d", r)
		reader(func(i int) error {
			k := (r + i) % spec.Tree.Roots
			inst, ok, err := mats[homes[k]].InstantiateByKey(key(k))
			return observe(who, key(k), inst, ok, err, &res.MaterializedInstantiations)
		})
	}

	var writers sync.WaitGroup
	writerErrs := make(chan error, spec.Writers)
	for wr := 0; wr < spec.Writers; wr++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for cyc := 0; cyc < spec.Cycles; cyc++ {
				for k := wr; k < spec.Tree.Roots; k += spec.Writers {
					// VO-R: restamp every island node.
					stamped, err := replaceStamped(sw, int64(k), stamp(wr, cyc))
					if err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-R key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Replaces, 1)
					// VO-CD: delete the whole instance.
					if _, err := c.DeleteByKey(ShardedObject, key(k)); err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-CD key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Deletes, 1)
					// VO-CI: re-insert the stamped instance.
					if _, err := c.InsertInstance(ShardedObject, stamped); err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-CI key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Inserts, 1)
				}
			}
		}()
	}
	writers.Wait()
	// After the last commit every key is served once more through its
	// home materializer. That patches whatever window the concurrent
	// readers did not consume (a scheduling order that parks every
	// materialized reader across the whole writer phase would otherwise
	// end the run with no patch), and the patched instance must render
	// exactly what the coordinator assembles from a fresh snapshot.
	for k, home := range homes {
		got, gotOK, err := mats[home].InstantiateByKey(key(k))
		if err != nil {
			violate("materialized drain: key %d: %v", k, err)
			continue
		}
		want, wantOK, err := c.InstantiateByKey(ShardedObject, key(k))
		if err != nil {
			violate("materialized drain: key %d: %v", k, err)
			continue
		}
		if gotOK != wantOK || gotOK && got.Render() != want.Render() {
			violate("materialized drain: key %d diverges from a fresh instantiation (found %v, want %v)", k, gotOK, wantOK)
		}
	}
	// Fork-then-close the aged snapshots while they lag their heads by
	// every writer commit: both stale-ReadTx observation points fire.
	for _, ager := range agers {
		ager.Fork()
		ager.Close()
	}
	close(done)
	readers.Wait()
	close(writerErrs)
	res.Metrics = obs.Capture().Sub(before)
	res.SlowTraces = res.Metrics.Counter("obs.slowtrace.captured")
	// With a flight recorder installed, every retained span tree must be
	// well-formed even though spans were emitted from the §5 pipeline, the
	// cross-shard commit, the readers and the materializers
	// concurrently: exactly one root, every ParentID
	// resolvable, every child's interval inside its parent's. A violation
	// here means the causal threading tore under load.
	if rec := obs.Default.Recorder(); rec != nil {
		for _, tr := range rec.Traces() {
			if err := tr.Validate(); err != nil {
				violate("slow trace %d (%s): %v", tr.TraceID, tr.Name, err)
			}
		}
	}
	for err := range writerErrs {
		return res, err
	}
	return res, nil
}

// replaceStamped instantiates the current instance at root key k through
// the coordinator, clones it with every island node's V set to s, and
// executes the VO-R translation on the key's home shard. It returns the
// stamped instance.
func replaceStamped(sw *ShardedWorkload, k int64, s string) (*viewobject.Instance, error) {
	cur, ok, err := sw.C.InstantiateByKey(ShardedObject, reldb.Tuple{reldb.Int(k)})
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no instance with key %d", k)
	}
	stamped := cur.Clone()
	for _, relName := range sw.Shards[0].IslandRels {
		for _, n := range stamped.NodesAt(relName) {
			if err := n.SetAttr(sw.Shards[0].Def, "V", reldb.String(s)); err != nil {
				return nil, err
			}
		}
	}
	if _, err := sw.C.ReplaceByKey(ShardedObject, cur.Key(), stamped); err != nil {
		return nil, err
	}
	return stamped, nil
}

// checkInstance verifies that an assembled instance is consistent with
// some committed state:
//
//   - shape: every component has exactly Fanout children per child node
//     (VO-CD and VO-CI move whole instances, so partial shapes can only
//     come from a torn read);
//   - uniform stamp: every island node carries the same V (every VO-R
//     writes one stamp across the island in one transaction).
//
// It returns "" when consistent, a description otherwise.
func checkInstance(w *Workload, spec TreeSpec, inst *viewobject.Instance) string {
	stamps := make(map[string]int)
	var shapeErr string
	var walk func(n *viewobject.InstNode, island bool)
	walk = func(n *viewobject.InstNode, island bool) {
		if island {
			v, ok := n.Get(w.Def, "V")
			if !ok || v.IsNull() {
				shapeErr = fmt.Sprintf("island node %s has no V value", n.Node().ID)
				return
			}
			s, _ := v.AsString()
			stamps[s]++
		}
		for _, child := range n.Node().Children {
			kids := n.Children(child.ID)
			if len(kids) != spec.Fanout {
				shapeErr = fmt.Sprintf("node %s has %d components under %s, want %d",
					n.Node().ID, len(kids), child.ID, spec.Fanout)
				return
			}
			childIsland := islandRel(w, child.Relation)
			for _, kid := range kids {
				walk(kid, childIsland)
				if shapeErr != "" {
					return
				}
			}
		}
	}
	walk(inst.Root(), true)
	if shapeErr != "" {
		return shapeErr
	}
	if len(stamps) != 1 {
		return fmt.Sprintf("island stamped inconsistently: %v (torn across commits)", stamps)
	}
	return ""
}

func islandRel(w *Workload, name string) bool {
	for _, n := range w.IslandRels {
		if n == name {
			return true
		}
	}
	return false
}
