// Concurrent-workload stress generator: N reader goroutines instantiate
// the generated view object through snapshot-isolated read transactions
// while M writer goroutines execute VO-R / VO-CD / VO-CI update
// translations in write transactions. Every assembled instance is checked
// against invariants that only hold for a consistent committed state, so
// a torn read (an instance assembled across a commit boundary) is caught
// even when it would not trip the race detector.
package workload

import (
	"fmt"
	"sync"
	"sync/atomic"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// StressSpec sizes a concurrent stress run over a BuildTree workload.
type StressSpec struct {
	// Tree shapes the schema and data. Roots must be >= Writers so every
	// writer owns a disjoint, non-empty set of instances.
	Tree TreeSpec
	// Readers is the number of concurrent instantiation goroutines.
	Readers int
	// ParallelReaders is the number of concurrent goroutines running
	// full-object Instantiate calls (all roots at once), which engage the
	// parallel fan-out when viewobject.Parallelism allows — so writer
	// commits race against multi-worker snapshot reads. May be 0.
	ParallelReaders int
	// MaterializedReaders is the number of concurrent goroutines reading
	// through one shared viewobject.Materializer — patched instances
	// served from the delta-stream cache racing the same VO writers. May
	// be 0.
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
	// The run holds one ReadTx open across every writer cycle and forks
	// it before closing, so any threshold the writers outrun trips both
	// the stale-fork and stale-close alerts deterministically.
	ReadTxLagAlert int64
}

// StressResult reports what a stress run did and what it found.
type StressResult struct {
	// Instantiations counts reader instantiations that found an instance.
	Instantiations int64
	// ParallelInstantiations counts instances assembled by the parallel
	// full-object readers.
	ParallelInstantiations int64
	// Absent counts reader lookups that found no instance (the key was
	// between its VO-CD and VO-CI).
	Absent int64
	// MaterializedInstantiations counts instances served through the
	// shared materializer.
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

// RunStress builds the workload and drives readers against writers until
// every writer finishes its cycles. It returns the tallies and any
// invariant violations; data races surface through `go test -race`.
func RunStress(spec StressSpec) (*StressResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.ReadTxLagAlert > 0 {
		prev := obs.Default.SetReadTxLagAlert(spec.ReadTxLagAlert)
		defer obs.Default.SetReadTxLagAlert(prev)
	}
	before := obs.Capture()
	w, err := BuildTree(spec.Tree)
	if err != nil {
		return nil, err
	}
	return runStress(w, spec, before)
}

// RunStressOn drives the same reader/writer traffic over an
// already-built workload (BuildTree or BuildTreeIn) — the crash-matrix
// harness uses it to stress a durable database whose build it needed to
// observe through its own delta subscription. spec.Tree must be the spec
// the workload was built with (the instance-shape invariants derive from
// it). The metric delta in the result covers only the traffic, not the
// build.
func RunStressOn(w *Workload, spec StressSpec) (*StressResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.ReadTxLagAlert > 0 {
		prev := obs.Default.SetReadTxLagAlert(spec.ReadTxLagAlert)
		defer obs.Default.SetReadTxLagAlert(prev)
	}
	return runStress(w, spec, obs.Capture())
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

func runStress(w *Workload, spec StressSpec, before obs.Snapshot) (*StressResult, error) {
	u := vupdate.NewUpdater(vupdate.PermissiveTranslator(w.Def))

	// Stamp every instance once, serially, so the uniform-stamp invariant
	// holds from the first concurrent read.
	for k := 0; k < spec.Tree.Roots; k++ {
		if _, err := replaceStamped(w, u, int64(k), "seed"); err != nil {
			return nil, fmt.Errorf("workload: initial stamping of key %d: %w", k, err)
		}
	}

	// The ager pins a snapshot across every writer cycle; it forks and
	// closes after the writers finish, so with a lag-alert threshold the
	// writers outrun, both stale-ReadTx alerts fire deterministically.
	ager := w.DB.BeginRead()
	defer ager.Close()

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
	for r := 0; r < spec.Readers; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := reldb.Tuple{reldb.Int(int64(i % spec.Tree.Roots))}
				rtx := w.DB.BeginRead()
				inst, ok, err := viewobject.InstantiateByKey(rtx, w.Def, key)
				gen := rtx.Generation()
				rtx.Close()
				if err != nil {
					violate("reader %d: instantiate %s: %v", r, key, err)
					return
				}
				if !ok {
					atomic.AddInt64(&res.Absent, 1)
					continue
				}
				atomic.AddInt64(&res.Instantiations, 1)
				if msg := checkInstance(w, spec.Tree, inst); msg != "" {
					violate("reader %d: key %s at gen %d: %s", r, key, gen, msg)
					return
				}
			}
		}(r)
	}

	// Parallel readers: full-object Instantiate over a pinned snapshot.
	// Each call fans its pivot frontier across the worker pool (when the
	// parallelism budget allows), so every assembled instance exercises
	// the parallel assembly path against concurrent commits. The same
	// torn-instance invariants apply to every instance in the result.
	for r := 0; r < spec.ParallelReaders; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rtx := w.DB.BeginRead()
				insts, err := viewobject.Instantiate(rtx, w.Def, viewobject.Query{})
				gen := rtx.Generation()
				rtx.Close()
				if err != nil {
					violate("parallel reader %d: instantiate: %v", r, err)
					return
				}
				atomic.AddInt64(&res.ParallelInstantiations, int64(len(insts)))
				for _, inst := range insts {
					if msg := checkInstance(w, spec.Tree, inst); msg != "" {
						violate("parallel reader %d at gen %d: %s", r, gen, msg)
						return
					}
				}
			}
		}(r)
	}

	// Materialized readers share one cache: every serve syncs it to the
	// committed head and patches exactly the instances the writers
	// touched. The same torn-instance invariants apply — a patched
	// instance must be consistent with a committed state.
	var mat *viewobject.Materializer
	if spec.MaterializedReaders > 0 {
		mat = viewobject.NewMaterializer(w.DB, w.Def)
		defer mat.Close()
		// Prime the cache before any writer starts: on a small-GOMAXPROCS
		// box the scheduler can run every writer to completion before the
		// materialized readers' first slice, and a cache first built after
		// the last commit has nothing left to patch.
		if _, _, err := mat.InstantiateByKey(reldb.Tuple{reldb.Int(0)}); err != nil {
			return nil, fmt.Errorf("workload: priming materializer: %w", err)
		}
	}
	for r := 0; r < spec.MaterializedReaders; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				key := reldb.Tuple{reldb.Int(int64(i % spec.Tree.Roots))}
				inst, ok, err := mat.InstantiateByKey(key)
				if err != nil {
					violate("materialized reader %d: instantiate %s: %v", r, key, err)
					return
				}
				if !ok {
					atomic.AddInt64(&res.Absent, 1)
					continue
				}
				atomic.AddInt64(&res.MaterializedInstantiations, 1)
				if msg := checkInstance(w, spec.Tree, inst); msg != "" {
					violate("materialized reader %d: key %s at gen %d: %s", r, key, mat.Generation(), msg)
					return
				}
			}
		}(r)
	}

	var writers sync.WaitGroup
	writerErrs := make(chan error, spec.Writers)
	for wr := 0; wr < spec.Writers; wr++ {
		writers.Add(1)
		go func(wr int) {
			defer writers.Done()
			for c := 0; c < spec.Cycles; c++ {
				for k := wr; k < spec.Tree.Roots; k += spec.Writers {
					// VO-R: restamp every island node.
					stamped, err := replaceStamped(w, u, int64(k), stamp(wr, c))
					if err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-R key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Replaces, 1)
					// VO-CD: delete the whole instance.
					if _, err := u.DeleteByKey(reldb.Tuple{reldb.Int(int64(k))}); err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-CD key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Deletes, 1)
					// VO-CI: re-insert the stamped instance.
					if _, err := u.InsertInstance(stamped); err != nil {
						writerErrs <- fmt.Errorf("writer %d: VO-CI key %d: %w", wr, k, err)
						return
					}
					atomic.AddInt64(&res.Inserts, 1)
				}
			}
		}(wr)
	}
	writers.Wait()
	// One serve after the last commit patches whatever window the
	// concurrent readers did not consume. Without this, a scheduling
	// order that parks every materialized reader across the whole writer
	// phase ends the run with no patch to assert on.
	if mat != nil {
		if _, _, err := mat.InstantiateByKey(reldb.Tuple{reldb.Int(0)}); err != nil {
			violate("materialized drain: %v", err)
		}
	}
	// Fork-then-close the aged snapshot while it lags the head by every
	// writer commit: both stale-ReadTx observation points fire.
	ager.Fork()
	ager.Close()
	close(done)
	readers.Wait()
	close(writerErrs)
	res.Metrics = obs.Capture().Sub(before)
	res.SlowTraces = res.Metrics.Counter("obs.slowtrace.captured")
	// With a flight recorder installed, every retained span tree must be
	// well-formed even though spans were emitted from the §5 pipeline,
	// the parallel instantiation pool, and the materializer concurrently:
	// exactly one root, every ParentID resolvable, every child's interval
	// inside its parent's. A violation here means the causal threading
	// tore under load.
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

// replaceStamped instantiates the current state of the instance at root
// key k from a snapshot, clones it with every island node's V set to s,
// and executes the VO-R translation. It returns the stamped instance.
func replaceStamped(w *Workload, u *vupdate.Updater, k int64, s string) (*viewobject.Instance, error) {
	rtx := w.DB.BeginRead()
	cur, ok, err := viewobject.InstantiateByKey(rtx, w.Def, reldb.Tuple{reldb.Int(k)})
	rtx.Close()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("no instance with key %d", k)
	}
	stamped := cur.Clone()
	for _, relName := range w.IslandRels {
		for _, n := range stamped.NodesAt(relName) {
			if err := n.SetAttr(w.Def, "V", reldb.String(s)); err != nil {
				return nil, err
			}
		}
	}
	if _, err := u.ReplaceInstance(cur, stamped); err != nil {
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
