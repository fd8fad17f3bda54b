// Command penguin is an interactive shell over the PENGUIN system: RQL
// statements run directly against the database; dot-commands expose the
// view-object layer (definitions, instantiation, object queries, update
// translation, and translator-selection dialogs).
//
// Usage:
//
//	penguin                   # start with the seeded university database
//	                          # and its view objects (in memory)
//	penguin -empty            # start with an empty database (RQL only)
//	penguin -load snapshot.db # load a snapshot written by .save (RQL only)
//	penguin -data-dir DIR     # open a durable database (WAL + checkpoints)
//	                          # in DIR/shard-0; recovers committed state
//	                          # after a crash (RQL only)
//	penguin -metrics-addr :9090 # additionally serve Prometheus metrics at /metrics
//	                            # (plus /debug/traces and /debug/pprof/)
//	penguin -slow-threshold 5ms # retain traces of operations slower than 5ms
//	                            # (0 retains every operation; default 25ms)
//	penguin -serve :8080      # serve the university's view objects over
//	                          # HTTP (DESIGN.md §14) instead of the shell;
//	                          # SIGINT/SIGTERM drains and closes cleanly
//	penguin -shards 4         # partition the university over 4 shards
//	                          # (pivot-key hash; DESIGN.md §15), in the
//	                          # shell and with -serve; the default is 1
//	penguin -loadgen http://host:8080 # run the open-loop load generator
//	                          # against a serving tier, report latency
//	                          # quantiles against -slo-p50/-slo-p99, exit
//
// The university is always a cluster of -shards databases, one by default.
// Every durable session has one layout: given -data-dir DIR, shard i lives
// in DIR/shard-<i> with its own WAL, so a shell session and -serve open the
// same directory. A DIR an older build wrote as one database (wal-*.log at
// its top level) is refused, not migrated.
//
// Commands:
//
//	<RQL statement>           e.g. SELECT * FROM COURSES WHERE Units > 3
//	.tables                   list relations
//	.schema REL               show one relation's schema
//	.graph                    render the structural schema (Figure 1)
//	.objects                  list defined view objects
//	.object NAME              render a view object's tree
//	.query NAME [OQL]         run an object query, e.g.
//	                          .query omega Level = 'graduate' and count(STUDENT) < 5
//	.instance NAME KEY        assemble one instance by pivot key
//	.delete NAME KEY          complete deletion (VO-CD) by pivot key
//	.dialog NAME              run the translator-selection dialog
//	.figures                  regenerate the paper's figures
//	.materialize [NAME [on|off]]  serve NAME's queries from the delta-patched cache
//	.parallel [N]             show or set the instantiation worker budget
//	.shards                   show per-shard generations, rows, and WAL activity
//	.stats                    dump engine metrics (counters and histograms)
//	.prom                     dump engine metrics in Prometheus exposition format
//	.trace [N]                show the last N spans of the retained traces (default 20)
//	.trace slow [N]           list retained slow traces, or render the Nth
//	.trace export N FILE      write the Nth slow trace as Chrome trace JSON
//	                          (all three read the flight recorder, which
//	                          retains operations at or past -slow-threshold)
//	.save FILE / .load FILE   snapshot the database
//	.checkpoint               write a durable checkpoint and prune the WAL
//	.help / .quit
//
// Errors go to stderr; results go to stdout, so output can be piped.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"penguin/internal/figures"
	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/rql"
	"penguin/internal/serve"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
	"penguin/internal/workload"
)

// shell holds the interactive session state.
type shell struct {
	// cluster is the session's database: one shard unless -shards says
	// otherwise, holding the university's objects or (-empty, -load, bare
	// -data-dir) none. Object reads and updates route through it; RQL and
	// the catalog commands run against shard 0 (db), which over several
	// shards sees that shard's partition of the island relations.
	cluster *shard.Cluster
	g       *structural.Graph
	// materialized holds the delta-stream cache per object name for
	// objects with .materialize enabled; .query and .instance route
	// through it instead of instantiating from a fresh snapshot.
	materialized map[string]*viewobject.Materializer
	out          *bufio.Writer
	errw         io.Writer
	in           *bufio.Reader
	// rec is the flight recorder behind every .trace form; installed on
	// the default registry when the shell starts.
	rec *obs.Recorder
}

// db is the database RQL, the catalog commands, and the single-database
// commands (see single) run against.
func (sh *shell) db() *reldb.Database { return sh.cluster.DB(0) }

// single reports whether the session is one database; over several
// shards it refuses the command, which needs one database's snapshot,
// relation versions, or translator.
func (sh *shell) single(why string) bool {
	if sh.cluster.N() > 1 {
		sh.errorf("%s - not supported over %d shards", why, sh.cluster.N())
		return false
	}
	return true
}

// errorf reports a failure on the error stream. Results stay on out so
// piped output is clean.
func (sh *shell) errorf(format string, args ...any) {
	sh.out.Flush() // keep ordering sensible when both streams share a terminal
	fmt.Fprintf(sh.errw, format+"\n", args...)
}

// lifecycle owns the process's teardown: drain the HTTP listener (if
// any), then close the database (if durable). It runs exactly once
// whether triggered by a signal, a .quit, or end of input — the fix for
// the old deferred Close calls, which never ran when SIGINT/SIGTERM
// killed the process and so skipped the database's final fsync.
type lifecycle struct {
	mu   sync.Mutex    // guards srv/db against the signal goroutine
	done chan struct{} // non-nil once a shutdown started; closed when it finished
	srv  *obs.HTTPServer
	db   io.Closer // the database — or the shard cluster — to close
}

// setServer registers the listener the shutdown must drain.
func (lc *lifecycle) setServer(srv *obs.HTTPServer) {
	lc.mu.Lock()
	lc.srv = srv
	lc.mu.Unlock()
}

// setDB registers the database (or shard cluster) the shutdown must
// close.
func (lc *lifecycle) setDB(db io.Closer) {
	lc.mu.Lock()
	lc.db = db
	lc.mu.Unlock()
}

// shutdown drains and closes. Safe to call from any goroutine, any
// number of times; only the first call acts, and every call returns
// only after the teardown has finished.
func (lc *lifecycle) shutdown() {
	lc.mu.Lock()
	if lc.done != nil {
		ch := lc.done
		lc.mu.Unlock()
		<-ch
		return
	}
	ch := make(chan struct{})
	lc.done = ch
	srv, db := lc.srv, lc.db
	lc.mu.Unlock()
	defer close(ch)
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "penguin: drain:", err)
		}
		cancel()
	}
	if db != nil {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "penguin: close:", err)
		}
	}
}

// trapSignals makes SIGINT/SIGTERM run the lifecycle before exiting, so
// a signaled process loses nothing it acknowledged.
func trapSignals(lc *lifecycle) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "\npenguin: %v — draining connections and closing the database\n", sig)
		lc.shutdown()
		os.Exit(0)
	}()
}

func main() {
	empty := flag.Bool("empty", false, "start with an empty database instead of the seeded university")
	load := flag.String("load", "", "load a database snapshot")
	dataDir := flag.String("data-dir", "", "open a durable database in this directory (write-ahead logged; recovers after a crash)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics at http://ADDR/metrics (e.g. :9090)")
	slowThreshold := flag.Duration("slow-threshold", 25*time.Millisecond,
		"retain traces of operations whose root span lasts at least this long (0 retains every operation)")
	serveAddr := flag.String("serve", "", "serve the view-object HTTP API at ADDR (e.g. :8080) instead of the shell")
	shards := flag.Int("shards", 1, "partition the university database over N shards (pivot-key hash); combine with -data-dir for per-shard WALs")
	maxReads := flag.Int("max-reads", 0, "serving tier: max in-flight read requests before shedding (0 = default 64, negative = unbounded)")
	maxWrites := flag.Int("max-writes", 0, "serving tier: max in-flight update requests before shedding (0 = default 16, negative = unbounded)")
	loadgenURL := flag.String("loadgen", "", "drive an open-loop load run against the serving tier at URL, report, and exit")
	lgObject := flag.String("object", "omega", "loadgen: view object to target")
	lgRPS := flag.Float64("rps", 100, "loadgen: target arrival rate, operations per second")
	lgDuration := flag.Duration("duration", 10*time.Second, "loadgen: run length")
	lgReadFraction := flag.Float64("read-fraction", 0.9, "loadgen: fraction of operations that are reads")
	lgMutateAttr := flag.String("mutate-attr", "Title", "loadgen: pivot attribute update operations rewrite")
	lgSLOp50 := flag.Duration("slo-p50", 0, "loadgen: p50 latency objective (0 = unchecked)")
	lgSLOp99 := flag.Duration("slo-p99", 0, "loadgen: p99 latency objective (0 = unchecked)")
	flag.Parse()

	if *loadgenURL != "" {
		runLoadgen(workload.OpenLoopSpec{
			BaseURL:      *loadgenURL,
			Object:       *lgObject,
			TargetRPS:    *lgRPS,
			Duration:     *lgDuration,
			ReadFraction: *lgReadFraction,
			MutateAttr:   *lgMutateAttr,
			SLOp50:       *lgSLOp50,
			SLOp99:       *lgSLOp99,
		})
		return
	}
	if *shards < 1 {
		fatal(fmt.Errorf("invalid -shards %d", *shards))
	}
	if *serveAddr != "" {
		runServe(*serveAddr, *dataDir, *shards, *maxReads, *maxWrites, *slowThreshold)
		return
	}

	lc := &lifecycle{}
	trapSignals(lc)
	sh := &shell{
		materialized: make(map[string]*viewobject.Materializer),
		out:          bufio.NewWriter(os.Stdout),
		errw:         os.Stderr,
		in:           bufio.NewReader(os.Stdin),
		rec:          obs.NewRecorder(*slowThreshold, 64),
	}
	obs.Default.SetRecorder(sh.rec)
	if *metricsAddr != "" {
		ln, err := obs.Serve(*metricsAddr)
		if err != nil {
			fatal(err)
		}
		lc.setServer(ln)
		fmt.Printf("metrics: http://%s/metrics\n", ln.Addr())
	}
	// The object-less sessions are one plain database; everything else
	// is the university.
	var db *reldb.Database
	switch {
	case *shards > 1 && (*empty || *load != ""):
		fatal(errors.New("-shards cannot be combined with -empty or -load"))
	case *shards > 1: // the university, below
	case *dataDir != "":
		// The layout serve mode opens: a 1-shard cluster in DIR/shard-0.
		c, err := shard.Open(*dataDir, 1, reldb.OpenOptions{})
		if err != nil {
			fatal(err)
		}
		sh.cluster, sh.g = c, structural.NewGraph(c.DB(0))
		fmt.Printf("opened %s (%d relations, %d rows, generation %d)\n",
			*dataDir, len(c.DB(0).Names()), c.TotalRows(), c.Generation())
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			fatal(err)
		}
		db, err = reldb.ReadSnapshot(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %s (%d relations, %d rows)\n", *load, len(db.Names()), db.TotalRows())
	case *empty:
		db = reldb.NewDatabase()
	}
	if db != nil {
		sh.adopt(db)
	} else if sh.cluster == nil {
		sh.cluster = openUniversity(*dataDir, *shards)
		om, err := sh.cluster.Object(university.ObjOmega, 0)
		if err != nil {
			fatal(err)
		}
		sh.g = om.Graph()
		fmt.Printf("PENGUIN shell — university database over %d shard(s); objects: %s\n",
			sh.cluster.N(), strings.Join(sh.cluster.Objects(), ", "))
		fmt.Println("type .help for commands (.shards shows per-shard state)")
	}
	lc.setDB(sh.cluster)
	sh.run()
	lc.shutdown()
}

// adopt makes a plain database the session: a 1-shard cluster with no
// objects registered.
func (sh *shell) adopt(db *reldb.Database) {
	c, err := shard.New([]*reldb.Database{db})
	if err != nil {
		fatal(err) // unreachable: New only refuses an empty list
	}
	sh.cluster = c
	sh.g = structural.NewGraph(db)
}

// openUniversity is the one bootstrap of shell and serve modes: the
// university (schema, ω and ω′, the paper's instance) over n shards —
// in memory, or durable under dataDir/shard-<i>, where a recovered
// cluster keeps its rows and only an empty one is seeded.
func openUniversity(dataDir string, n int) *shard.Cluster {
	if dataDir == "" {
		c, err := university.NewSharded(n)
		if err != nil {
			fatal(err)
		}
		return c
	}
	c, seeded, err := university.OpenSharded(dataDir, n, reldb.OpenOptions{})
	if err != nil {
		fatal(err)
	}
	if seeded {
		fmt.Printf("seeded %s with the university instance over %d shard(s)\n", dataDir, n)
	} else {
		fmt.Printf("recovered %s (%d shard(s), %d rows, generation %d)\n",
			dataDir, c.N(), c.TotalRows(), c.Generation())
	}
	return c
}

// runServe runs the HTTP serving tier over the university until a
// signal drains it. The acknowledged-write contract is the point of the
// careful teardown: a durable session commits through a synchronous
// WAL, so every 200 the tier returned stays committed across SIGTERM
// and the next start recovers it.
func runServe(addr, dataDir string, shards, maxReads, maxWrites int, slowThreshold time.Duration) {
	obs.Default.SetRecorder(obs.NewRecorder(slowThreshold, 64))
	lc := &lifecycle{}
	trapSignals(lc)
	c := openUniversity(dataDir, shards)
	lc.setDB(c)
	_, hs, err := serve.Start(addr, serve.Config{
		Cluster:          c,
		MaxReadInFlight:  maxReads,
		MaxWriteInFlight: maxWrites,
	})
	if err != nil {
		fatal(err)
	}
	lc.setServer(hs)
	fmt.Printf("serving view objects over %d shard(s) at http://%s/objects (metrics at /metrics)\n",
		shards, hs.Addr())
	select {} // the signal handler exits the process after draining
}

// runLoadgen drives one open-loop run and exits 0 only if the run met
// its objectives: no transport/5xx errors and no SLO violations.
func runLoadgen(spec workload.OpenLoopSpec) {
	res, err := workload.RunOpenLoop(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Print(res)
	if res.Errors > 0 || len(res.SLOViolations) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "penguin:", err)
	os.Exit(1)
}

// flushWriter flushes the shell's buffered output after every write so
// dialog prompts appear before the answer is read.
type flushWriter struct{ w *bufio.Writer }

// Write implements io.Writer.
func (f flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if err != nil {
		return n, err
	}
	return n, f.w.Flush()
}

func (sh *shell) run() {
	for {
		sh.out.Flush()
		fmt.Print("penguin> ")
		line, err := sh.in.ReadString('\n')
		if err != nil {
			fmt.Println()
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") {
			if sh.command(line) {
				return
			}
			continue
		}
		sh.execRQL(line)
	}
}

// execRQL runs one RQL statement and prints its outcome.
func (sh *shell) execRQL(line string) {
	out, err := rql.Exec(sh.db(), line)
	switch {
	case err != nil:
		sh.errorf("error: %v", err)
	case out.Rows != nil:
		fmt.Fprint(sh.out, rql.FormatResult(out.Rows))
	case out.Message != "":
		fmt.Fprintln(sh.out, out.Message)
	default:
		fmt.Fprintf(sh.out, "%d row(s) affected\n", out.Affected)
	}
}

// command dispatches a dot-command; it returns true to exit the shell.
func (sh *shell) command(line string) bool {
	fields := strings.Fields(line)
	cmd := fields[0]
	args := fields[1:]
	switch cmd {
	case ".quit", ".exit":
		return true
	case ".help":
		sh.help()
	case ".tables":
		rtx := sh.db().BeginRead()
		for _, n := range rtx.Names() {
			rel, _ := rtx.Relation(n)
			fmt.Fprintf(sh.out, "%-12s %6d rows\n", n, rel.Count())
		}
		rtx.Close()
	case ".schema":
		if len(args) != 1 {
			sh.errorf("usage: .schema REL")
			break
		}
		rel, err := sh.db().Relation(args[0])
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		fmt.Fprintln(sh.out, rel.Schema())
	case ".graph":
		fmt.Fprint(sh.out, sh.g.Render())
	case ".objects":
		for _, n := range sh.cluster.Objects() {
			def, _ := sh.cluster.Object(n, 0)
			fmt.Fprintf(sh.out, "%-12s pivot %s, complexity %d\n", n, def.Pivot(), def.Complexity())
		}
	case ".object":
		if def := sh.lookupObject(args); def != nil {
			fmt.Fprint(sh.out, def.Render())
		}
	case ".query":
		if len(args) < 1 {
			sh.errorf("usage: .query NAME [OQL]")
			break
		}
		def := sh.lookupObject(args[:1])
		if def == nil {
			break
		}
		q, err := oql.Parse(def, strings.Join(args[1:], " "))
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		var insts []*viewobject.Instance
		if m := sh.materialized[args[0]]; m != nil {
			insts, err = m.Instantiate(q)
		} else {
			insts, err = sh.cluster.Instantiate(args[0], q)
		}
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		fmt.Fprintf(sh.out, "%d instance(s)\n", len(insts))
		for _, inst := range insts {
			fmt.Fprint(sh.out, inst.Render())
		}
	case ".instance":
		def, key := sh.objectAndKey(args, ".instance")
		if def == nil {
			break
		}
		var inst *viewobject.Instance
		var ok bool
		var err error
		if m := sh.materialized[args[0]]; m != nil {
			inst, ok, err = m.InstantiateByKey(key)
		} else {
			inst, ok, err = sh.cluster.InstantiateByKey(args[0], key)
		}
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		if !ok {
			fmt.Fprintln(sh.out, "no instance with that key")
			break
		}
		fmt.Fprint(sh.out, inst.Render())
	case ".delete":
		def, key := sh.objectAndKey(args, ".delete")
		if def == nil {
			break
		}
		res, err := sh.cluster.DeleteByKey(args[0], key)
		if err != nil {
			sh.errorf("rejected: %v", err)
			break
		}
		fmt.Fprintf(sh.out, "translated into %d operation(s):\n%s\n", len(res.Ops), res)
	case ".preview":
		def, key := sh.objectAndKey(args, ".preview")
		if def == nil {
			break
		}
		// The dry run translates where the real update would: on the
		// key's home shard, with the translator registered there.
		home, err := sh.cluster.HomeOf(args[0], key)
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		tr, err := sh.cluster.Translator(args[0], home)
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		res, err := vupdate.NewUpdater(tr).PreviewDeleteByKey(key)
		if err != nil {
			sh.errorf("would be rejected: %v", err)
			break
		}
		fmt.Fprintf(sh.out, "would translate into %d operation(s) (nothing executed):\n%s\n", len(res.Ops), res)
	case ".dialog":
		def := sh.lookupObject(args)
		if def == nil {
			break
		}
		if !sh.single("the dialog chooses one database's translator") {
			break
		}
		sh.out.Flush()
		tr, tape, err := vupdate.ChooseTranslator(def,
			&vupdate.InteractiveAnswerer{R: sh.in, W: flushWriter{sh.out}})
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		tr.RepairInserts = true
		err = sh.cluster.ReplaceObject(args[0], func(int, *reldb.Database) (*vupdate.Translator, error) {
			return tr, nil
		})
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		fmt.Fprintf(sh.out, "translator chosen after %d question(s)\n", len(tape))
	case ".figures":
		report, err := figures.All()
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		fmt.Fprint(sh.out, report)
	case ".materialize":
		if !sh.single("materialized caches follow one database's relation versions") {
			break
		}
		if len(args) == 0 {
			if len(sh.materialized) == 0 {
				fmt.Fprintln(sh.out, "materialization: off for every object")
				break
			}
			names := make([]string, 0, len(sh.materialized))
			for n := range sh.materialized {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				m := sh.materialized[n]
				fmt.Fprintf(sh.out, "%s: materialized, %d instance(s) at gen %d\n", n, m.Len(), m.Generation())
			}
			break
		}
		def := sh.lookupObject(args[:1])
		if def == nil {
			break
		}
		if len(args) > 1 && args[1] == "off" {
			m := sh.materialized[args[0]]
			if m == nil {
				fmt.Fprintf(sh.out, "%s was not materialized\n", args[0])
				break
			}
			m.Close()
			delete(sh.materialized, args[0])
			fmt.Fprintf(sh.out, "%s: materialization off\n", args[0])
			break
		}
		if len(args) > 1 && args[1] != "on" {
			sh.errorf("usage: .materialize [NAME [on|off]]")
			break
		}
		m := sh.materialized[args[0]]
		if m == nil {
			m = viewobject.NewMaterializer(sh.db(), def)
			sh.materialized[args[0]] = m
		}
		// Serve once to build (or refresh) the cache eagerly so the
		// first .query pays nothing.
		insts, err := m.Instantiate(viewobject.Query{})
		if err != nil {
			m.Close()
			delete(sh.materialized, args[0])
			sh.errorf("error: %v", err)
			break
		}
		fmt.Fprintf(sh.out, "%s: materialized, %d instance(s) at gen %d\n", args[0], len(insts), m.Generation())
	case ".parallel":
		if len(args) == 0 {
			fmt.Fprintf(sh.out, "parallelism: %d workers\n", viewobject.Parallelism())
			break
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			sh.errorf("usage: .parallel [N]   (N >= 1 fixes the worker budget, 0 tracks GOMAXPROCS)")
			break
		}
		viewobject.SetParallelism(n)
		fmt.Fprintf(sh.out, "parallelism: %d workers\n", viewobject.Parallelism())
	case ".stats":
		if err := obs.WriteText(sh.out, obs.Capture()); err != nil {
			sh.errorf("error: %v", err)
		}
	case ".prom":
		if err := obs.WriteProm(sh.out, obs.Capture()); err != nil {
			sh.errorf("error: %v", err)
		}
	case ".trace":
		if len(args) >= 1 && args[0] == "slow" {
			sh.traceSlow(args[1:])
			break
		}
		if len(args) >= 1 && args[0] == "export" {
			sh.traceExport(args[1:])
			break
		}
		n := 20
		if len(args) >= 1 {
			parsed, err := strconv.Atoi(args[0])
			if err != nil || parsed < 1 {
				sh.errorf("usage: .trace [N] | .trace slow [N] | .trace export N FILE")
				break
			}
			n = parsed
		}
		var spans []obs.Event
		for _, tr := range sh.rec.Traces() {
			spans = append(spans, tr.Spans...)
		}
		if len(spans) == 0 {
			fmt.Fprintf(sh.out, "no traces retained (threshold %s)\n", sh.rec.Threshold())
			break
		}
		if len(spans) > n {
			spans = spans[len(spans)-n:]
		}
		for _, ev := range spans {
			fmt.Fprintln(sh.out, ev)
		}
	case ".save":
		if !sh.single("snapshots cover one database (use -data-dir for durability)") {
			break
		}
		if len(args) != 1 {
			sh.errorf("usage: .save FILE")
			break
		}
		f, err := os.Create(args[0])
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		err = sh.db().WriteSnapshot(f)
		f.Close()
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		fmt.Fprintln(sh.out, "saved", args[0])
	case ".checkpoint":
		for i, db := range sh.cluster.Databases() {
			gen, err := db.Checkpoint()
			if errors.Is(err, reldb.ErrNotDurable) {
				sh.errorf("this session is in-memory - start with -data-dir DIR for durability")
				break
			}
			if err != nil {
				sh.errorf("shard %d: %v", i, err)
				break
			}
			fmt.Fprintf(sh.out, "shard %d: checkpoint written at generation %d\n", i, gen)
		}
	case ".shards":
		sh.shards()
	case ".load":
		if !sh.single("snapshots cover one database") {
			break
		}
		if len(args) != 1 {
			sh.errorf("usage: .load FILE")
			break
		}
		f, err := os.Open(args[0])
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		db, err := reldb.ReadSnapshot(f)
		f.Close()
		if err != nil {
			sh.errorf("error: %v", err)
			break
		}
		sh.adopt(db)
		fmt.Fprintln(sh.out, "loaded", args[0], "(objects cleared: snapshots hold data, not schemas' connections)")
	default:
		sh.errorf("unknown command %s - try .help", cmd)
	}
	return false
}

// shards prints the cluster's per-shard state (".shards"): generations,
// row counts, and — in durable sessions — the by-shard WAL counters.
func (sh *shell) shards() {
	c := sh.cluster
	fmt.Fprintf(sh.out, "%d shard(s), cluster generation %d, %d stored row(s)\n",
		c.N(), c.Generation(), c.TotalRows())
	gens := c.Generations()
	for i := 0; i < c.N(); i++ {
		fmt.Fprintf(sh.out, "  shard %d: generation %d, %d rows\n", i, gens[i], c.DB(i).TotalRows())
	}
	snap := obs.Capture()
	for _, fam := range []string{
		"reldb.wal.appends",
		"reldb.wal.fsyncs",
		"reldb.wal.checkpoints",
	} {
		lc, ok := snap.LabeledCounters[fam]
		if !ok {
			continue
		}
		labels := make([]string, 0, len(lc.Values))
		for l := range lc.Values {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		fmt.Fprintf(sh.out, "%s:", fam)
		for _, l := range labels {
			fmt.Fprintf(sh.out, " %s=%d", l, lc.Values[l])
		}
		fmt.Fprintln(sh.out)
	}
}

// traceSlow lists the flight recorder's retained traces (".trace slow")
// or renders one span tree (".trace slow N", 1-based, oldest first).
func (sh *shell) traceSlow(args []string) {
	traces := sh.rec.Traces()
	if len(traces) == 0 {
		fmt.Fprintf(sh.out, "no slow traces retained (threshold %s)\n", sh.rec.Threshold())
		return
	}
	if len(args) == 0 {
		fmt.Fprintf(sh.out, "%d slow trace(s), threshold %s:\n", len(traces), sh.rec.Threshold())
		for i, tr := range traces {
			fmt.Fprintf(sh.out, "%3d  trace %-6d %-32s %10s  %s\n",
				i+1, tr.TraceID, tr.Name, tr.Dur, tr.Detail)
		}
		return
	}
	tr, ok := sh.nthSlowTrace(traces, args[0], ".trace slow [N]")
	if !ok {
		return
	}
	fmt.Fprint(sh.out, tr.Render())
}

// traceExport writes one retained trace as Chrome trace-event JSON
// (".trace export N FILE") for chrome://tracing or Perfetto.
func (sh *shell) traceExport(args []string) {
	if len(args) != 2 {
		sh.errorf("usage: .trace export N FILE")
		return
	}
	tr, ok := sh.nthSlowTrace(sh.rec.Traces(), args[0], ".trace export N FILE")
	if !ok {
		return
	}
	f, err := os.Create(args[1])
	if err != nil {
		sh.errorf("error: %v", err)
		return
	}
	err = obs.WriteChromeTrace(f, []obs.SlowTrace{tr})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		sh.errorf("error: %v", err)
		return
	}
	fmt.Fprintf(sh.out, "wrote trace %d (%d spans) to %s\n", tr.TraceID, len(tr.Spans), args[1])
}

// nthSlowTrace resolves a 1-based index from .trace slow listings.
func (sh *shell) nthSlowTrace(traces []obs.SlowTrace, raw, usage string) (obs.SlowTrace, bool) {
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		sh.errorf("usage: %s", usage)
		return obs.SlowTrace{}, false
	}
	if n > len(traces) {
		sh.errorf("only %d slow trace(s) retained - see .trace slow", len(traces))
		return obs.SlowTrace{}, false
	}
	return traces[n-1], true
}

func (sh *shell) lookupObject(args []string) *viewobject.Definition {
	if len(args) < 1 {
		sh.errorf("usage: ... NAME")
		return nil
	}
	def, err := sh.cluster.Object(args[0], 0)
	if err != nil {
		sh.errorf("no object named %s - see .objects", args[0])
		return nil
	}
	return def
}

// objectAndKey resolves "NAME KEYVALUE..." into a definition and a typed
// pivot key.
func (sh *shell) objectAndKey(args []string, usage string) (*viewobject.Definition, reldb.Tuple) {
	if len(args) < 2 {
		sh.errorf("usage: %s NAME KEY...", usage)
		return nil, nil
	}
	def := sh.lookupObject(args[:1])
	if def == nil {
		return nil, nil
	}
	pivotRel, err := sh.db().Relation(def.Pivot())
	if err != nil {
		sh.errorf("error: %v", err)
		return nil, nil
	}
	schema := pivotRel.Schema()
	keyIdx := schema.Key()
	if len(args)-1 != len(keyIdx) {
		sh.errorf("key of %s has %d attribute(s)", def.Pivot(), len(keyIdx))
		return nil, nil
	}
	key := make(reldb.Tuple, len(keyIdx))
	for i, raw := range args[1:] {
		v, err := reldb.ParseValue(schema.Attr(keyIdx[i]).Type, raw)
		if err != nil {
			sh.errorf("error: %v", err)
			return nil, nil
		}
		key[i] = v
	}
	return def, key
}

func (sh *shell) help() {
	fmt.Fprint(sh.out, `RQL statements run directly, e.g.
  SELECT * FROM COURSES WHERE Units > 3
  SELECT CourseID, COUNT(*) AS n FROM GRADES GROUP BY CourseID
Dot-commands:
  .tables .schema REL .graph
  .objects .object NAME
  .query NAME [OQL]     e.g. .query omega Level = 'graduate' and count(STUDENT) < 5
  .instance NAME KEY    .delete NAME KEY
  .preview NAME KEY     show a deletion's translation without executing it
  .dialog NAME          choose a translator interactively
  .figures              regenerate the paper's figures
  .materialize [NAME [on|off]]  keep NAME's instances materialized (patched from commit deltas)
  .parallel [N]         show or set the instantiation worker budget (0 tracks GOMAXPROCS)
  .shards               show per-shard generations, rows, and WAL activity
  .stats                dump engine metrics (counters and histograms)
  .prom                 dump engine metrics in Prometheus exposition format
  .trace [N]            show the last N spans of the retained traces (default 20)
  .trace slow [N]       list retained slow traces, or render the Nth as a tree
  .trace export N FILE  write the Nth slow trace as Chrome trace JSON
                        (traces are retained at or past -slow-threshold; 0 keeps every operation)
  .checkpoint           write a durable checkpoint per shard and prune its WAL (-data-dir sessions)
  .save FILE .load FILE .quit
The university is a cluster of -shards databases (default 1). .dialog, .materialize,
.save and .load work on one database: over several shards they are refused. With
-data-dir DIR shard i lives in DIR/shard-<i>, in shell and serve mode alike; a DIR
an older build wrote as one database (wal-*.log at its top level) is refused.
`)
}
