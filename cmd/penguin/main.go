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
	"strings"
	"sync"
	"syscall"
	"time"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/serve"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
)

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
	flag.Parse()

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
		om, err := sh.cluster.Object(university.ObjOmega)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "penguin:", err)
	os.Exit(1)
}
