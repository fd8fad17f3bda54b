package main

// The interactive shell: session state, the RQL and dot-command loop,
// the flight-recorder views, and .help.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"penguin/internal/figures"
	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/rql"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
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
	// materialized holds the materialized instances per object name for
	// objects with .materialize enabled (kept fresh by diffing relation
	// versions); .query and .instance route through it instead of
	// instantiating from a fresh snapshot.
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
// shards it refuses the command, which needs one database's snapshot or
// relation versions, or would break the shards' placement.
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
			def, _ := sh.cluster.Object(n)
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
		res, err := sh.cluster.PreviewDeleteByKey(args[0], key)
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
		if !sh.single("a chosen translator could let omega-prime write GRADES, partitioned outside its island") {
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
		if err := sh.cluster.ReplaceObject(args[0], tr); err != nil {
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
		for i := 0; i < sh.cluster.N(); i++ {
			gen, err := sh.cluster.DB(i).Checkpoint()
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
	def, err := sh.cluster.Object(args[0])
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
