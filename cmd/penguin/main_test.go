package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/university"
	"penguin/internal/viewobject"
)

func keyOf(id string) reldb.Tuple { return reldb.Tuple{reldb.String(id)} }

// testShell builds the default session: a shell over the seeded
// university (one shard) with ω and ω′ registered. Stdout and stderr
// are captured in separate buffers (the shell routes errors to stderr);
// out holds stdout, sh.errw the errors.
func testShell(t *testing.T) (*shell, *bytes.Buffer) {
	return testShellOver(t, 1, "")
}

// testShellOver is testShell over n shards, reading its input from
// script.
func testShellOver(t *testing.T, n int, script string) (*shell, *bytes.Buffer) {
	t.Helper()
	c, err := university.NewSharded(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	om, err := c.Object(university.ObjOmega)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sh := &shell{
		cluster:      c,
		g:            om.Graph(),
		materialized: make(map[string]*viewobject.Materializer),
		out:          bufio.NewWriter(&out),
		errw:         &bytes.Buffer{},
		in:           bufio.NewReader(strings.NewReader(script)),
		rec:          obs.NewRecorder(0, 8), // threshold 0: retain every operation
	}
	obs.Default.SetRecorder(sh.rec)
	t.Cleanup(func() { obs.Default.SetRecorder(nil) })
	return sh, &out
}

// run executes one shell command (or RQL line) and returns stdout and
// stderr concatenated (stdout first), so assertions cover both streams.
func run(t *testing.T, sh *shell, out *bytes.Buffer, line string) string {
	t.Helper()
	out.Reset()
	sh.errw.(*bytes.Buffer).Reset()
	if strings.HasPrefix(line, ".") {
		sh.command(line)
	} else {
		sh.execRQL(line)
	}
	sh.out.Flush()
	return out.String() + sh.errw.(*bytes.Buffer).String()
}

func TestShellTablesAndSchema(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".tables")
	for _, want := range []string{"COURSES", "GRADES", "DEPARTMENT"} {
		if !strings.Contains(text, want) {
			t.Errorf(".tables missing %q:\n%s", want, text)
		}
	}
	text = run(t, sh, out, ".schema COURSES")
	if !strings.Contains(text, "key(CourseID)") {
		t.Errorf(".schema output:\n%s", text)
	}
	text = run(t, sh, out, ".schema NOPE")
	if !strings.Contains(text, "error") {
		t.Errorf("missing error:\n%s", text)
	}
	text = run(t, sh, out, ".schema")
	if !strings.Contains(text, "usage") {
		t.Errorf("missing usage:\n%s", text)
	}
}

func TestShellRQL(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, "SELECT CourseID FROM COURSES WHERE Level = 'graduate' ORDER BY CourseID")
	for _, want := range []string{"CS345", "CS445", "EE380", "(3 rows)"} {
		if !strings.Contains(text, want) {
			t.Errorf("query output missing %q:\n%s", want, text)
		}
	}
	text = run(t, sh, out, "DELETE FROM STAFF")
	if !strings.Contains(text, "1 row(s) affected") {
		t.Errorf("mutation output:\n%s", text)
	}
	text = run(t, sh, out, "SELEKT nonsense")
	if !strings.Contains(text, "error") {
		t.Errorf("bad RQL should error:\n%s", text)
	}
	text = run(t, sh, out, "CREATE TABLE T (a int) KEY (a)")
	if !strings.Contains(text, "created T") {
		t.Errorf("DDL output:\n%s", text)
	}
}

func TestShellObjects(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".objects")
	if !strings.Contains(text, "omega") || !strings.Contains(text, "complexity 5") {
		t.Errorf(".objects output:\n%s", text)
	}
	text = run(t, sh, out, ".object omega")
	if !strings.Contains(text, "--* GRADES") {
		t.Errorf(".object output:\n%s", text)
	}
	text = run(t, sh, out, ".object nope")
	if !strings.Contains(text, "no object named") {
		t.Errorf("unknown object output:\n%s", text)
	}
	text = run(t, sh, out, ".graph")
	if !strings.Contains(text, "Structural schema") {
		t.Errorf(".graph output:\n%s", text)
	}
}

func TestShellQueryAndInstance(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".query omega Level = 'graduate' and count(STUDENT) < 5")
	if !strings.Contains(text, "2 instance(s)") || !strings.Contains(text, "CS345") {
		t.Errorf(".query output:\n%s", text)
	}
	text = run(t, sh, out, ".instance omega CS345")
	if !strings.Contains(text, "COURSES: (CS345") {
		t.Errorf(".instance output:\n%s", text)
	}
	text = run(t, sh, out, ".instance omega NOPE")
	if !strings.Contains(text, "no instance") {
		t.Errorf("missing-instance output:\n%s", text)
	}
	text = run(t, sh, out, ".instance omega")
	if !strings.Contains(text, "usage") {
		t.Errorf("usage output:\n%s", text)
	}
	// ω′ has an int... no, pivot is COURSES everywhere; test key arity.
	text = run(t, sh, out, ".instance omega CS345 extra")
	if !strings.Contains(text, "has 1 attribute(s)") {
		t.Errorf("arity output:\n%s", text)
	}
}

func TestShellDelete(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".delete omega CS445")
	if !strings.Contains(text, "translated into") {
		t.Errorf(".delete output:\n%s", text)
	}
	if sh.db().MustRelation(university.Courses).Has(keyOf("CS445")) {
		t.Fatal("CS445 survived")
	}
	// On one shard ω′ translates updates too.
	text = run(t, sh, out, ".delete omega-prime CS101")
	if !strings.Contains(text, "translated into") || sh.db().MustRelation(university.Courses).Has(keyOf("CS101")) {
		t.Errorf("omega-prime .delete output:\n%s", text)
	}
}

func TestShellMaterialize(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".materialize")
	if !strings.Contains(text, "off for every object") {
		t.Errorf("initial .materialize output:\n%s", text)
	}
	text = run(t, sh, out, ".materialize omega")
	if !strings.Contains(text, "omega: materialized, 6 instance(s)") {
		t.Errorf(".materialize omega output:\n%s", text)
	}
	// Queries and instance lookups now serve from the patched cache.
	text = run(t, sh, out, ".query omega Level = 'graduate' and count(STUDENT) < 5")
	if !strings.Contains(text, "2 instance(s)") || !strings.Contains(text, "CS345") {
		t.Errorf("materialized .query output:\n%s", text)
	}
	// A committed deletion must surface through the cache on the next read.
	if _, err := sh.cluster.DeleteByKey("omega", keyOf("CS445")); err != nil {
		t.Fatal(err)
	}
	text = run(t, sh, out, ".instance omega CS445")
	if !strings.Contains(text, "no instance") {
		t.Errorf("materialized .instance after delete:\n%s", text)
	}
	text = run(t, sh, out, ".query omega Level = 'graduate' and count(STUDENT) < 5")
	if !strings.Contains(text, "1 instance(s)") {
		t.Errorf("materialized .query after delete:\n%s", text)
	}
	text = run(t, sh, out, ".materialize")
	if !strings.Contains(text, "omega: materialized, 5 instance(s)") {
		t.Errorf(".materialize status output:\n%s", text)
	}
	text = run(t, sh, out, ".materialize omega off")
	if !strings.Contains(text, "materialization off") {
		t.Errorf(".materialize off output:\n%s", text)
	}
	if len(sh.materialized) != 0 {
		t.Fatal("materializer not removed")
	}
	text = run(t, sh, out, ".materialize omega bogus")
	if !strings.Contains(text, "usage") {
		t.Errorf("bad-arg output:\n%s", text)
	}
}

func TestShellFiguresAndHelp(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".figures")
	if !strings.Contains(text, "Figure 4") {
		t.Errorf(".figures output too short")
	}
	text = run(t, sh, out, ".help")
	if !strings.Contains(text, ".dialog NAME") {
		t.Errorf(".help output:\n%s", text)
	}
	text = run(t, sh, out, ".bogus")
	if !strings.Contains(text, "unknown command") {
		t.Errorf("unknown command output:\n%s", text)
	}
}

func TestShellSaveLoad(t *testing.T) {
	sh, out := testShell(t)
	dir := t.TempDir()
	path := dir + "/snap.db"
	text := run(t, sh, out, ".save "+path)
	if !strings.Contains(text, "saved") {
		t.Fatalf(".save output:\n%s", text)
	}
	run(t, sh, out, "DELETE FROM GRADES")
	text = run(t, sh, out, ".load "+path)
	if !strings.Contains(text, "loaded") {
		t.Fatalf(".load output:\n%s", text)
	}
	if sh.db().MustRelation(university.Grades).Count() == 0 {
		t.Fatal("load did not restore data")
	}
	text = run(t, sh, out, ".load /nonexistent/file")
	if !strings.Contains(text, "error") {
		t.Errorf("missing load error:\n%s", text)
	}
}

// Errors must land on stderr only; stdout stays clean for piping.
func TestShellErrorsGoToStderr(t *testing.T) {
	sh, out := testShell(t)
	out.Reset()
	errBuf := sh.errw.(*bytes.Buffer)
	errBuf.Reset()
	sh.execRQL("SELEKT nonsense")
	sh.out.Flush()
	if out.Len() != 0 {
		t.Errorf("RQL error leaked to stdout: %q", out.String())
	}
	if !strings.Contains(errBuf.String(), "error") {
		t.Errorf("stderr missing error: %q", errBuf.String())
	}
	errBuf.Reset()
	sh.command(".bogus")
	sh.out.Flush()
	if out.Len() != 0 {
		t.Errorf("unknown-command error leaked to stdout: %q", out.String())
	}
	if !strings.Contains(errBuf.String(), "unknown command") {
		t.Errorf("stderr missing unknown-command: %q", errBuf.String())
	}
}

func TestShellStatsAndTrace(t *testing.T) {
	sh, out := testShell(t)
	run(t, sh, out, ".delete omega CS445")

	text := run(t, sh, out, ".stats")
	for _, want := range []string{
		"reldb.tx.commits ",
		"vupdate.updates.committed ",
		"vupdate.step.translate_ns.count ",
		"vupdate.ops.delete ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf(".stats missing %q:\n%s", want, text)
		}
	}

	text = run(t, sh, out, ".trace")
	for _, want := range []string{"vupdate.step.translate", "vupdate.update", "reldb.commit"} {
		if !strings.Contains(text, want) {
			t.Errorf(".trace missing %q:\n%s", want, text)
		}
	}

	text = run(t, sh, out, ".trace 2")
	if got := len(strings.Split(strings.TrimSpace(text), "\n")); got != 2 {
		t.Errorf(".trace 2 printed %d lines:\n%s", got, text)
	}
	text = run(t, sh, out, ".trace bogus")
	if !strings.Contains(text, "usage") {
		t.Errorf(".trace bogus output:\n%s", text)
	}
}

func TestShellTraceSlowAndExport(t *testing.T) {
	sh, out := testShell(t)

	text := run(t, sh, out, ".trace slow")
	if !strings.Contains(text, "no slow traces retained") {
		t.Errorf(".trace slow before any op:\n%s", text)
	}
	text = run(t, sh, out, ".trace")
	if !strings.Contains(text, "no traces retained") {
		t.Errorf(".trace before any op:\n%s", text)
	}

	run(t, sh, out, ".delete omega CS445")

	text = run(t, sh, out, ".trace slow")
	if !strings.Contains(text, "vupdate.update") {
		t.Errorf(".trace slow listing missing the update trace:\n%s", text)
	}

	// Render the last retained trace (the vupdate.update op) as a tree.
	traces := sh.rec.Traces()
	if len(traces) == 0 {
		t.Fatal("recorder retained no traces")
	}
	n := len(traces)
	text = run(t, sh, out, ".trace slow "+strconv.Itoa(n))
	for _, want := range []string{"vupdate.update", "vupdate.step.translate", "reldb.commit"} {
		if !strings.Contains(text, want) {
			t.Errorf(".trace slow %d missing %q:\n%s", n, want, text)
		}
	}

	file := t.TempDir() + "/trace.json"
	text = run(t, sh, out, ".trace export "+strconv.Itoa(n)+" "+file)
	if !strings.Contains(text, "wrote trace") {
		t.Errorf(".trace export output:\n%s", text)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &chrome); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v\n%s", err, data)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("exported trace has no events")
	}

	text = run(t, sh, out, ".trace slow 999")
	if !strings.Contains(text, "retained") {
		t.Errorf(".trace slow 999 output:\n%s", text)
	}
	text = run(t, sh, out, ".trace export 1")
	if !strings.Contains(text, "usage") {
		t.Errorf(".trace export 1 output:\n%s", text)
	}
}

func TestShellQuit(t *testing.T) {
	sh, _ := testShell(t)
	if !sh.command(".quit") || !sh.command(".exit") {
		t.Fatal("quit should return true")
	}
}

func TestShellPreview(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".preview omega CS445")
	if !strings.Contains(text, "would translate into") || !strings.Contains(text, "nothing executed") {
		t.Fatalf(".preview output:\n%s", text)
	}
	if !sh.db().MustRelation(university.Courses).Has(keyOf("CS445")) {
		t.Fatal("preview mutated the database")
	}
	text = run(t, sh, out, ".preview omega NOPE")
	if !strings.Contains(text, "would be rejected") {
		t.Fatalf("missing-instance preview output:\n%s", text)
	}
}

// .prom renders the live registry as Prometheus text exposition: lint-
// clean, with the per-object update-pipeline series split by view-object
// name.
func TestShellProm(t *testing.T) {
	sh, out := testShell(t)
	run(t, sh, out, ".delete omega CS445")

	text := run(t, sh, out, ".prom")
	if err := obs.CheckExposition(text); err != nil {
		t.Fatalf(".prom output fails exposition lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		"# TYPE reldb_tx_commits counter",
		"# TYPE vupdate_step_translate_ns histogram",
		`vupdate_updates_committed{object="omega"}`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf(".prom missing %q:\n%s", want, text)
		}
	}
}

// .checkpoint is a no-op with a pointer to -data-dir on an in-memory
// session, and writes a real snapshot (pruning the WAL) on a durable one
// whose state then survives a reopen.
func TestShellCheckpoint(t *testing.T) {
	sh, out := testShell(t)
	text := run(t, sh, out, ".checkpoint")
	if !strings.Contains(text, "-data-dir") {
		t.Fatalf("in-memory .checkpoint should point at -data-dir:\n%s", text)
	}

	dir := t.TempDir()
	db, err := reldb.OpenDatabaseWith(dir, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sh.adopt(db)
	if _, err := db.CreateRelation(reldb.MustSchema("T", []reldb.Attribute{
		{Name: "K", Type: reldb.KindInt},
	}, []string{"K"})); err != nil {
		t.Fatal(err)
	}
	if err := db.RunInTx(func(tx *reldb.Tx) error {
		return tx.Insert("T", reldb.Tuple{reldb.Int(7)})
	}); err != nil {
		t.Fatal(err)
	}
	text = run(t, sh, out, ".checkpoint")
	if !strings.Contains(text, "checkpoint written at generation 2") {
		t.Fatalf(".checkpoint output:\n%s", text)
	}
	// A database opened without a shard label is shard "0" of its
	// 1-shard cluster in the one shard-labeled WAL family.
	if text = run(t, sh, out, ".shards"); !strings.Contains(text, "reldb.wal.checkpoints: 0=") {
		t.Errorf(".shards misses the shard-0 WAL counters:\n%s", text)
	}
	if text = run(t, sh, out, ".prom"); !strings.Contains(text, `reldb_wal_checkpoints{shard="0"}`) {
		t.Errorf(".prom misses reldb_wal_checkpoints{shard=\"0\"}")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := reldb.OpenDatabaseWith(dir, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if g := re.Generation(); g != 2 {
		t.Fatalf("reopened generation = %d, want 2", g)
	}
	rel, err := re.Relation("T")
	if err != nil || rel.Count() != 1 {
		t.Fatalf("reopened T: %v, count %d", err, rel.Count())
	}
}

// shellChildEnv carries the data directory to a re-executed child that
// runs the real `penguin -data-dir DIR` shell over its stdin.
const shellChildEnv = "PENGUIN_SHELL_CHILD_DIR"

// TestShellDataDirLayout: a -data-dir shell session writes the one
// durable layout, a 1-shard cluster in DIR/shard-0, so shard.Open — and
// with it `penguin -serve -data-dir DIR` — sees what the session wrote.
func TestShellDataDirLayout(t *testing.T) {
	if dir := os.Getenv(shellChildEnv); dir != "" {
		os.Args = []string{"penguin", "-data-dir", dir}
		main()
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestShellDataDirLayout$")
	cmd.Env = append(os.Environ(), shellChildEnv+"="+dir)
	cmd.Stdin = strings.NewReader("CREATE TABLE T (K int) KEY (K)\nINSERT INTO T VALUES (7)\n.quit\n")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("shell session: %v\n%s", err, out)
	}
	c, err := shard.Open(dir, 1, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rel, err := c.DB(0).Relation("T")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rel.Get(reldb.Tuple{reldb.Int(7)}); !ok || rel.Count() != 1 {
		t.Fatalf("T after the shell session holds %d rows, want the one it inserted", rel.Count())
	}
}

// TestShellOverShards drives the object commands over three shards:
// reads, the dry run and the real deletion route by pivot key exactly as
// on one shard — the dry run of a key homed off shard 0 lists exactly
// what its deletion then executes — .shards and .checkpoint walk every
// shard, and the commands that need one database's snapshot or delta
// stream, or (.dialog) could make ω′ break the placement, are refused.
func TestShellOverShards(t *testing.T) {
	sh, out := testShellOver(t, 3, "")
	text := run(t, sh, out, ".query omega Level = 'graduate' and count(STUDENT) < 5")
	if !strings.Contains(text, "2 instance(s)") || !strings.Contains(text, "CS345") {
		t.Errorf(".query output:\n%s", text)
	}
	text = run(t, sh, out, ".instance omega CS345")
	if !strings.Contains(text, "COURSES: (CS345") {
		t.Errorf(".instance output:\n%s", text)
	}
	// CS445 is homed off shard 0, so the dry run and the delete both
	// translate there — and must list the same operations.
	if home, err := sh.cluster.HomeOf(university.ObjOmega, reldb.Tuple{reldb.String("CS445")}); err != nil || home == 0 {
		t.Fatalf("CS445 is homed on shard %d (%v), want one other than 0", home, err)
	}
	preview := run(t, sh, out, ".preview omega CS445")
	previewOps, ok := strings.CutPrefix(preview, "would translate into ")
	if !ok {
		t.Fatalf(".preview output:\n%s", preview)
	}
	if text = run(t, sh, out, ".instance omega CS445"); !strings.Contains(text, "COURSES: (CS445") {
		t.Errorf("preview mutated the cluster:\n%s", text)
	}
	text = run(t, sh, out, ".delete omega CS445")
	deleteOps, ok := strings.CutPrefix(text, "translated into ")
	if !ok {
		t.Fatalf(".delete output:\n%s", text)
	}
	// Both read "N operation(s)<header tail>:\n<ops>": compare N and ops.
	previewOps = strings.Replace(previewOps, " (nothing executed)", "", 1)
	if previewOps != deleteOps || strings.HasPrefix(deleteOps, "0 ") {
		t.Errorf(".preview of CS445 listed\n%s\nthe .delete that followed executed\n%s", previewOps, deleteOps)
	}
	if text = run(t, sh, out, ".instance omega CS445"); !strings.Contains(text, "no instance") {
		t.Errorf("CS445 survived the routed delete:\n%s", text)
	}
	text = run(t, sh, out, ".shards")
	if !strings.Contains(text, "3 shard(s)") || !strings.Contains(text, "shard 2: generation") {
		t.Errorf(".shards output:\n%s", text)
	}
	if text = run(t, sh, out, ".checkpoint"); !strings.Contains(text, "-data-dir") {
		t.Errorf("in-memory .checkpoint should point at -data-dir:\n%s", text)
	}
	for _, cmd := range []string{".dialog omega", ".materialize omega", ".save /dev/null", ".load /dev/null"} {
		if text = run(t, sh, out, cmd); !strings.Contains(text, "not supported over 3 shards") {
			t.Errorf("%s over 3 shards:\n%s", cmd, text)
		}
	}
}
