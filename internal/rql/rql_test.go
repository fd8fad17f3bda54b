package rql

import (
	"strings"
	"testing"

	"penguin/internal/obs"
	"penguin/internal/reldb"
)

// mustExec runs a statement, failing the test on error.
func mustExec(t *testing.T, db *reldb.Database, src string) *Outcome {
	t.Helper()
	out, err := Exec(db, src)
	if err != nil {
		t.Fatalf("Exec(%q): %v", src, err)
	}
	return out
}

func rqlDB(t *testing.T) *reldb.Database {
	t.Helper()
	db := reldb.NewDatabase()
	mustExec(t, db, `CREATE TABLE emp (id int, name string null, dept string null, salary float null) KEY (id)`)
	mustExec(t, db, `CREATE TABLE dept (name string, budget float null) KEY (name)`)
	mustExec(t, db, `INSERT INTO dept VALUES ('cs', 100.5), ('ee', 200.0)`)
	mustExec(t, db, `INSERT INTO emp VALUES (1, 'alice', 'cs', 50),
		(2, 'bob', 'ee', 60), (3, 'carol', 'cs', 70), (4, 'dan', NULL, NULL)`)
	return db
}

func TestCreateTable(t *testing.T) {
	db := rqlDB(t)
	if !db.HasRelation("emp") || !db.HasRelation("dept") {
		t.Fatal("tables missing")
	}
	schema := db.MustRelation("emp").Schema()
	if schema.Arity() != 4 || !schema.IsKeyName("id") {
		t.Fatalf("schema = %s", schema)
	}
	if i, _ := schema.AttrIndex("name"); !schema.Attr(i).Nullable {
		t.Fatal("name should be nullable")
	}
	// NOT NULL syntax.
	mustExec(t, db, `CREATE TABLE x (a int NOT NULL, b int) KEY (a)`)
	// Errors.
	for _, bad := range []string{
		`CREATE TABLE emp (a int) KEY (a)`, // duplicate
		`CREATE TABLE y (a blob) KEY (a)`,  // bad type
		`CREATE TABLE y (a int) KEY (b)`,   // bad key
		`CREATE TABLE y (a int)`,           // missing key
		`CREATE y (a int) KEY (a)`,         // syntax
	} {
		if _, err := Exec(db, bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestDropTable(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `DROP TABLE emp`)
	if !strings.Contains(out.Message, "dropped") || db.HasRelation("emp") {
		t.Fatal("drop failed")
	}
	if _, err := Exec(db, `DROP TABLE emp`); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestInsert(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `INSERT INTO emp VALUES (5, 'eve', 'cs', 80)`)
	if out.Affected != 1 {
		t.Fatalf("affected = %d", out.Affected)
	}
	// Column list with omitted nullable columns.
	mustExec(t, db, `INSERT INTO emp (id, name) VALUES (6, 'frank')`)
	got, _ := db.MustRelation("emp").Get(reldb.Tuple{reldb.Int(6)})
	if !got.At(2).IsNull() {
		t.Fatalf("dept should be null: %v", got)
	}
	// Errors: arity, duplicate key, unknown table, unknown column; a
	// failed multi-row insert must be atomic.
	for _, bad := range []string{
		`INSERT INTO emp VALUES (7)`,
		`INSERT INTO emp VALUES (1, 'dup', NULL, NULL)`,
		`INSERT INTO nope VALUES (1)`,
		`INSERT INTO emp (id, nope) VALUES (8, 'x')`,
		`INSERT INTO emp (id) VALUES (9, 'x')`,
	} {
		if _, err := Exec(db, bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	before := db.MustRelation("emp").Count()
	if _, err := Exec(db, `INSERT INTO emp VALUES (10, 'ok', NULL, NULL), (10, 'dup', NULL, NULL)`); err == nil {
		t.Fatal("duplicate in batch accepted")
	}
	if db.MustRelation("emp").Count() != before {
		t.Fatal("failed batch insert leaked rows")
	}
}

func TestSelectBasics(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `SELECT * FROM emp`)
	if out.Rows.Len() != 4 {
		t.Fatalf("rows = %d", out.Rows.Len())
	}
	out = mustExec(t, db, `SELECT name FROM emp WHERE dept = 'cs' ORDER BY name`)
	if out.Rows.Len() != 2 {
		t.Fatalf("rows = %d", out.Rows.Len())
	}
	if get(t, out.Rows, 0, "name").MustString() != "alice" {
		t.Fatal("order wrong")
	}
	out = mustExec(t, db, `SELECT id FROM emp ORDER BY id DESC LIMIT 2`)
	if out.Rows.Len() != 2 || get(t, out.Rows, 0, "id").MustInt() != 4 {
		t.Fatal("desc/limit wrong")
	}
	out = mustExec(t, db, `SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL`)
	if out.Rows.Len() != 2 {
		t.Fatalf("distinct rows = %d", out.Rows.Len())
	}
	out = mustExec(t, db, `SELECT name AS who FROM emp WHERE id = 1`)
	if get(t, out.Rows, 0, "who").MustString() != "alice" {
		t.Fatal("alias wrong")
	}
}

func TestSelectExpressions(t *testing.T) {
	db := rqlDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{`salary > 55`, 2},
		{`salary >= 60 AND dept = 'ee'`, 1},
		{`dept = 'cs' OR dept = 'ee'`, 3},
		{`NOT (dept = 'cs')`, 1},
		{`dept IS NULL`, 1},
		{`dept IS NOT NULL`, 3},
		{`name LIKE 'a%'`, 1},
		{`name LIKE '%o%'`, 2},
		{`id IN (1, 3, 99)`, 2},
		{`salary + 10 > 75`, 1},
		{`salary * 2 >= 120`, 2},
		{`-id < -3`, 1},
		{`salary / 2 < 30`, 1},
		{`id != 1`, 3},
		{`(id = 1 OR id = 2) AND salary < 55`, 1},
		{`TRUE`, 4},
		{`FALSE`, 0},
	}
	for _, c := range cases {
		out := mustExec(t, db, `SELECT id FROM emp WHERE `+c.where)
		if out.Rows.Len() != c.want {
			t.Errorf("WHERE %s: rows = %d, want %d", c.where, out.Rows.Len(), c.want)
		}
	}
}

func TestSelectJoin(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `SELECT emp.name, dept.budget FROM emp JOIN dept ON dept = name`)
	if out.Rows.Len() != 3 {
		t.Fatalf("join rows = %d", out.Rows.Len())
	}
	// Qualified ON attributes.
	out = mustExec(t, db, `SELECT emp.name FROM emp JOIN dept ON emp.dept = dept.name WHERE dept.budget > 150`)
	if out.Rows.Len() != 1 || get(t, out.Rows, 0, "emp.name").MustString() != "bob" {
		t.Fatalf("join+where wrong: %d", out.Rows.Len())
	}
	// Left outer join keeps dan.
	out = mustExec(t, db, `SELECT emp.name, dept.name FROM emp LEFT JOIN dept ON emp.dept = dept.name`)
	if out.Rows.Len() != 4 {
		t.Fatalf("outer rows = %d", out.Rows.Len())
	}
}

func TestSelectAggregates(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `SELECT COUNT(*) AS n, SUM(salary) AS total, AVG(salary) AS m FROM emp`)
	row := rowGetter(t, out.Rows, 0)
	if row("n").MustInt() != 4 {
		t.Fatalf("count = %v", row("n"))
	}
	if tot, _ := row("total").AsFloat(); tot != 180 {
		t.Fatalf("sum = %v", row("total"))
	}
	if m, _ := row("m").AsFloat(); m != 60 {
		t.Fatalf("avg = %v", row("m"))
	}
	out = mustExec(t, db, `SELECT dept, COUNT(*) AS n, MAX(salary) AS hi FROM emp WHERE dept IS NOT NULL GROUP BY dept ORDER BY dept`)
	if out.Rows.Len() != 2 {
		t.Fatalf("groups = %d", out.Rows.Len())
	}
	first := rowGetter(t, out.Rows, 0)
	if first("dept").MustString() != "cs" || first("n").MustInt() != 2 {
		t.Fatalf("group cs wrong: %v", out.Rows.Rows[0])
	}
	if hi, _ := first("hi").AsFloat(); hi != 70 {
		t.Fatalf("max = %v", first("hi"))
	}
	// Non-grouped column rejected.
	if _, err := Exec(db, `SELECT name, COUNT(*) FROM emp GROUP BY dept`); err == nil {
		t.Fatal("non-grouped column accepted")
	}
	// * with aggregates rejected.
	if _, err := Exec(db, `SELECT *, COUNT(*) FROM emp`); err == nil {
		t.Fatal("star with aggregate accepted")
	}
	// MIN(*) is not defined.
	if _, err := Exec(db, `SELECT MIN(*) FROM emp`); err == nil {
		t.Fatal("MIN(*) accepted")
	}
}

// TestAggregateAttributeCheckedWhateverTheRows: an aggregate over an
// attribute the input lacks is refused before a row is read, so a WHERE
// that leaves no rows refuses it too.
func TestAggregateAttributeCheckedWhateverTheRows(t *testing.T) {
	db := rqlDB(t)
	for _, src := range []string{
		`SELECT SUM(nope) FROM emp`,
		`SELECT SUM(nope) FROM emp WHERE id = 99`,
		`SELECT dept, MAX(nope) FROM emp WHERE id = 99 GROUP BY dept`,
	} {
		if out, err := Exec(db, src); err == nil {
			t.Errorf("%s: accepted, %d rows", src, out.Rows.Len())
		}
	}
}

func TestUpdate(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `UPDATE emp SET salary = salary + 5 WHERE dept = 'cs'`)
	if out.Affected != 2 {
		t.Fatalf("affected = %d", out.Affected)
	}
	got, _ := db.MustRelation("emp").Get(reldb.Tuple{reldb.Int(1)})
	if v, _ := got.At(3).AsFloat(); v != 55 {
		t.Fatalf("salary = %v", got.At(3))
	}
	// Key update.
	mustExec(t, db, `UPDATE emp SET id = 100 WHERE id = 4`)
	if !db.MustRelation("emp").Has(reldb.Tuple{reldb.Int(100)}) {
		t.Fatal("key update failed")
	}
	// Unknown column.
	if _, err := Exec(db, `UPDATE emp SET nope = 1`); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Conflicting key update rolls back.
	if _, err := Exec(db, `UPDATE emp SET id = 1 WHERE id = 2`); err == nil {
		t.Fatal("key conflict accepted")
	}
	if !db.MustRelation("emp").Has(reldb.Tuple{reldb.Int(2)}) {
		t.Fatal("failed update lost the row")
	}
}

func TestDelete(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `DELETE FROM emp WHERE dept = 'cs'`)
	if out.Affected != 2 {
		t.Fatalf("affected = %d", out.Affected)
	}
	if db.MustRelation("emp").Count() != 2 {
		t.Fatal("delete wrong")
	}
	out = mustExec(t, db, `DELETE FROM emp`)
	if out.Affected != 2 || db.MustRelation("emp").Count() != 0 {
		t.Fatal("unconditional delete wrong")
	}
}

// TestWhereProbesIndex: a SELECT, UPDATE or DELETE whose WHERE is an equality
// on an indexed attribute probes the index — the relation is charged
// probes and no scan — and affects exactly the rows the same predicate's
// scan form (or-wrapped, which no probe serves) does.
func TestWhereProbesIndex(t *testing.T) {
	indexed := func() *reldb.Database {
		db := rqlDB(t)
		if err := db.MustRelation("emp").CreateIndex("byDept", []string{"dept"}); err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, stmt := range []string{`UPDATE emp SET salary = salary + 5 WHERE `, `DELETE FROM emp WHERE `} {
		probed, scanned := indexed(), indexed()
		before := obs.Default.Snapshot()
		n := mustExec(t, probed, stmt+`dept = 'cs'`).Affected
		d := obs.Default.Snapshot().Sub(before)
		probes := d.LabeledCounters["reldb.relation.probes"].Values["emp"]
		scans := d.LabeledCounters["reldb.relation.scans"].Values["emp"]
		if probes == 0 || scans != 0 {
			t.Errorf("%sdept = 'cs': %d probes, %d scans of emp; want a probe and no scan", stmt, probes, scans)
		}
		if m := mustExec(t, scanned, stmt+`dept = 'cs' or dept = 'cs'`).Affected; n != 2 || m != n {
			t.Errorf("%s: the probe affected %d rows, the scan %d; want 2 each", stmt, n, m)
		}
		if got, want := probed.MustRelation("emp").All(), scanned.MustRelation("emp").All(); len(got) != len(want) {
			t.Errorf("%s: %d rows left after the probe, %d after the scan", stmt, len(got), len(want))
		} else {
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Errorf("%s: row %d is %v after the probe, %v after the scan", stmt, i, got[i], want[i])
				}
			}
		}
	}

	// A SELECT on one table reads through the same planner.
	db := indexed()
	before := obs.Default.Snapshot()
	probed := mustExec(t, db, `SELECT * FROM emp WHERE dept = 'cs'`).Rows
	d := obs.Default.Snapshot().Sub(before)
	probes := d.LabeledCounters["reldb.relation.probes"].Values["emp"]
	scans := d.LabeledCounters["reldb.relation.scans"].Values["emp"]
	if probes == 0 || scans != 0 {
		t.Errorf("SELECT … WHERE dept = 'cs': %d probes, %d scans of emp; want a probe and no scan", probes, scans)
	}
	scanned := mustExec(t, db, `SELECT * FROM emp WHERE dept = 'cs' or dept = 'cs'`).Rows
	if probed.Len() != 2 || probed.Len() != scanned.Len() {
		t.Fatalf("SELECT: the probe read %d rows, the scan %d; want 2 each", probed.Len(), scanned.Len())
	}
	for i := range probed.Rows {
		if !probed.Rows[i].Equal(scanned.Rows[i]) {
			t.Errorf("SELECT: row %d is %v from the probe, %v from the scan", i, probed.Rows[i], scanned.Rows[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	db := rqlDB(t)
	bad := []string{
		``,
		`SELEC * FROM emp`,
		`SELECT FROM emp`,
		`SELECT * FROM`,
		`SELECT * FROM emp WHERE`,
		`SELECT * FROM emp LIMIT -1`,
		`SELECT * FROM emp EXTRA`,
		`INSERT INTO emp`,
		`UPDATE emp`,
		`DELETE emp`,
		`SELECT * FROM emp WHERE name = 'unterminated`,
		`SELECT * FROM emp WHERE a ? b`,
		`SELECT * FROM emp JOIN dept`,
		`SELECT * FROM emp ORDER id`,
	}
	for _, src := range bad {
		if _, err := Exec(db, src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr(`Level = 'graduate' AND Units >= 3`)
	if err != nil {
		t.Fatal(err)
	}
	s := reldb.MustSchema("C", []reldb.Attribute{
		{Name: "Level", Type: reldb.KindString},
		{Name: "Units", Type: reldb.KindInt},
	}, []string{"Level"})
	ok, err := reldb.EvalBool(e, s, reldb.RowOf(reldb.Tuple{reldb.String("graduate"), reldb.Int(4)}))
	if err != nil || !ok {
		t.Fatalf("eval = %v, %v", ok, err)
	}
	if _, err := ParseExpr(`a = 1 extra`); err == nil {
		t.Fatal("trailing tokens accepted")
	}
	// Qualified attribute.
	e, err = ParseExpr(`COURSES.Level = 'graduate'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "COURSES.Level") {
		t.Fatalf("expr = %s", e)
	}
}

func TestComments(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, "SELECT id FROM emp -- trailing comment\nWHERE id = 1")
	if out.Rows.Len() != 1 {
		t.Fatal("comment handling wrong")
	}
}

func TestStringEscapes(t *testing.T) {
	db := rqlDB(t)
	mustExec(t, db, `INSERT INTO emp VALUES (50, 'o\'brien', "d\"q", 1)`)
	got, _ := db.MustRelation("emp").Get(reldb.Tuple{reldb.Int(50)})
	if got.At(1).MustString() != "o'brien" || got.At(2).MustString() != `d"q` {
		t.Fatalf("escapes wrong: %v", got)
	}
}

func TestFloatLiterals(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `SELECT id FROM emp WHERE salary = 50.0`)
	if out.Rows.Len() != 1 {
		t.Fatalf("rows = %d", out.Rows.Len())
	}
	out = mustExec(t, db, `SELECT id FROM emp WHERE salary > 59.5 AND salary < 60.5`)
	if out.Rows.Len() != 1 {
		t.Fatalf("rows = %d", out.Rows.Len())
	}
}

func TestFormatResult(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `SELECT id, name FROM emp WHERE id IN (1, 2) ORDER BY id`)
	text := FormatResult(out.Rows)
	for _, want := range []string{"id", "name", "alice", "bob", "(2 rows)"} {
		if !strings.Contains(text, want) {
			t.Errorf("FormatResult missing %q:\n%s", want, text)
		}
	}
}

func TestMultiRowInsertAndBatchSemicolon(t *testing.T) {
	db := rqlDB(t)
	out := mustExec(t, db, `INSERT INTO dept VALUES ('me', 1.0), ('ce', 2.0);`)
	if out.Affected != 2 {
		t.Fatalf("affected = %d", out.Affected)
	}
}
