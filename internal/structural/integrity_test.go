package structural

import (
	"strings"
	"testing"

	"penguin/internal/reldb"
)

// seededMini builds the mini graph with data:
//
//	OWNER(1), OWNER(2)
//	OWNED(1,1) OWNED(1,2) OWNED(2,1)
//	TARGET(t1), TARGET(t2)
//	REFER(5→t1), REFER(6→null), REFER(7→t1)
//	GENERAL(g1), SPECIAL(g1)
func seededMini(t *testing.T) (*reldb.Database, *Graph) {
	t.Helper()
	db, g := miniGraph(t)
	err := db.RunInTx(func(tx *reldb.Tx) error {
		ins := func(rel string, rows ...reldb.Tuple) {
			for _, r := range rows {
				if err := tx.Insert(rel, r); err != nil {
					t.Fatalf("seed %s: %v", rel, err)
				}
			}
		}
		i, s := reldb.Int, reldb.String
		ins("OWNER", reldb.Tuple{i(1), s("o1")}, reldb.Tuple{i(2), s("o2")})
		ins("OWNED",
			reldb.Tuple{i(1), i(1), s("a")},
			reldb.Tuple{i(1), i(2), s("b")},
			reldb.Tuple{i(2), i(1), s("c")})
		ins("TARGET", reldb.Tuple{s("t1"), s("info1")}, reldb.Tuple{s("t2"), s("info2")})
		ins("REFER",
			reldb.Tuple{i(5), s("t1")},
			reldb.Tuple{i(6), reldb.Null()},
			reldb.Tuple{i(7), s("t1")})
		ins("GENERAL", reldb.Tuple{s("g1"), s("c")})
		ins("SPECIAL", reldb.Tuple{s("g1"), s("x")})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, g
}

func TestAuditCleanDatabase(t *testing.T) {
	db, g := seededMini(t)
	in := &Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("clean database has violations:\n%s", FormatViolations(vs))
	}
	if FormatViolations(vs) != "no violations" {
		t.Fatal("FormatViolations empty case")
	}
}

func TestAuditFindsViolations(t *testing.T) {
	db, g := seededMini(t)
	// Create an orphan OWNED, a dangling REFER, and an orphan SPECIAL by
	// raw deletion (bypassing the integrity engine).
	err := db.RunInTx(func(tx *reldb.Tx) error {
		if _, err := tx.Delete("OWNER", reldb.Tuple{reldb.Int(1)}); err != nil {
			return err
		}
		if _, err := tx.Delete("TARGET", reldb.Tuple{reldb.String("t1")}); err != nil {
			return err
		}
		_, err := tx.Delete("GENERAL", reldb.Tuple{reldb.String("g1")})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	in := &Integrity{G: g}
	vs, err := in.Audit(db)
	if err != nil {
		t.Fatal(err)
	}
	// 2 orphan OWNED + 2 dangling REFER + 1 orphan SPECIAL.
	if len(vs) != 5 {
		t.Fatalf("violations = %d, want 5:\n%s", len(vs), FormatViolations(vs))
	}
	text := FormatViolations(vs)
	for _, want := range []string{"orphan", "dangling reference"} {
		if !strings.Contains(text, want) {
			t.Errorf("violations missing %q:\n%s", want, text)
		}
	}
}
