package structural

import (
	"errors"
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

func TestDeleteCascadesOwnershipAndSubset(t *testing.T) {
	db, g := seededMini(t)
	in := &Integrity{G: g}
	tx := db.Begin()
	n, err := in.Delete(tx, "OWNER", reldb.Tuple{reldb.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// OWNER(1) plus its two OWNED tuples.
	if n != 3 {
		t.Fatalf("ops = %d, want 3", n)
	}
	if db.MustRelation("OWNED").Count() != 1 {
		t.Fatalf("OWNED count = %d", db.MustRelation("OWNED").Count())
	}
	// Subset cascade.
	tx = db.Begin()
	if _, err := in.Delete(tx, "GENERAL", reldb.Tuple{reldb.String("g1")}); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if db.MustRelation("SPECIAL").Count() != 0 {
		t.Fatal("subset tuple survived parent deletion")
	}
}

func TestDeleteRestrictedByReference(t *testing.T) {
	db, g := seededMini(t)
	in := &Integrity{G: g} // default policy: restrict
	tx := db.Begin()
	_, err := in.Delete(tx, "TARGET", reldb.Tuple{reldb.String("t1")})
	if err == nil || !strings.Contains(err.Error(), "restricted") {
		t.Fatalf("err = %v", err)
	}
	_ = tx.Rollback()
	if db.MustRelation("TARGET").Count() != 2 {
		t.Fatal("restricted delete mutated the database")
	}
	// Unreferenced target deletes fine.
	tx = db.Begin()
	if _, err := in.Delete(tx, "TARGET", reldb.Tuple{reldb.String("t2")}); err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
}

func TestDeleteCascadeReferencePolicy(t *testing.T) {
	db, g := seededMini(t)
	in := &Integrity{G: g, Policy: &Policy{
		OnRefDelete: map[string]DeleteAction{"ref": DeleteCascade},
	}}
	tx := db.Begin()
	n, err := in.Delete(tx, "TARGET", reldb.Tuple{reldb.String("t1")})
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if n != 3 { // two referencing tuples + the target
		t.Fatalf("ops = %d, want 3", n)
	}
	if db.MustRelation("REFER").Count() != 1 {
		t.Fatalf("REFER count = %d, want 1 (only the null ref)", db.MustRelation("REFER").Count())
	}
}

func TestDeleteSetNullReferencePolicy(t *testing.T) {
	db, g := seededMini(t)
	in := &Integrity{G: g, Policy: &Policy{
		OnRefDelete: map[string]DeleteAction{"ref": DeleteSetNull},
	}}
	tx := db.Begin()
	_, err := in.Delete(tx, "TARGET", reldb.Tuple{reldb.String("t1")})
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.Commit()
	if db.MustRelation("REFER").Count() != 3 {
		t.Fatal("set-null should keep referencing tuples")
	}
	got, _ := db.MustRelation("REFER").Get(reldb.Tuple{reldb.Int(5)})
	if !got[1].IsNull() {
		t.Fatalf("FK not nulled: %v", got)
	}
}

func TestDeleteMissingTuple(t *testing.T) {
	db, g := seededMini(t)
	in := &Integrity{G: g}
	tx := db.Begin()
	defer func() { _ = tx.Rollback() }()
	_, err := in.Delete(tx, "OWNER", reldb.Tuple{reldb.Int(99)})
	if !errors.Is(err, reldb.ErrNoSuchTuple) {
		t.Fatalf("err = %v", err)
	}
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

func TestActionStrings(t *testing.T) {
	if DeleteRestrict.String() != "restrict" || DeleteCascade.String() != "cascade" || DeleteSetNull.String() != "set-null" {
		t.Fatal("DeleteAction strings")
	}
	if !strings.Contains(DeleteAction(9).String(), "deleteaction") {
		t.Fatal("unknown action strings")
	}
}

func TestPolicyDefaults(t *testing.T) {
	var p *Policy
	if p.refDelete("x") != DeleteRestrict {
		t.Fatal("nil policy should restrict")
	}
	p = &Policy{}
	if p.refDelete("x") != DeleteRestrict {
		t.Fatal("empty policy defaults wrong")
	}
}
