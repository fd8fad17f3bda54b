package rql

import (
	"testing"

	"penguin/internal/workload"
)

// FuzzRQL feeds arbitrary text to the RQL entry points — the shell
// hands them its input unfiltered. Parse and ParseExpr must not panic
// on any input; a statement Parse accepts is executed against a fresh
// copy of the small test database, where it must not panic either, and
// a statement that fails must leave the database as it found it: every
// write runs in one transaction (RunInTx), so a failure rolls back
// whole. The seed corpus, in testdata/fuzz, holds the statements of
// this package's tests.
func FuzzRQL(f *testing.F) {
	f.Add(`SELECT * FROM emp`)
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = ParseExpr(src)
		if _, err := Parse(src); err != nil {
			return
		}
		db := rqlDB(t)
		before := workload.DigestDatabase(db)
		if _, err := Exec(db, src); err != nil {
			if after := workload.DigestDatabase(db); after != before {
				t.Fatalf("Exec(%q) failed (%v) and changed the database", src, err)
			}
		}
	})
}
