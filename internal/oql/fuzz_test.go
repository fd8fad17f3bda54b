package oql

import (
	"testing"

	"penguin/internal/university"
)

// FuzzOQLQuery feeds arbitrary text to the object-query entry point — the
// raw HTTP q parameter and shell input reach Parse unfiltered — against
// the seeded university ω. No input may panic, and a query the parser
// accepts only ever narrows: its instances' pivot keys are a subset of
// the empty query's.
func FuzzOQLQuery(f *testing.F) {
	db, g := university.MustNewSeeded()
	om := university.MustOmega(g)
	all, err := Query(db, om, ``)
	if err != nil {
		f.Fatal(err)
	}
	keys := make(map[string]bool, len(all))
	for _, in := range all {
		keys[in.EncodedKey()] = true
	}
	f.Add(``) // the seed corpus is in testdata/fuzz
	f.Fuzz(func(t *testing.T, src string) {
		insts, err := Query(db, om, src)
		if err != nil {
			return
		}
		for _, in := range insts {
			if !keys[in.EncodedKey()] {
				t.Fatalf("query %q returned pivot key %s, which the empty query does not", src, in.Key())
			}
		}
	})
}
