package reldb

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"penguin/internal/obs"
)

// treeShape walks a tree and returns its node count and height.
func treeShape(t *ptree) (nodes, height int) {
	var walk func(n *treeNode, depth int)
	walk = func(n *treeNode, depth int) {
		nodes++
		height = max(height, depth)
		for _, k := range n.kids {
			walk(k, depth+1)
		}
	}
	if t.root != nil {
		walk(t.root, 1)
	}
	return nodes, height
}

// TestIntKeysBeyondExactDomain pins the key codec's domain: integers
// beyond ±2^53 share a float64 with a neighbour, so as keys, indexed
// values, lookup values and range bounds they are refused with
// ErrKeyDomain instead of silently aliasing that neighbour.
func TestIntKeysBeyondExactDomain(t *testing.T) {
	r := NewRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt}, {Name: "V", Type: KindInt}, {Name: "F", Type: KindFloat, Nullable: true},
	}, []string{"K"}))
	const edge = int64(1) << 53
	for _, k := range []int64{edge, -edge, edge - 1} {
		if err := r.Insert(Tuple{Int(k), Int(math.MaxInt64), Null()}); err != nil {
			t.Fatalf("key %d is inside the domain (and V is neither key nor indexed): %v", k, err)
		}
	}
	if err := r.Insert(Tuple{Int(edge + 1), Int(0), Null()}); !errors.Is(err, ErrKeyDomain) {
		t.Fatalf("insert of key 2^53+1: %v, want ErrKeyDomain (it is not a duplicate of 2^53)", err)
	}
	if got, ok := r.Get(Tuple{Int(edge + 1)}); ok {
		t.Fatalf("Get(2^53+1) returned %v: the row of another key", got)
	}
	if _, err := r.Delete(Tuple{Int(edge + 1)}); !errors.Is(err, ErrKeyDomain) {
		t.Fatalf("delete of key 2^53+1: %v, want ErrKeyDomain", err)
	}
	if err := r.Replace(Tuple{Int(edge)}, Tuple{Int(-edge - 1), Int(0), Null()}); !errors.Is(err, ErrKeyDomain) {
		t.Fatalf("replace to key -2^53-1: %v, want ErrKeyDomain", err)
	}
	if _, err := r.MatchEqual([]string{"K"}, Tuple{Int(edge + 1)}); !errors.Is(err, ErrKeyDomain) {
		t.Fatalf("lookup of 2^53+1: %v, want ErrKeyDomain", err)
	}
	// 2^53+1 has no exact tree position: a predicate over it scans, and
	// finds nothing (2^53 is below it).
	for _, pred := range []Expr{Eq("K", Int(edge+1)), Cmp{Op: OpGe, L: Attr{Name: "K"}, R: Const{V: Int(edge + 1)}}} {
		var st MatchStats
		if got, err := r.SelectStats(pred, &st); err != nil || len(got) != 0 || st.Scans != 1 {
			t.Fatalf("Select(%s) = %v, %v charging %+v; want nothing, by a scan", pred, got, err, st)
		}
	}

	// V holds MaxInt64 in every row: it cannot be indexed, and once an
	// attribute is indexed it cannot take such a value. NaN likewise.
	if err := r.CreateIndex("byV", []string{"V"}); !errors.Is(err, ErrKeyDomain) {
		t.Fatalf("index over MaxInt64 values: %v, want ErrKeyDomain", err)
	}
	if names := r.IndexNames(); len(names) != 0 {
		t.Fatalf("failed CreateIndex left %v behind", names)
	}
	if err := r.CreateIndex("byF", []string{"F"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Replace(Tuple{Int(edge)}, Tuple{Int(edge), Int(0), Float(math.NaN())}); !errors.Is(err, ErrKeyDomain) {
		t.Fatalf("NaN into an indexed attribute: %v, want ErrKeyDomain", err)
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d after refused writes, want 3", r.Count())
	}
}

// FuzzKeyCodecOrder: on the codec's domain, byte order of the encodings
// is Compare order, equal encodings mean Equal values, and both carry
// over to multi-value keys (the encoding is self-delimiting).
func FuzzKeyCodecOrder(f *testing.F) {
	// The rest of the seed corpus is in testdata/fuzz; these two have no
	// spelling there.
	f.Add(byte(2), int64(0), math.Copysign(0, -1), "", byte(2), int64(0), 0.0, "")
	f.Add(byte(2), int64(0), math.NaN(), "", byte(2), int64(0), 1.0, "")
	value := func(kind byte, i int64, fl float64, s string) Value {
		switch kind % 5 {
		case 1:
			return Int(i)
		case 2:
			return Float(fl)
		case 3:
			return String(s)
		case 4:
			return Bool(i&1 == 1)
		}
		return Null()
	}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	f.Fuzz(func(t *testing.T, ka byte, ia int64, fa float64, sa string, kb byte, ib int64, fb float64, sb string) {
		a, b := value(ka, ia, fa, sa), value(kb, ib, fb, sb)
		if !keyEncodable(a) || !keyEncodable(b) {
			return
		}
		c, err := Compare(a, b)
		if err != nil {
			return // kinds Compare does not order never share an attribute
		}
		ea, eb := EncodeValues(a), EncodeValues(b)
		if got := bytes.Compare([]byte(ea), []byte(eb)); got != sign(c) {
			t.Fatalf("Compare(%v, %v) = %d but encodings %x, %x order %d", a, b, c, ea, eb, got)
		}
		if (ea == eb) != a.Equal(b) {
			t.Fatalf("%v, %v: Equal = %v but encodings %x, %x", a, b, a.Equal(b), ea, eb)
		}
		// As the leading value of a two-value key, with the other value in
		// both roles behind it.
		for _, rest := range [][2]Value{{a, b}, {b, a}, {a, a}} {
			want := sign(c)
			if want == 0 {
				r, _ := Compare(rest[0], rest[1])
				want = sign(r)
			}
			ka, kb := EncodeValues(a, rest[0]), EncodeValues(b, rest[1])
			if got := bytes.Compare([]byte(ka), []byte(kb)); got != want {
				t.Fatalf("keys (%v,%v), (%v,%v): encodings %x, %x order %d, want %d", a, rest[0], b, rest[1], ka, kb, got, want)
			}
		}
	})
}

// TestOldVersionsSurviveWriter: readers pin versions and keep reading
// them — scan, point and index probes — while a writer commits on top;
// each must keep seeing exactly the rows it pinned. Under -race this is
// the check that a published version is never written.
func TestOldVersionsSurviveWriter(t *testing.T) {
	db := NewDatabase()
	db.MustCreateRelation(MustSchema("R", []Attribute{
		{Name: "K", Type: KindInt}, {Name: "G", Type: KindInt}, {Name: "V", Type: KindInt},
	}, []string{"K"}))
	if err := db.MustRelation("R").CreateIndex("byG", []string{"G"}); err != nil {
		t.Fatal(err)
	}
	const rows, groups, commits, readers = 2000, 50, 300, 4
	if err := db.RunInTx(func(tx *Tx) error {
		for k := int64(0); k < rows; k++ {
			if err := tx.Insert("R", Tuple{Int(k), Int(k % groups), Int(0)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Commit c sets V = c on the rows of group c%groups, deletes row c-1
	// and inserts row rows+c-1: every version differs from the one before
	// in scan sum, in key set and in every index bucket the readers probe.
	sumAt := func(r *Relation) (sum int64, n int) {
		r.Scan(func(tu Row) bool { sum += tu.At(2).MustInt(); n++; return true })
		return sum, n
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for {
				select {
				case <-stop:
					return
				default:
				}
				rtx := db.BeginRead()
				r := rtx.MustRelation("R")
				sum, n := sumAt(r)
				g, _ := r.MatchEqual([]string{"G"}, Tuple{Int(int64(i))})
				for round := 0; round < 20; round++ {
					if s2, n2 := sumAt(r); s2 != sum || n2 != n || n != rows {
						t.Errorf("pinned gen %d: scan moved from (%d, %d) to (%d, %d)", rtx.Generation(), sum, n, s2, n2)
						return
					}
					g2, err := r.MatchEqual([]string{"G"}, Tuple{Int(int64(i))})
					if err != nil || len(g2) != len(g) {
						t.Errorf("pinned gen %d: index probe moved from %d to %d rows (%v)", rtx.Generation(), len(g), len(g2), err)
						return
					}
					for j := range g {
						if got, ok := r.Get(Tuple{g[j].At(0)}); !ok || !got.Equal(g[j]) || !g2[j].Equal(g[j]) {
							t.Errorf("pinned gen %d: row %v now reads %v, %v", rtx.Generation(), g[j], got, g2[j])
							return
						}
					}
				}
				rtx.Close()
			}
		}(i)
	}
	close(start)
	for c := int64(1); c <= commits; c++ {
		if err := db.RunInTx(func(tx *Tx) error {
			r, err := tx.Relation("R")
			if err != nil {
				return err
			}
			hit, err := r.MatchEqual([]string{"G"}, Tuple{Int(c % groups)})
			if err != nil {
				return err
			}
			for _, tu := range hit {
				if _, err := tx.Replace("R", Tuple{tu.At(0)}, Tuple{tu.At(0), tu.At(1), Int(c)}); err != nil {
					return err
				}
			}
			if _, err := tx.Delete("R", Tuple{Int(c - 1)}); err != nil {
				return err
			}
			return tx.Insert("R", Tuple{Int(rows + c - 1), Int((c - 1) % groups), Int(0)})
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTreeChurnStaysBounded replays the benchmark's churn — delete a
// whole 46-row instance, insert it back — over a fixed key range: however
// long it runs, the tree may not grow past what its row count explains,
// in nodes or in height.
func TestTreeChurnStaysBounded(t *testing.T) {
	r := NewRelation(MustSchema("R", []Attribute{
		{Name: "K0", Type: KindInt}, {Name: "K1", Type: KindInt}, {Name: "P", Type: KindInt},
	}, []string{"K0", "K1"}))
	if err := r.CreateIndex("byP", []string{"P"}); err != nil {
		t.Fatal(err)
	}
	const roots, per = 400, 46
	row := func(root, i int64) Tuple { return Tuple{Int(root), Int(i), Int((root*7 + i) % 97)} }
	for root := int64(0); root < roots; root++ {
		for i := int64(0); i < per; i++ {
			if err := r.Insert(row(root, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	freshNodes, freshHeight := treeShape(&r.rows)
	ixNodes, ixHeight := treeShape(&r.indexes["byP"].tree)
	// Ascending load must leave full leaves behind (the rightmost-split
	// rule): rows/fanout of them, plus the branches above.
	if limit := roots*per/treeFanout + roots*per/(treeFanout*treeFanout) + 4; freshNodes > limit {
		t.Fatalf("ascending load of %d rows built %d nodes, want at most %d (full leaves)", roots*per, freshNodes, limit)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4000; round++ {
		root := int64(rng.Intn(roots))
		for i := int64(0); i < per; i++ {
			if _, err := r.Delete(Tuple{Int(root), Int(i)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < per; i++ {
			if err := r.Insert(row(root, i)); err != nil {
				t.Fatal(err)
			}
		}
		if round%500 == 0 {
			r = r.clone() // path copying from here on, as a commit would
		}
	}
	if r.Count() != roots*per {
		t.Fatalf("Count = %d after churn, want %d", r.Count(), roots*per)
	}
	// A node is refilled when it drops under treeMinFill, so the worst
	// the tree can legitimately be is a quarter full.
	nodes, height := treeShape(&r.rows)
	if nodes > 4*freshNodes || height > freshHeight+1 {
		t.Fatalf("row tree after churn: %d nodes height %d, fresh load had %d height %d", nodes, height, freshNodes, freshHeight)
	}
	nodes, height = treeShape(&r.indexes["byP"].tree)
	if nodes > 4*ixNodes || height > ixHeight+1 {
		t.Fatalf("index tree after churn: %d nodes height %d, fresh load had %d height %d", nodes, height, ixNodes, ixHeight)
	}
	t.Logf("rows: %d -> %d nodes, height %d -> %d", freshNodes, nodes, freshHeight, height)
}

// TestCommitCostFlatAcrossSizes: a one-row replace through RunInTx costs
// what the paths it touches cost, not what the database holds — bytes per
// commit within 2x from a thousand rows to a million, and no more nodes
// copied than one root-to-leaf path per tree touched.
func TestCommitCostFlatAcrossSizes(t *testing.T) {
	sizes := []int{1e3, 1e5, 1e6}
	if testing.Short() {
		sizes = sizes[:2]
	}
	const commits = 200
	var perCommit []float64
	for _, n := range sizes {
		db := NewDatabase()
		db.MustCreateRelation(MustSchema("R", []Attribute{
			{Name: "K", Type: KindInt}, {Name: "P", Type: KindInt},
		}, []string{"K"}))
		if err := db.MustRelation("R").CreateIndex("byP", []string{"P"}); err != nil {
			t.Fatal(err)
		}
		if err := db.RunInTx(func(tx *Tx) error {
			for k := 0; k < n; k++ {
				if err := tx.Insert("R", Tuple{Int(int64(k)), Int(int64(k / 3))}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		r := db.MustRelation("R")
		_, rowsHeight := treeShape(&r.rows)
		_, ixHeight := treeShape(&r.indexes["byP"].tree)

		rng := rand.New(rand.NewSource(int64(n)))
		var before, after runtime.MemStats
		copies0 := obs.Capture().Counter("reldb.tree.node_copies")
		runtime.ReadMemStats(&before)
		for c := 0; c < commits; c++ {
			k := int64(rng.Intn(n))
			if err := db.RunInTx(func(tx *Tx) error {
				// The indexed value moves: one delete and one insert in the
				// index tree, one overwrite in the row tree.
				_, err := tx.Replace("R", Tuple{Int(k)}, Tuple{Int(k), Int(k/3 + 1)})
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		copies := float64(obs.Capture().Counter("reldb.tree.node_copies")-copies0) / commits
		bytesPer := float64(after.TotalAlloc-before.TotalAlloc) / commits
		perCommit = append(perCommit, bytesPer)
		// One root-to-leaf path per tree touched (the old and the new index
		// entry are neighbours and all but share theirs), +1 for a sibling
		// a split or refill may pull in.
		if limit := float64(rowsHeight + 1 + ixHeight + 1); copies > limit {
			t.Errorf("%d rows: %.1f nodes copied per commit, want at most %v (heights %d, %d)", n, copies, limit, rowsHeight, ixHeight)
		}
		t.Logf("%d rows: %.0f B and %.1f node copies per commit (heights %d, %d)", n, bytesPer, copies, rowsHeight, ixHeight)

		// The diff of one such commit — what its WAL record and its
		// subscribers get — reads one node per level on each side, and
		// allocates per level, not per row.
		was := db.MustRelation("R")
		k := int64(rng.Intn(n))
		if err := db.RunInTx(func(tx *Tx) error {
			_, err := tx.Replace("R", Tuple{Int(k)}, Tuple{Int(k), Int(-1)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		now := db.MustRelation("R")
		d, read := diff(was, now)
		if len(d.Replaces) != 1 || len(d.Inserts)+len(d.Deletes) != 0 || !d.Replaces[0].New.Equal(RowOf(Tuple{Int(k), Int(-1)})) {
			t.Fatalf("%d rows: diff of a one-row replace = %+v", n, d)
		}
		allocs := testing.AllocsPerRun(20, func() { Diff(was, now) })
		if levels := float64(rowsHeight + 1); float64(read) > 2*levels || allocs > 4*levels+6 {
			t.Errorf("%d rows: diff read %d nodes and made %.0f allocations for one row (height %d)", n, read, allocs, rowsHeight)
		}
		t.Logf("%d rows: diff of a one-row commit reads %d nodes, %.0f allocations", n, read, allocs)
	}
	for i, b := range perCommit {
		if b > 2*perCommit[0] || perCommit[0] > 2*b {
			t.Errorf("bytes per commit at %d rows = %.0f, at %d rows = %.0f: not within 2x", sizes[i], b, sizes[0], perCommit[0])
		}
	}
}

// TestFingerMatchesPrefixWalks: probing ascending prefixes through one
// finger answers each as a walk of the tree from that prefix does, on a tree
// of height 4 whose runs cross leaf and branch boundaries, for prefixes
// before, between and after the stored keys, and after deletions have
// left separators that no stored key equals.
func TestFingerMatchesPrefixWalks(t *testing.T) {
	var tr ptree
	o := new(treeOwner)
	// Key (a, b): 600 values of a, each with 1 to 60 entries.
	rng := rand.New(rand.NewSource(7))
	for a := int64(0); a < 600; a++ {
		for b := int64(0); b < 1+a%60; b++ {
			tr.put(o, EncodeValues(Int(2*a), Int(b)), RowOf(Tuple{Int(2 * a), Int(b)}))
		}
	}
	for i := 0; i < 3000; i++ {
		a, b := rng.Int63n(600), rng.Int63n(60)
		tr.delete(o, EncodeValues(Int(2*a), Int(b)))
	}
	if _, h := treeShape(&tr); h < 3 {
		t.Fatalf("tree height %d, want at least 3", h)
	}
	for round := 0; round < 200; round++ {
		var prefixes []string
		for a := int64(-2); a < 1203; a += 1 + rng.Int63n(int64(1+round%40)) {
			prefixes = append(prefixes, EncodeValues(Int(a)))
		}
		var f, c finger
		for _, p := range prefixes {
			got := f.appendPrefixed(&tr, nil, p)
			var want []Row
			tr.ascend(p, func(k string, v Row) bool {
				if strings.HasPrefix(k, p) {
					want = append(want, v)
				}
				return strings.HasPrefix(k, p)
			})
			if len(got) != len(want) {
				t.Fatalf("round %d prefix %x: finger %d rows, a walk from the prefix %d", round, p, len(got), len(want))
			}
			if n := c.countPrefixed(&tr, p); n != len(want) {
				t.Fatalf("round %d prefix %x: a counting finger has %d rows, a walk from the prefix %d", round, p, n, len(want))
			}
			for i := range got {
				if !got[i].Same(want[i]) {
					t.Fatalf("round %d prefix %x row %d: finger %v, walk %v", round, p, i, got[i], want[i])
				}
			}
		}
	}
}
