package vupdate_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"penguin/internal/reldb"
	"penguin/internal/structural"
	"penguin/internal/university"
	"penguin/internal/viewobject"
	. "penguin/internal/vupdate"
	"penguin/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the translation golden files under testdata")

// comp is a mutable component tree: an instance taken apart so a
// request can reorder, drop and duplicate components before it is
// rebuilt through NewInstance and AddChild.
type comp struct {
	node  *viewobject.Node
	tuple reldb.Tuple
	kids  [][]*comp // per child position of node
}

func compOf(in *viewobject.InstNode) *comp {
	c := &comp{node: in.Node(), tuple: in.Row().Tuple(), kids: make([][]*comp, len(in.Node().Children))}
	for pos, child := range in.Node().Children {
		for _, k := range in.Children(child.ID) {
			c.kids[pos] = append(c.kids[pos], compOf(k))
		}
	}
	return c
}

func (c *comp) clone() *comp {
	d := &comp{node: c.node, tuple: c.tuple.Clone(), kids: make([][]*comp, len(c.kids))}
	for pos, kids := range c.kids {
		for _, k := range kids {
			d.kids[pos] = append(d.kids[pos], k.clone())
		}
	}
	return d
}

func (c *comp) instance(def *viewobject.Definition) (*viewobject.Instance, error) {
	inst, err := viewobject.NewInstance(def, c.tuple)
	if err != nil {
		return nil, err
	}
	var add func(in *viewobject.InstNode, c *comp) error
	add = func(in *viewobject.InstNode, c *comp) error {
		for pos, kids := range c.kids {
			for _, k := range kids {
				kin, err := in.AddChild(def, c.node.Children[pos].ID, k.tuple)
				if err != nil {
					return err
				}
				if err := add(kin, k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return inst, add(inst.Root(), c)
}

// connect copies, down the tree, each single-connection child's
// connecting attributes from its parent, so a request whose keys moved
// stays connected (step 1's local validation rejects one that is not).
func (c *comp) connect(def *viewobject.Definition) {
	for pos, child := range c.node.Children {
		if len(child.Path) != 1 {
			continue
		}
		e := child.Path[0]
		src, _ := def.NodeSchema(c.node).Indices(e.SourceAttrs())
		tgt, _ := def.NodeSchema(child).Indices(e.TargetAttrs())
		for _, k := range c.kids[pos] {
			for i, j := range tgt {
				k.tuple[j] = c.tuple[src[i]]
			}
			k.connect(def)
		}
	}
}

// opsScript drives a seeded sequence of VO-R, VO-CI and VO-CD requests
// against one database and renders every request with the operations
// it translated to, or its error.
type opsScript struct {
	db    *reldb.Database
	def   *viewobject.Definition
	rng   *rand.Rand
	pools map[string][][]reldb.Value // relation → attribute → values
	fresh int
	// rate is one over the chance that mutate rewrites a component's
	// projected attribute.
	rate int
	// partial mixes PartialInsert, PartialDelete and PartialUpdate
	// requests into the sequence.
	partial bool
	// retune, when set, adjusts the translator before every step (the
	// island merge toggle still applies).
	retune func(step int, tr *Translator)
}

func newOpsScript(db *reldb.Database, def *viewobject.Definition, seed int64) *opsScript {
	sc := &opsScript{db: db, def: def, rng: rand.New(rand.NewSource(seed)), pools: map[string][][]reldb.Value{}, rate: 8}
	rtx := db.BeginRead()
	defer rtx.Close()
	for _, n := range def.Nodes() {
		if sc.pools[n.Relation] != nil {
			continue
		}
		rel := rtx.MustRelation(n.Relation)
		schema := rel.Schema()
		cols := make([][]reldb.Value, schema.Arity())
		seen := make([]map[string]bool, schema.Arity())
		for j := range seen {
			seen[j] = map[string]bool{}
		}
		rel.Scan(func(t reldb.Row) bool {
			for j := 0; j < t.Len(); j++ {
				v := t.At(j)
				if enc := reldb.EncodeValues(v); !seen[j][enc] && len(cols[j]) < 6 {
					seen[j][enc] = true
					cols[j] = append(cols[j], v)
				}
			}
			return true
		})
		sc.pools[n.Relation] = cols
	}
	return sc
}

// value draws a value for attribute j of n's relation: mostly one the
// column already holds (so keys collide and references resolve), now
// and then a fresh one.
func (sc *opsScript) value(n *viewobject.Node, j int) reldb.Value {
	schema := sc.def.NodeSchema(n)
	pool := sc.pools[n.Relation][j]
	if len(pool) > 0 && sc.rng.Intn(4) != 0 {
		return pool[sc.rng.Intn(len(pool))]
	}
	return sc.freshValue(schema, j)
}

// freshValue draws a value of attribute j's kind from outside the
// seeded data (a small cycle, so fresh values collide with each other).
func (sc *opsScript) freshValue(schema *reldb.Schema, j int) reldb.Value {
	a := schema.Attr(j)
	if a.Nullable && !schema.IsKeyAttr(j) && sc.rng.Intn(3) == 0 {
		return reldb.Null()
	}
	sc.fresh++
	switch a.Type {
	case reldb.KindInt:
		return reldb.Int(int64(900 + sc.fresh%7))
	case reldb.KindFloat:
		return reldb.Float(float64(sc.fresh%5) + 0.5)
	case reldb.KindBool:
		return reldb.Bool(sc.fresh%2 == 0)
	default:
		return reldb.String(fmt.Sprintf("z%d", sc.fresh%7))
	}
}

// mutate edits a request tree in place: projected attributes (keys
// included) rewritten, child lists shuffled, shortened and lengthened.
func (sc *opsScript) mutate(c *comp) {
	schema := sc.def.NodeSchema(c.node)
	proj, _ := schema.Indices(c.node.Attrs)
	if sc.rng.Intn(sc.rate) == 0 {
		j := proj[sc.rng.Intn(len(proj))]
		if !schema.IsKeyAttr(j) || sc.rng.Intn(3) == 0 {
			c.tuple[j] = sc.value(c.node, j)
		}
	}
	for pos, kids := range c.kids {
		switch r := sc.rng.Intn(16); {
		case r == 0 && len(kids) > 1:
			sc.rng.Shuffle(len(kids), func(a, b int) { kids[a], kids[b] = kids[b], kids[a] })
		case r == 1 && len(kids) > 0:
			i := sc.rng.Intn(len(kids))
			c.kids[pos] = append(kids[:i:i], kids[i+1:]...)
		case r == 2 && len(kids) > 0:
			d := kids[sc.rng.Intn(len(kids))].clone()
			key := sc.def.NodeSchema(d.node).Key()
			j := key[sc.rng.Intn(len(key))]
			d.tuple[j] = sc.value(d.node, j)
			c.kids[pos] = append(kids, d)
		}
		for _, k := range c.kids[pos] {
			sc.mutate(k)
		}
	}
}

// keys lists the pivot keys present, in key order.
func (sc *opsScript) keys() []reldb.Tuple {
	rtx := sc.db.BeginRead()
	defer rtx.Close()
	rel := rtx.MustRelation(sc.def.Pivot())
	schema := rel.Schema()
	var keys []reldb.Tuple
	rel.Scan(func(t reldb.Row) bool {
		keys = append(keys, t.Key(schema))
		return true
	})
	sort.Slice(keys, func(a, b int) bool { return keys[a].Encode() < keys[b].Encode() })
	return keys
}

// run plays steps requests through u, numbered from first, and returns
// the transcript.
func (sc *opsScript) run(t *testing.T, u *Updater, first, steps int) string {
	t.Helper()
	var b strings.Builder
	record := func(step int, what string, res *Result, err error) {
		fmt.Fprintf(&b, "%d %s\n", step, what)
		if err != nil {
			fmt.Fprintf(&b, "  error: %v\n", err)
			return
		}
		for _, op := range res.Ops {
			fmt.Fprintf(&b, "  %s\n", op)
		}
	}
	pivotSchema := sc.def.NodeSchema(sc.def.Root())
	for step := first; step < first+steps; step++ {
		if step%40 == 20 {
			flipMerge(u.T)
		}
		if sc.retune != nil {
			sc.retune(step, u.T)
		}
		keys := sc.keys()
		if len(keys) == 0 {
			t.Fatalf("step %d: every instance is gone", step)
		}
		key := keys[sc.rng.Intn(len(keys))]
		old, ok, err := viewobject.InstantiateByKey(sc.db, sc.def, key)
		if err != nil || !ok {
			t.Fatalf("step %d: instantiate %s: %v %v", step, key, ok, err)
		}
		if sc.partial && sc.rng.Intn(2) == 0 {
			what, res, err := sc.partialStep(u, old)
			record(step, what, res, err)
			sc.audit(t, step)
			continue
		}
		r := sc.rng.Intn(10)
		if r >= 8 && len(keys) <= 3 {
			r = 6 // keep a few instances to replace: insert instead
		}
		switch {
		case r < 6: // VO-R
			c := compOf(old.Root())
			sc.mutate(c)
			if sc.rng.Intn(5) != 0 {
				c.connect(sc.def)
			}
			repl, err := c.instance(sc.def)
			if err != nil {
				record(step, fmt.Sprintf("replace %s: build", key), nil, err)
				continue
			}
			res, err := u.ReplaceInstance(old, repl)
			record(step, fmt.Sprintf("replace %s", key), res, err)
		case r < 8: // VO-CI of a re-keyed copy
			c := compOf(old.Root())
			sc.mutate(c)
			for _, j := range pivotSchema.Key() {
				c.tuple[j] = sc.freshValue(pivotSchema, j)
			}
			c.connect(sc.def)
			ins, err := c.instance(sc.def)
			if err != nil {
				record(step, "insert: build", nil, err)
				continue
			}
			res, err := u.InsertInstance(ins)
			record(step, fmt.Sprintf("insert %s", ins.Key()), res, err)
		default: // VO-CD, now and then of a key that is not there
			if sc.rng.Intn(4) == 0 {
				key = key.Clone()
				j := pivotSchema.Key()[0]
				key[0] = sc.value(sc.def.Root(), j)
			}
			res, err := u.DeleteByKey(key)
			record(step, fmt.Sprintf("delete %s", key), res, err)
		}
		sc.audit(t, step)
	}
	return b.String()
}

// flipMerge toggles every island node's merge answer: a run flips it
// every 40 steps, so half the run lets an island key change adopt an
// existing tuple (the third island dialog question).
func flipMerge(tr *Translator) {
	for id, p := range tr.Island {
		p.AllowMergeWithExisting = !p.AllowMergeWithExisting
		tr.Island[id] = p
	}
}

// audit fails the test when the database breaks the structural model.
func (sc *opsScript) audit(t *testing.T, step int) {
	t.Helper()
	vs, err := (&structural.Integrity{G: sc.def.Graph()}).Audit(sc.db)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 0 {
		t.Fatalf("step %d left violations:\n%s", step, structural.FormatViolations(vs))
	}
}

// partialStep plays one partial request on a component of old: a node
// is drawn, then one of its components, whose tuple (with one projected
// attribute, a key one half the time, redrawn) is inserted as a sibling, deleted by key, or
// written over the original.
func (sc *opsScript) partialStep(u *Updater, old *viewobject.Instance) (string, *Result, error) {
	nodes := sc.def.Nodes()
	n := nodes[sc.rng.Intn(len(nodes))]
	comps := old.NodesAt(n.ID)
	kind := sc.rng.Intn(3)
	if len(comps) == 0 {
		return fmt.Sprintf("partial %s %s: no component", old.Key(), n.ID), &Result{}, nil
	}
	ot := comps[sc.rng.Intn(len(comps))].Row().Tuple()
	nt := ot.Clone()
	schema := sc.def.NodeSchema(n)
	attrs := schema.Key() // half the time a key attribute
	if sc.rng.Intn(2) == 0 {
		attrs, _ = schema.Indices(n.Attrs)
	}
	j := attrs[sc.rng.Intn(len(attrs))]
	nt[j] = sc.value(n, j)
	switch kind {
	case 0:
		res, err := u.PartialInsert(old.Key(), n.ID, nt)
		return fmt.Sprintf("partial-insert %s %s %s", old.Key(), n.ID, nt), res, err
	case 1:
		key := schema.KeyOf(ot)
		res, err := u.PartialDelete(old.Key(), n.ID, key)
		return fmt.Sprintf("partial-delete %s %s %s", old.Key(), n.ID, key), res, err
	default:
		res, err := u.PartialUpdate(old.Key(), n.ID, ot, nt)
		return fmt.Sprintf("partial-update %s %s %s -> %s", old.Key(), n.ID, ot, nt), res, err
	}
}

// mixedOmegaTranslator is ω's permissive translator with every policy
// question answered both ways over a run, so its rejections reach each
// gate but one (CURRICULUM, ω's only peninsula, is all key, so no
// peninsula tuple has a non-key attribute to modify): the island merge question YES for GRADES and NO for COURSES
// (the run flips both every 40 steps), and on a rotation of 30 steps
// the referenced DEPARTMENT takes no insertions or modifications, the
// outside STUDENT no modifications, the peninsula CURRICULUM no
// modifications (so an island key change cannot rewrite its foreign
// key) and global repair no insertions outside the object.
func mixedOmegaTranslator(def *viewobject.Definition) (*Translator, func(step int, tr *Translator)) {
	tr := PermissiveTranslator(def)
	grades := tr.Island[university.Grades]
	grades.AllowMergeWithExisting = true
	tr.Island[university.Grades] = grades
	retune := func(step int, tr *Translator) {
		on := func(phase int) bool { return (step/10)%3 != phase }
		tr.Outside[university.Department] = OutsidePolicy{Modifiable: true, AllowInsert: on(0), AllowModifyExisting: on(1)}
		tr.Outside[university.Student] = OutsidePolicy{Modifiable: on(2), AllowInsert: true, AllowModifyExisting: true}
		tr.Outside[university.Curriculum] = OutsidePolicy{Modifiable: true, AllowInsert: true, AllowModifyExisting: on(0)}
		tr.RepairInserts = on(1)
	}
	return tr, retune
}

// mixedChains plays the mixed ω script as chains independent runs of
// chainLen steps, each on a freshly seeded database under a fresh
// translator, so a changed outcome rewrites at most the rest of its own
// chain. Step numbers run on from chain to chain and set the policy
// answers, so chain c plays steps c·chainLen onwards under the answers
// those steps have in one long run.
func mixedChains(t *testing.T, seed int64, chains, chainLen int) string {
	var b strings.Builder
	for c := 0; c < chains; c++ {
		db, g := university.MustNewSeeded()
		def := university.MustOmega(g)
		sc := newOpsScript(db, def, seed*100+int64(c))
		tr, retune := mixedOmegaTranslator(def)
		sc.retune, sc.partial, sc.rate = retune, true, 3
		first := c * chainLen
		for step := 0; step < first; step++ {
			if step%40 == 20 {
				flipMerge(tr)
			}
		}
		fmt.Fprintf(&b, "chain %d\n", c)
		b.WriteString(sc.run(t, NewUpdater(tr), first, chainLen))
	}
	return b.String()
}

// TestTranslationOpsGolden pins what VO-R, VO-CI and VO-CD translate
// to — every emitted operation in order, and every rejection's text —
// over a seeded request sequence on the benchmark tree and on ω, and
// over chains of ω requests that add partial requests under the mixed
// translator. The tree and ω goldens were written by the map-based
// translator, the mixed one by the translator that still spelled out
// VO-R's I-cases beside VO-CI's; rewrite them with -update only for a
// change that means to translate differently.
func TestTranslationOpsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		play func(t *testing.T) string
	}{
		{"tree", func(t *testing.T) string {
			w, err := workload.BuildTree(workload.TreeSpec{Depth: 2, Width: 2, Fanout: 3, Peninsulas: 1, Roots: 6})
			if err != nil {
				t.Fatal(err)
			}
			return newOpsScript(w.DB, w.Def, 35).run(t, NewUpdater(PermissiveTranslator(w.Def)), 0, 160)
		}},
		{"omega", func(t *testing.T) string {
			db, g := university.MustNewSeeded()
			def := university.MustOmega(g)
			return newOpsScript(db, def, 35).run(t, NewUpdater(PermissiveTranslator(def)), 0, 160)
		}},
		// A seed whose rejections reach every policy gate ω can reach
		// (see mixedOmegaTranslator).
		{"omega_mixed", func(t *testing.T) string { return mixedChains(t, 29, 30, 10) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.play(t)
			path := filepath.Join("testdata", "ops_"+tc.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Fatalf("%s: first difference at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
			}
		})
	}
}
