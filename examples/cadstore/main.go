// CADStore: a computer-aided-design domain — the application area of the
// PENGUIN companion paper ("Complex objects for relational databases",
// CAD special issue). Assemblies own components; components reference
// catalog parts; mechanical and electronic parts specialize the part
// catalog through subset connections. An assembly view object gives the
// design tool a complex object to edit while the data stays relational.
//
//	go run ./examples/cadstore
package main

import (
	"errors"
	"fmt"
	"log"

	"penguin"
)

func buildSchema() (*penguin.Database, *penguin.Graph) {
	db := penguin.NewDatabase()
	mustSchema := func(name string, attrs []penguin.Attribute, key []string) {
		s, err := penguin.NewSchema(name, attrs, key)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := db.CreateRelation(s); err != nil {
			log.Fatal(err)
		}
	}
	mustSchema("ASSEMBLY", []penguin.Attribute{
		{Name: "AsmID", Type: penguin.KindString},
		{Name: "Rev", Type: penguin.KindInt, Nullable: true},
		{Name: "Author", Type: penguin.KindString, Nullable: true},
	}, []string{"AsmID"})
	mustSchema("COMPONENT", []penguin.Attribute{
		{Name: "AsmID", Type: penguin.KindString},
		{Name: "Slot", Type: penguin.KindInt},
		{Name: "PartNo", Type: penguin.KindString, Nullable: true},
		{Name: "Qty", Type: penguin.KindInt, Nullable: true},
	}, []string{"AsmID", "Slot"})
	mustSchema("PART", []penguin.Attribute{
		{Name: "PartNo", Type: penguin.KindString},
		{Name: "Desc", Type: penguin.KindString, Nullable: true},
		{Name: "Mass", Type: penguin.KindFloat, Nullable: true},
	}, []string{"PartNo"})
	mustSchema("MECHPART", []penguin.Attribute{
		{Name: "PartNo", Type: penguin.KindString},
		{Name: "Material", Type: penguin.KindString, Nullable: true},
	}, []string{"PartNo"})
	mustSchema("EPART", []penguin.Attribute{
		{Name: "PartNo", Type: penguin.KindString},
		{Name: "Voltage", Type: penguin.KindFloat, Nullable: true},
	}, []string{"PartNo"})

	g := penguin.NewGraph(db)
	for _, c := range []*penguin.Connection{
		{Name: "asm-components", Type: penguin.Ownership,
			From: "ASSEMBLY", To: "COMPONENT", FromAttrs: []string{"AsmID"}, ToAttrs: []string{"AsmID"}},
		{Name: "component-part", Type: penguin.Reference,
			From: "COMPONENT", To: "PART", FromAttrs: []string{"PartNo"}, ToAttrs: []string{"PartNo"}},
		{Name: "part-mech", Type: penguin.Subset,
			From: "PART", To: "MECHPART", FromAttrs: []string{"PartNo"}, ToAttrs: []string{"PartNo"}},
		{Name: "part-elec", Type: penguin.Subset,
			From: "PART", To: "EPART", FromAttrs: []string{"PartNo"}, ToAttrs: []string{"PartNo"}},
	} {
		if err := g.AddConnection(c); err != nil {
			log.Fatal(err)
		}
	}
	return db, g
}

func seed(db *penguin.Database) {
	err := db.RunInTx(func(tx *penguin.Tx) error {
		s, i, f := penguin.String, penguin.Int, penguin.Float
		rows := []struct {
			rel string
			t   penguin.Tuple
		}{
			{"PART", penguin.Tuple{s("P-100"), s("bracket"), f(0.25)}},
			{"PART", penguin.Tuple{s("P-200"), s("controller"), f(0.05)}},
			{"PART", penguin.Tuple{s("P-300"), s("shaft"), f(1.0)}},
			{"MECHPART", penguin.Tuple{s("P-100"), s("aluminum")}},
			{"MECHPART", penguin.Tuple{s("P-300"), s("steel")}},
			{"EPART", penguin.Tuple{s("P-200"), f(5.0)}},
			{"ASSEMBLY", penguin.Tuple{s("GRIPPER"), i(3), s("mel")}},
			{"ASSEMBLY", penguin.Tuple{s("ARM"), i(1), s("sam")}},
			{"COMPONENT", penguin.Tuple{s("GRIPPER"), i(1), s("P-100"), i(2)}},
			{"COMPONENT", penguin.Tuple{s("GRIPPER"), i(2), s("P-200"), i(1)}},
			{"COMPONENT", penguin.Tuple{s("ARM"), i(1), s("P-300"), i(1)}},
			{"COMPONENT", penguin.Tuple{s("ARM"), i(2), s("P-100"), i(4)}},
		}
		for _, r := range rows {
			if err := tx.Insert(r.rel, r.t); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	db, g := buildSchema()
	seed(db)

	// The assembly object: ASSEMBLY owns COMPONENTs which reference
	// catalog PARTs; the island is {ASSEMBLY, COMPONENT}, PART is a
	// referenced relation.
	asm, err := penguin.Define(g, "assembly", "ASSEMBLY", penguin.DefaultMetric(),
		map[string][]string{"COMPONENT": nil, "PART": nil})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(asm.Render())
	topo := penguin.Analyze(asm)
	fmt.Printf("\nisland: %v   referenced: PART (%s)\n\n", topo.Island(), topo.Class["PART"])

	// Assemblies using more than one distinct catalog part.
	insts, err := penguin.QueryOQL(db, asm, `count(PART) >= 2`)
	if err != nil {
		log.Fatal(err)
	}
	for _, inst := range insts {
		fmt.Print(inst.Render())
	}

	u := penguin.NewUpdater(penguin.PermissiveTranslator(asm))

	// A design revision: rename the GRIPPER assembly to GRIPPER-MK2 (an
	// island key replacement) and swap slot 2's controller for a new
	// catalog part — §5.3 rule 2 turns the referenced PART's key change
	// into an insertion, so the catalog gains P-201.
	old, ok, err := penguin.InstantiateByKey(db, asm, penguin.Tuple{penguin.String("GRIPPER")})
	if err != nil || !ok {
		log.Fatal("GRIPPER missing")
	}
	repl := old.Clone()
	must(repl.Root().SetAttr(asm, "AsmID", penguin.String("GRIPPER-MK2")))
	must(repl.Root().SetAttr(asm, "Rev", penguin.Int(4)))
	for _, comp := range repl.Root().Children("COMPONENT") {
		if comp.Row().At(1).MustInt() == 2 {
			must(comp.SetAttr(asm, "PartNo", penguin.String("P-201")))
			part := comp.Children("PART")[0]
			must(part.SetTuple(asm, penguin.Tuple{
				penguin.String("P-201"), penguin.String("controller mk2"), penguin.Float(0.04),
			}))
		}
	}
	res, err := u.ReplaceByKey(old.Key(), repl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndesign revision translated into %d operations:\n%s\n", len(res.Ops), res)
	if db.MustRelation("PART").Has(penguin.Tuple{penguin.String("P-201")}) {
		fmt.Println("\nthe catalog gained P-201 (rule 2: referenced key changes insert)")
	}

	// A restrictive translator for released designs: no new catalog parts.
	frozen := penguin.PermissiveTranslator(asm)
	frozen.Outside["PART"] = penguin.OutsidePolicy{Modifiable: true, AllowModifyExisting: true}
	frozen.RepairInserts = false
	uf := penguin.NewUpdater(frozen)
	old2, _, err := penguin.InstantiateByKey(db, asm, penguin.Tuple{penguin.String("ARM")})
	if err != nil {
		log.Fatal(err)
	}
	repl2 := old2.Clone()
	for _, comp := range repl2.Root().Children("COMPONENT") {
		if comp.Row().At(1).MustInt() == 1 {
			must(comp.SetAttr(asm, "PartNo", penguin.String("P-999")))
			part := comp.Children("PART")[0]
			must(part.SetTuple(asm, penguin.Tuple{
				penguin.String("P-999"), penguin.String("prototype shaft"), penguin.Null(),
			}))
		}
	}
	_, err = uf.ReplaceByKey(old2.Key(), repl2)
	if errors.Is(err, penguin.ErrRejected) {
		fmt.Printf("\nreleased-design translator rejected the unknown part:\n  %v\n", err)
	} else {
		log.Fatal("expected a rejection, got", err)
	}

	integrity := &penguin.Integrity{G: g}
	vs, err := integrity.Audit(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstructural-model violations: %d\n", len(vs))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
