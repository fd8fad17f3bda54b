package reldb

import "testing"

func TestTupleClone(t *testing.T) {
	tup := Tuple{Int(1), String("a")}
	c := tup.Clone()
	c[0] = Int(2)
	if tup[0].MustInt() != 1 {
		t.Fatal("Clone aliases the original")
	}
	if Tuple(nil).Clone() != nil {
		t.Fatal("Clone of nil should be nil")
	}
}

func TestTupleEqual(t *testing.T) {
	a := Tuple{Int(1), String("x"), Null()}
	b := Tuple{Int(1), String("x"), Null()}
	if !a.Equal(b) {
		t.Fatal("equal tuples reported unequal")
	}
	if a.Equal(Tuple{Int(1), String("x")}) {
		t.Fatal("different arity reported equal")
	}
	if a.Equal(Tuple{Int(1), String("y"), Null()}) {
		t.Fatal("different values reported equal")
	}
}

func TestTupleProjectWithConcat(t *testing.T) {
	tup := Tuple{Int(1), String("a"), Bool(true)}
	p := tup.Project([]int{2, 0})
	if !p.Equal(Tuple{Bool(true), Int(1)}) {
		t.Fatalf("Project = %v", p)
	}
	c := Tuple{Int(1)}.Concat(Tuple{Int(2), Int(3)})
	if !c.Equal(Tuple{Int(1), Int(2), Int(3)}) {
		t.Fatalf("Concat = %v", c)
	}
}

func TestTupleString(t *testing.T) {
	got := Tuple{Int(1), String("a"), Null()}.String()
	if got != "(1, a, NULL)" {
		t.Fatalf("String = %q", got)
	}
}
