package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestLabelSetInternLookupOverflow(t *testing.T) {
	ls := NewLabelSet("object", 2)
	if got := ls.Intern("a"); got != 0 {
		t.Fatalf("Intern(a) = %d, want 0", got)
	}
	if got := ls.Intern("b"); got != 1 {
		t.Fatalf("Intern(b) = %d, want 1", got)
	}
	if got := ls.Intern("a"); got != 0 {
		t.Fatalf("re-Intern(a) = %d, want 0", got)
	}
	// Table full: every new value collapses into the overflow slot.
	if got := ls.Intern("c"); got != ls.Slots()-1 {
		t.Fatalf("Intern(c) = %d, want overflow %d", got, ls.Slots()-1)
	}
	if got := ls.Intern("d"); got != ls.Slots()-1 {
		t.Fatalf("Intern(d) = %d, want overflow %d", got, ls.Slots()-1)
	}
	if got := ls.Lookup("never-interned"); got != ls.Slots()-1 {
		t.Fatalf("Lookup(unknown) = %d, want overflow", got)
	}
	if ls.Len() != 2 || ls.Slots() != 3 {
		t.Fatalf("Len=%d Slots=%d, want 2/3", ls.Len(), ls.Slots())
	}
	if ls.Name(0) != "a" || ls.Name(ls.Slots()-1) != OtherLabel || ls.Name(99) != OtherLabel {
		t.Fatalf("Name mapping wrong: %q %q %q", ls.Name(0), ls.Name(ls.Slots()-1), ls.Name(99))
	}
	if names := ls.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names() = %v", names)
	}
}

// However many distinct label values a workload produces, a labeled
// family emits at most capacity+1 series: the overflow slot absorbs the
// excess without losing any counts.
func TestLabelCardinalityBounded(t *testing.T) {
	const capacity, distinct = 4, 20
	ls := NewLabelSet("relation", capacity)
	vec := NewCounterVec(ls)
	for i := 0; i < distinct; i++ {
		vec.At(ls.Intern(fmt.Sprintf("REL_%d", i))).Inc()
	}
	stats := vec.StatByLabel()
	if len(stats) > capacity+1 {
		t.Fatalf("family emits %d series, want <= %d", len(stats), capacity+1)
	}
	var total int64
	for _, n := range stats {
		total += n
	}
	if total != distinct {
		t.Fatalf("Σ series = %d, want %d (overflow must not drop counts)", total, distinct)
	}
	if stats[OtherLabel] != distinct-capacity {
		t.Fatalf("overflow slot = %d, want %d", stats[OtherLabel], distinct-capacity)
	}
}

func TestCounterVecSlotClamping(t *testing.T) {
	ls := NewLabelSet("object", 2)
	vec := NewCounterVec(ls)
	vec.At(-5).Inc()
	vec.At(999).Inc()
	if got := vec.At(ls.Slots() - 1).Load(); got != 2 {
		t.Fatalf("out-of-range slots should land in overflow; got %d", got)
	}
}

func TestHistogramVec(t *testing.T) {
	ls := NewLabelSet("object", 4)
	vec := NewHistogramVec(ls, DurationBounds)
	a := ls.Intern("alpha")
	vec.At(a).Observe(500)
	vec.At(a).Observe(5_000)
	vec.With("never-interned").Observe(42)
	stats := vec.StatByLabel()
	if st := stats["alpha"]; st.Count != 2 || st.Sum != 5_500 {
		t.Fatalf("alpha stat = %+v", st)
	}
	if st := stats[OtherLabel]; st.Count != 1 || st.Sum != 42 {
		t.Fatalf("overflow stat = %+v", st)
	}
	if len(stats) != 2 {
		t.Fatalf("StatByLabel = %v, silent slots must be omitted", stats)
	}
}

// Labeled hot-path access allocates nothing: slot-indexed increments are
// an array index plus an atomic op, and even the name-resolving With
// path is only a read lock plus a map probe.
func TestLabeledAccessAllocationFree(t *testing.T) {
	ls := NewLabelSet("object", 4)
	cv := NewCounterVec(ls)
	hv := NewHistogramVec(ls, DurationBounds)
	slot := ls.Intern("hot")
	allocs := testing.AllocsPerRun(1000, func() {
		cv.At(slot).Inc()
		cv.With("hot").Inc()
		cv.With("never-interned").Inc()
		hv.At(slot).Observe(12345)
		hv.With("hot").Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("labeled access allocated %.1f/op, want 0", allocs)
	}
}

// The registry's labeled families surface in snapshots under the same
// names as their aggregates, and deltas subtract label-wise.
func TestSnapshotLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	slot := r.Objects.Intern("ω")
	before := r.Snapshot()
	r.CommittedByObject.At(slot).Inc()
	r.CommittedByObject.At(slot).Inc()
	r.StepNsByObject[0].At(slot).Observe(777)
	delta := r.Snapshot().Sub(before)
	if got := delta.LabeledCounters["vupdate.updates.committed"].Values["ω"]; got != 2 {
		t.Fatalf("labeled committed delta = %d, want 2", got)
	}
	st := delta.LabeledHistograms["vupdate.step."+stepNames[0]+"_ns"].Values["ω"]
	if st.Count != 1 || st.Sum != 777 {
		t.Fatalf("labeled step delta = %+v", st)
	}

	var b strings.Builder
	if err := WriteText(&b, delta); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "vupdate.updates.committed{object=ω} 2") {
		t.Fatalf("WriteText missing labeled line:\n%s", b.String())
	}
}
