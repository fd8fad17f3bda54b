package obs

import "sync"

// Bounded-cardinality labels. A LabelSet interns the values of one label
// dimension (view-object names, relation names) into a small fixed-
// capacity slot table. Interning happens at registration time — when a
// schema or view-object definition is built — so the metric hot paths
// work with plain integer slots: a labeled increment is an array index
// plus an atomic add, allocation-free and lock-free. Cardinality is
// bounded by construction: once the table is full, every new value
// collapses into the shared overflow slot named OtherLabel, so a labeled
// family can never emit more than Capacity+1 series however many
// distinct names a workload produces.

// OtherLabel names the overflow slot that absorbs every value interned
// after a LabelSet's capacity is exhausted.
const OtherLabel = "other"

// LabelSet is one bounded label dimension. The zero value is not usable;
// construct with NewLabelSet.
type LabelSet struct {
	key string
	cap int

	mu    sync.RWMutex
	slots map[string]int
	names []string // slot → value, insertion order; the overflow slot is implicit
}

// NewLabelSet creates a label dimension with the given label key (the
// Prometheus label name, e.g. "object") and capacity for distinct
// values. Capacity must be at least 1.
func NewLabelSet(key string, capacity int) *LabelSet {
	if capacity < 1 {
		panic("obs: label set capacity must be >= 1")
	}
	return &LabelSet{
		key:   key,
		cap:   capacity,
		slots: make(map[string]int, capacity),
	}
}

// Key returns the label key the set renders under (e.g. "object").
func (ls *LabelSet) Key() string { return ls.key }

// Slots returns the number of metric slots a vec over this set holds:
// Capacity interned values plus the overflow slot.
func (ls *LabelSet) Slots() int { return ls.cap + 1 }

// Len returns the number of values interned so far (overflow excluded).
func (ls *LabelSet) Len() int {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return len(ls.names)
}

// Intern registers name and returns its slot. Registering an already-
// interned name returns its existing slot; once the table is full, new
// names return the overflow slot. Call at registration time (schema or
// view-definition construction), not on metric hot paths.
func (ls *LabelSet) Intern(name string) int {
	ls.mu.RLock()
	s, ok := ls.slots[name]
	ls.mu.RUnlock()
	if ok {
		return s
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if s, ok := ls.slots[name]; ok {
		return s
	}
	if len(ls.names) == ls.cap {
		return ls.cap // overflow
	}
	s = len(ls.names)
	ls.slots[name] = s
	ls.names = append(ls.names, name)
	return s
}

// Lookup returns the slot of an interned name, or the overflow slot for
// a name never interned. It takes only a read lock and allocates
// nothing, so hot paths that cannot carry a pre-resolved slot may use it.
func (ls *LabelSet) Lookup(name string) int {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if s, ok := ls.slots[name]; ok {
		return s
	}
	return ls.cap
}

// Name returns the value a slot renders as (OtherLabel for the overflow
// slot and for out-of-range slots).
func (ls *LabelSet) Name(slot int) string {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	if slot >= 0 && slot < len(ls.names) {
		return ls.names[slot]
	}
	return OtherLabel
}

// Names returns the interned values in slot order (overflow excluded).
func (ls *LabelSet) Names() []string {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return append([]string(nil), ls.names...)
}

// clampSlot maps out-of-range slots into the overflow slot so a stale or
// corrupted slot value can never index outside a vec.
func (ls *LabelSet) clampSlot(slot int) int {
	if slot < 0 || slot > ls.cap {
		return ls.cap
	}
	return slot
}

// CounterVec is a counter family split by one LabelSet: one Counter per
// slot, fully allocated at construction so access never allocates.
type CounterVec struct {
	set  *LabelSet
	ctrs []Counter
}

// NewCounterVec creates a counter family over the label set.
func NewCounterVec(set *LabelSet) *CounterVec {
	return &CounterVec{set: set, ctrs: make([]Counter, set.Slots())}
}

// Set returns the family's label dimension.
func (v *CounterVec) Set() *LabelSet { return v.set }

// At returns the counter at a slot previously obtained from Intern or
// Lookup. Out-of-range slots resolve to the overflow counter.
func (v *CounterVec) At(slot int) *Counter { return &v.ctrs[v.set.clampSlot(slot)] }

// With returns the counter for a label value (the overflow counter for
// values never interned). Allocation-free; pre-resolve the slot with
// Intern where a call site runs hot.
func (v *CounterVec) With(name string) *Counter { return v.At(v.set.Lookup(name)) }

// StatByLabel snapshots the family as label value → count, omitting
// zero-valued slots.
func (v *CounterVec) StatByLabel() map[string]int64 {
	out := make(map[string]int64)
	for i := range v.ctrs {
		if n := v.ctrs[i].Load(); n != 0 {
			out[v.set.Name(i)] = n
		}
	}
	return out
}

// HistogramVec is a histogram family split by one LabelSet, sharing one
// bucket layout across every slot.
type HistogramVec struct {
	set   *LabelSet
	hists []Histogram
}

// NewHistogramVec creates a histogram family over the label set with the
// given bucket bounds.
func NewHistogramVec(set *LabelSet, bounds []int64) *HistogramVec {
	v := &HistogramVec{set: set, hists: make([]Histogram, set.Slots())}
	for i := range v.hists {
		v.hists[i].init(bounds)
	}
	return v
}

// Set returns the family's label dimension.
func (v *HistogramVec) Set() *LabelSet { return v.set }

// At returns the histogram at a slot previously obtained from Intern or
// Lookup. Out-of-range slots resolve to the overflow histogram.
func (v *HistogramVec) At(slot int) *Histogram { return &v.hists[v.set.clampSlot(slot)] }

// With returns the histogram for a label value (the overflow histogram
// for values never interned).
func (v *HistogramVec) With(name string) *Histogram { return v.At(v.set.Lookup(name)) }

// StatByLabel snapshots the family as label value → stat, omitting
// slots that never observed.
func (v *HistogramVec) StatByLabel() map[string]HistogramStat {
	out := make(map[string]HistogramStat)
	for i := range v.hists {
		st := v.hists[i].Stat()
		if st.Count == 0 && st.Sum == 0 {
			continue
		}
		out[v.set.Name(i)] = st
	}
	return out
}

// bounds returns the bucket layout every slot shares.
func (v *HistogramVec) bounds() []int64 { return v.hists[0].bounds }

// sumStats adds the stats of one family, all over the same bounds.
func sumStats(bounds []int64, vals map[string]HistogramStat) HistogramStat {
	sum := HistogramStat{Bounds: bounds, Buckets: make([]int64, len(bounds)+1)}
	for _, st := range vals {
		sum.Count += st.Count
		sum.Sum += st.Sum
		for i, n := range st.Buckets {
			sum.Buckets[i] += n
		}
	}
	return sum
}
