package obs

import (
	"fmt"
	"reflect"
	"testing"
)

// Every family the registry stores labeled reports an aggregate under
// the same snapshot name, derived at capture as the sum over its label
// slots. One table covers every derived name; each row drives more
// distinct label values than its dimension holds, so the overflow slot
// (`other`) is proven to be part of the sum.
func TestDerivedAggregates(t *testing.T) {
	type family struct {
		name string
		set  func(*Registry) *LabelSet
		ctr  func(*Registry) *CounterVec   // exactly one of ctr / hist
		hist func(*Registry) *HistogramVec // is set
	}
	objects := func(r *Registry) *LabelSet { return r.Objects }
	endpoints := func(r *Registry) *LabelSet { return r.Endpoints }
	shards := func(r *Registry) *LabelSet { return r.Shards }
	table := []family{
		{name: "reldb.wal.appends", set: shards, ctr: func(r *Registry) *CounterVec { return r.WALAppendsByShard }},
		{name: "reldb.wal.bytes", set: shards, ctr: func(r *Registry) *CounterVec { return r.WALBytesByShard }},
		{name: "reldb.wal.fsyncs", set: shards, ctr: func(r *Registry) *CounterVec { return r.WALFsyncsByShard }},
		{name: "reldb.wal.checkpoints", set: shards, ctr: func(r *Registry) *CounterVec { return r.WALCheckpointsByShard }},
		{name: "viewobject.instantiate.calls", set: objects, ctr: func(r *Registry) *CounterVec { return r.InstCallsByObject }},
		{name: "viewobject.instantiate.tuples_scanned", set: objects, ctr: func(r *Registry) *CounterVec { return r.InstTuplesByObject }},
		{name: "viewobject.instantiate.nodes", set: objects, ctr: func(r *Registry) *CounterVec { return r.InstNodesByObject }},
		{name: "viewobject.instantiate.ns", set: objects, hist: func(r *Registry) *HistogramVec { return r.InstantiateNsByObject }},
		{name: "vupdate.updates.committed", set: objects, ctr: func(r *Registry) *CounterVec { return r.CommittedByObject }},
		{name: "vupdate.updates.rejected", set: objects, ctr: func(r *Registry) *CounterVec { return r.RejectedByObject }},
		{name: "penguin.http.requests", set: endpoints, ctr: func(r *Registry) *CounterVec { return r.HTTPRequestsByEndpoint }},
		{name: "penguin.http.shed", set: endpoints, ctr: func(r *Registry) *CounterVec { return r.HTTPShedByEndpoint }},
		{name: "penguin.http.ns", set: endpoints, hist: func(r *Registry) *HistogramVec { return r.HTTPNsByEndpoint }},
	}
	for i := Step(0); i < NumSteps; i++ {
		table = append(table, family{name: "vupdate.step." + stepNames[i] + "_ns", set: objects,
			hist: func(r *Registry) *HistogramVec { return r.StepNsByObject[i] }})
	}
	for i := 0; i < NumOpKinds; i++ {
		table = append(table, family{name: "vupdate.ops." + opNames[i], set: objects,
			ctr: func(r *Registry) *CounterVec { return r.OpsByObject[i] }})
	}
	for i := 0; i < NumRejectReasons; i++ {
		table = append(table, family{name: "vupdate.reject." + rejectReasonNames[i], set: objects,
			ctr: func(r *Registry) *CounterVec { return r.RejectsByObject[i] }})
	}
	for i := 0; i < NumStatusClasses; i++ {
		table = append(table, family{name: "penguin.http.status." + statusClassNames[i], set: endpoints,
			ctr: func(r *Registry) *CounterVec { return r.HTTPStatusByEndpoint[i] }})
	}

	const overflow = 5 // label values past the dimension's capacity
	for _, f := range table {
		t.Run(f.name, func(t *testing.T) {
			r := NewRegistry()
			set := f.set(r)
			var want, wantOther int64
			for i := 0; i < set.Slots()-1+overflow; i++ {
				slot := set.Intern(fmt.Sprintf("v%d", i))
				n := int64(i + 1)
				if f.ctr != nil {
					f.ctr(r).At(slot).Add(n)
				} else {
					f.hist(r).At(slot).Observe(n)
				}
				want += n
				if slot == set.Slots()-1 { // the overflow slot
					wantOther += n
				}
			}
			s := r.Snapshot()
			var got, sum, other int64
			if f.ctr != nil {
				got = s.Counter(f.name)
				for _, n := range s.LabeledCounters[f.name].Values {
					sum += n
				}
				other = s.LabeledCounters[f.name].Values[OtherLabel]
			} else {
				agg := s.Histogram(f.name)
				if agg.Count != int64(set.Slots()-1+overflow) {
					t.Errorf("aggregate count = %d, want %d", agg.Count, set.Slots()-1+overflow)
				}
				var buckets int64
				for _, n := range agg.Buckets {
					buckets += n
				}
				if buckets != agg.Count {
					t.Errorf("aggregate Σbuckets = %d, count = %d", buckets, agg.Count)
				}
				got = agg.Sum
				for _, st := range s.LabeledHistograms[f.name].Values {
					sum += st.Sum
				}
				other = s.LabeledHistograms[f.name].Values[OtherLabel].Sum
			}
			if got != want {
				t.Errorf("aggregate = %d, want %d", got, want)
			}
			if sum != got {
				t.Errorf("Σ labels = %d, aggregate = %d", sum, got)
			}
			if other != wantOther || other == 0 {
				t.Errorf("%s slot = %d, want %d (nonzero)", OtherLabel, other, wantOther)
			}
		})
	}

	// The table is complete: every labeled family the Registry declares
	// is a row, except the three per-relation lookup-cost families,
	// which are captured labeled only.
	vecs := 0
	rt := reflect.TypeOf((*Registry)(nil)).Elem()
	for i := 0; i < rt.NumField(); i++ {
		ft, n := rt.Field(i).Type, 1
		if ft.Kind() == reflect.Array {
			ft, n = ft.Elem(), ft.Len()
		}
		if ft == reflect.TypeOf((*CounterVec)(nil)) || ft == reflect.TypeOf((*HistogramVec)(nil)) {
			vecs += n
		}
	}
	if vecs-3 != len(table) {
		t.Errorf("Registry declares %d labeled families (3 per-relation), the table covers %d", vecs, len(table))
	}
	s := NewRegistry().Snapshot()
	for _, name := range []string{"reldb.relation.scanned", "reldb.relation.probes", "reldb.relation.scans"} {
		if _, ok := s.Counters[name]; ok {
			t.Errorf("%s gained an aggregate nobody reads", name)
		}
	}
}
