package obs

import (
	"bytes"
	"strings"
	"testing"
)

// runtimeGaugeNames lists every runtime gauge a snapshot carries.
var runtimeGaugeNames = []string{
	GaugeGoroutines, GaugeHeapInuse, GaugeGCPauseTotal, GaugeGCCycles,
}

func TestSnapshotCarriesRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	s := r.Snapshot()
	for _, name := range runtimeGaugeNames {
		if _, ok := s.Gauges[name]; !ok {
			t.Errorf("snapshot missing gauge %s", name)
		}
	}
	if s.Gauges[GaugeGoroutines] < 1 {
		t.Errorf("goroutines = %d, want >= 1", s.Gauges[GaugeGoroutines])
	}
	if s.Gauges[GaugeHeapInuse] <= 0 {
		t.Errorf("heap in use = %d, want > 0", s.Gauges[GaugeHeapInuse])
	}
}

func TestSnapshotSubKeepsGaugeLevels(t *testing.T) {
	r := NewRegistry()
	older := r.Snapshot()
	newer := r.Snapshot()
	d := newer.Sub(older)
	// Gauges are levels, not counts: Sub must carry the newer snapshot's
	// values unchanged rather than subtracting.
	for _, name := range runtimeGaugeNames {
		if got, want := d.Gauges[name], newer.Gauges[name]; got != want {
			t.Errorf("Sub gauge %s = %d, want the newer level %d", name, got, want)
		}
	}
}

func TestRuntimeGaugesInTextAndProm(t *testing.T) {
	r := NewRegistry()
	s := r.Snapshot()

	var text bytes.Buffer
	if err := WriteText(&text, s); err != nil {
		t.Fatal(err)
	}
	for _, name := range runtimeGaugeNames {
		if !strings.Contains(text.String(), name+" ") {
			t.Errorf("WriteText missing %s:\n%s", name, text.String())
		}
	}

	var prom bytes.Buffer
	if err := WriteProm(&prom, s); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE runtime_goroutines gauge",
		"# TYPE runtime_heap_inuse_bytes gauge",
		"# TYPE runtime_gc_pause_total_ns gauge",
		"# TYPE runtime_gc_cycles gauge",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("WriteProm missing %q", want)
		}
	}
	if err := CheckExposition(prom.String()); err != nil {
		t.Errorf("exposition with runtime gauges fails lint: %v", err)
	}
}
