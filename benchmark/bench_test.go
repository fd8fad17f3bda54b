package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The test binary doubles as the serving child, exactly as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if cfg, ok := os.LookupEnv(serveEnv); ok {
		os.Exit(serveMain(cfg))
	}
	os.Exit(m.Run())
}

func testContract(t *testing.T) *contract {
	t.Helper()
	c, err := readContract(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractFile pins what the driver refuses a BENCHMARK.json for,
// and that the file and the workload table name the same workloads.
func TestContractFile(t *testing.T) {
	c := testContract(t)
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range c.Workloads {
		unique(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range c.PerLayer {
		unique(m.Name)
	}
}

// miniature shrinks a workload to a smoke test: the same mix and rates,
// a dataset just large enough for a 96-pivot range query.
func miniature(def workloadDef) workloadDef {
	def.data.Roots = 200
	return def
}

var miniLedger = ledgerConfig{
	largeRoots: 200, smallRoots: 100,
	reads: 40, queries: 3, replaces: 8, churns: 2, commits: 8,
}

// TestSmoke runs every workload and the ledger end to end, small, and
// checks that each run is correct and prints exactly the metrics
// BENCHMARK.json names, each finite.
func TestSmoke(t *testing.T) {
	c := testContract(t)
	finite := func(t *testing.T, ms map[string]metric) {
		t.Helper()
		for name, m := range ms {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s = %v", name, m.Value)
			}
		}
	}
	tailRE := regexp.MustCompile(`_p(\d+)_ms$`)
	details := make([]map[string]metric, len(workloads))
	t.Run("workloads", func(t *testing.T) {
		for i, def := range workloads {
			t.Run(def.name, func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(miniature(def), 7, 1, 1, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("run is not correct: %v", res.Failures)
				}
				got, err := selectMetrics(c.EndToEnd, res.EndToEnd)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(res.EndToEnd) {
					t.Errorf("run measured %d end-to-end metrics, BENCHMARK.json names %d", len(res.EndToEnd), len(got))
				}
				finite(t, res.EndToEnd)
				finite(t, res.Detail)
				for name, m := range got {
					if m.Value <= 0 {
						t.Errorf("%s = %v; an end-to-end metric must never be 0", name, m.Value)
					}
				}
				// A reported latency percentile above the median has at
				// least minBeyond samples beyond it. (The generator's own
				// lateness is a p99 by name; the rule holds for it at full
				// length, not at this one.)
				for name, m := range res.Detail {
					if sub := tailRE.FindStringSubmatch(name); sub != nil && sub[1] != "50" && !strings.HasPrefix(name, "loadgen.") {
						p, _ := strconv.ParseFloat(sub[1], 64)
						if beyond := float64(m.N) * (100 - p) / 100; beyond < minBeyond {
							t.Errorf("%s has n=%d: %.1f samples beyond it, want %d", name, m.N, beyond, minBeyond)
						}
					}
				}
				details[i] = res.Detail
			})
		}
	})
	if t.Failed() {
		return
	}
	led, err := runLedger(miniLedger, 7, t.TempDir(), filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	finite(t, led.metrics)
	for _, detail := range details {
		if _, err := selectMetrics(c.PerLayer, led.metrics, detail); err != nil {
			t.Error(err)
		}
	}
	if got := led.metrics["vupdate.ops_per_delete"].Value; got != nodesPerInstance {
		t.Errorf("a complete deletion made %v operations, want one per node (%d)", got, nodesPerInstance)
	}
	if got := led.metrics["shard.cross_share"].Value; got != 0.2 {
		t.Errorf("cross-shard share of the write mix = %v, want the churn share 0.2", got)
	}
}

// TestOpenLoopTimesFromDueTime stalls one request of a one-connection
// open loop for 50 ms. The dispatcher must keep to its schedule, and the
// requests that were due during the stall must be charged the wait:
// timed from when they were sent, they would look fast.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stalled, stall = 20, 50 * time.Millisecond
	sched := buildSchedule([numKinds]float64{opRead: 200}, 400*time.Millisecond) // every 5 ms
	n := 0
	send := func(int, opKind) (time.Time, bool) { // one worker: no lock needed
		if n++; n-1 == stalled {
			time.Sleep(stall)
		}
		return time.Now(), true
	}
	recs := runOpenLoop(time.Now().Add(5*time.Millisecond), sched, 1, send)
	if len(recs) != 80 {
		t.Fatalf("%d records, want 80", len(recs))
	}
	if l := recs[stalled].latency(); l < stall {
		t.Errorf("stalled request took %v, want at least %v", l, stall)
	}
	for i := stalled + 1; i <= stalled+3; i++ {
		// Due 5, 10, 15 ms into a 50 ms stall, served only after it.
		want := stall - time.Duration(i-stalled)*5*time.Millisecond - 5*time.Millisecond
		if l := recs[i].latency(); l < want {
			t.Errorf("request %d, due during the stall, is charged %v; from its due time it waited at least %v", i, l, want)
		}
		if late := recs[i].wake.Sub(recs[i].due); late > 40*time.Millisecond {
			t.Errorf("dispatcher woke %v late for request %d: it waited for the stalled connection", late, i)
		}
	}
}

// TestScheduleHoldsTheRates checks the absolute schedule: every kind at
// its own rate, merged in time order.
func TestScheduleHoldsTheRates(t *testing.T) {
	sched := buildSchedule([numKinds]float64{opRead: 600, opQuery: 10, opWrite: 12}, 2*time.Second)
	var count [numKinds]int
	for i, s := range sched {
		count[s.kind]++
		if i > 0 && s.at < sched[i-1].at {
			t.Fatalf("slot %d at %v precedes slot %d at %v", i, s.at, i-1, sched[i-1].at)
		}
	}
	if count != [numKinds]int{1200, 20, 24} {
		t.Errorf("slots per kind = %v, want [1200 20 24]", count)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {5000, 95}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestDeadChildIsLoud: a serving child that dies — as it does when the
// parallel assembler panics on a worker goroutine — must surface as an
// error carrying its stderr, not as a run full of refused connections.
func TestDeadChildIsLoud(t *testing.T) {
	if _, err := startChild(datasetConfig{Roots: 0, Shards: 1}); err == nil || !strings.Contains(err.Error(), "invalid spec") {
		t.Errorf("a child that cannot build its dataset: err = %v, want its stderr with the reason", err)
	}
	c, err := startChild(datasetConfig{Roots: 10, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.died(); err != nil {
		t.Fatalf("live child reported dead: %v", err)
	}
	if err := c.cmd.Process.Kill(); err != nil { // behind the harness's back
		t.Fatal(err)
	}
	<-c.exited
	if err := c.died(); err == nil || !strings.Contains(err.Error(), "died") {
		t.Errorf("killed child: died() = %v, want an error", err)
	}
	_ = c.stdin.Close()
}
