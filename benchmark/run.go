package main

// run.go is one timed run of one workload: set up the serving child,
// drive it open-loop and then closed-loop, verify what it stored, and
// turn the records into the metrics BENCHMARK.json names.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workloadDef is one traffic mix over one dataset. The rates are
// constants, calibrated once to about 40 % of what the seed commit
// sustains closed-loop on a 2-core box (README.md, "Calibration"); they
// never adapt to the machine or the commit, so two commits are always
// offered the same load.
type workloadDef struct {
	name    string
	data    datasetConfig // Dir is filled in per run when durable
	durable bool
	rate    [numKinds]float64 // open-loop arrivals per second
	zipf    bool              // reads drawn Zipf(1.1) over the keys, not uniformly
	// primary is the operation type whose open-loop latency the run
	// reports as p50_ms and client.tail_ms.
	primary opKind
}

var workloads = []workloadDef{
	{
		name:    "read_large",
		data:    datasetConfig{Roots: 10000, Shards: 1},
		rate:    [numKinds]float64{opRead: 400, opQuery: 6},
		primary: opRead,
	},
	{
		name:    "write_small_wal",
		data:    datasetConfig{Roots: 100, Shards: 1},
		durable: true,
		rate:    [numKinds]float64{opWrite: 100},
		primary: opWrite,
	},
	{
		name:    "write_large_mem",
		data:    datasetConfig{Roots: 1000, Shards: 1},
		rate:    [numKinds]float64{opWrite: 12},
		primary: opWrite,
	},
	{
		name:    "mixed_sharded_wal",
		data:    datasetConfig{Roots: 1000, Shards: 2},
		durable: true,
		rate:    [numKinds]float64{opRead: 300, opWrite: 12},
		zipf:    true,
		primary: opRead,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// phases splits the measured seconds: a third for the open loop, whose
// median needs few samples, two thirds for the closed loop, whose
// throughput has to average over the server's garbage-collection cycles
// (on read_large one every 2-3 s, each a fifth of a second's work). The
// warm-up comes on top and is part of the open-loop timeline, so the
// schedule has no seam; its samples are dropped.
type phases struct{ warm, open, closed time.Duration }

func phasesFor(seconds float64) phases {
	s := time.Duration(seconds * float64(time.Second))
	return phases{warm: s / 8, open: s / 3, closed: s * 2 / 3}
}

// setupRepeats is how often a run sets the dataset up to take the
// median; the last child serves the run. Repeating stops early once
// setupBudget is spent: the small datasets, whose set-up time is mostly
// process start and jitters most, get all nine; the largest gets three.
const (
	setupRepeats = 9
	setupBudget  = 3 * time.Second
)

// onTimeMs is the p99 wake-up lateness up to which a run's open-loop
// latencies are taken at face value; above it the run is printed LATE.
const onTimeMs = 5

// closedWindows is the number of windows the closed loop is cut into.
const closedWindows = 12

// cut is one window boundary of the closed loop: when it was taken and
// the child's CPU time then.
type cut struct {
	at  time.Time
	cpu float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value, and Note what a reader
	// needs beside it (which percentile, which operation type).
	N    int    `json:"n,omitempty"`
	Note string `json:"note,omitempty"`
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Detail    map[string]metric `json:"detail"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Correct   bool              `json:"correct"`
	OnTime    bool              `json:"on_time"` // the generator kept its schedule: late_p99_ms <= onTimeMs
	Failures  []string          `json:"failures,omitempty"`
}

// runWorkload performs one run. setups is how many times the dataset is
// set up for the setup_s median (at least 1); scratch is the directory
// that holds the run's data directories while it lasts.
func runWorkload(def workloadDef, seed int64, seconds float64, setups int, scratch string) (*runResult, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(scratch, "run-"+def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set-up, timed from exec to the child's READY line.
	var (
		srv      *child
		setupSec []float64
		spent    time.Duration
	)
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.kill(); err != nil {
				return nil, err
			}
		}
		cfg := def.data
		if def.durable {
			cfg.Dir = filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		}
		if srv, err = startChild(cfg); err != nil {
			return nil, err
		}
		def.data = cfg
		setupSec = append(setupSec, srv.setup.Seconds())
		if spent += srv.setup; spent > setupBudget {
			break
		}
	}
	defer func() { _ = srv.kill() }() // no-op once the child has been stopped
	if srv.rows != def.data.seededRows() {
		return nil, fmt.Errorf("child seeded %d rows, want %d", srv.rows, def.data.seededRows())
	}

	g := newGenerator(def, srv.addr)
	defer g.close()
	if def.rate[opWrite] > 0 {
		if err := g.prefetch(); err != nil {
			return nil, err
		}
	}

	// Open loop: warm-up and measured window on one timeline.
	ph := phasesFor(seconds)
	sched := buildSchedule(def.rate, ph.warm+ph.open)
	start := time.Now().Add(10 * time.Millisecond)
	open := runOpenLoop(start, sched, clientCount(), g.senders(clientCount(), seed))
	if err := srv.died(); err != nil {
		return nil, err
	}
	measured := open[:0:0]
	for _, r := range open {
		if r.due.Sub(start) >= ph.warm {
			measured = append(measured, r)
		}
	}

	// Closed loop, cut into windows with the child's CPU time read at
	// every cut, so that goodput and CPU per operation can be reported
	// as the mean of the middle half of the windows: a burst of noise
	// from the machine spoils a window or two, which are dropped, while
	// the server's own garbage-collection cycles, which make windows
	// differ by a fifth, still average out over six of them.
	width := ph.closed / closedWindows
	cuts := make([]cut, 0, closedWindows+1)
	cutErr := make(chan error, 1)
	go func() {
		first := time.Now()
		for i := 0; i <= closedWindows; i++ {
			time.Sleep(time.Until(first.Add(time.Duration(i) * width)))
			cpu, err := srv.cpuSeconds()
			if err != nil {
				cutErr <- err
				return
			}
			cuts = append(cuts, cut{at: time.Now(), cpu: cpu})
		}
		cutErr <- nil
	}()
	closed := g.runClosedLoop(width*closedWindows, seed+1000)
	if err := <-cutErr; err != nil {
		if dead := srv.died(); dead != nil {
			err = dead
		}
		return nil, err
	}

	// Verification: net the churn out, re-read every written key.
	g.restoreChurn()
	g.sweep("final", g.fetchHTTP)
	if err := srv.died(); err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	res := &runResult{
		Workload: def.name, Seed: seed, Seconds: seconds,
		EndToEnd: map[string]metric{}, Detail: map[string]metric{},
	}
	if def.durable {
		// Crash: SIGKILL, reopen the directory here, and check that it
		// holds every acknowledged write and nothing torn.
		if err := srv.kill(); err != nil {
			return nil, err
		}
		reopenStart := time.Now()
		e, err := openEngine(def.data, false)
		if err != nil {
			return nil, fmt.Errorf("reopen after SIGKILL: %w", err)
		}
		res.Detail["recover_s"] = metric{Value: time.Since(reopenStart).Seconds(), Unit: "s"}
		g.sweep("post-crash", func(k int) ([]byte, error) {
			raw, ok, err := e.docJSON(k)
			if err == nil && !ok {
				err = fmt.Errorf("instance is gone")
			}
			return raw, err
		})
		g.attempted.Add(2)
		if bad, err := e.audit(); err != nil || bad != 0 {
			g.fail("post-crash audit: %d violations, err %v", bad, err)
		}
		if rows := e.totalRows(); rows != def.data.seededRows() {
			g.fail("post-crash row count %d, want the seeded %d", rows, def.data.seededRows())
		}
		if err := e.close(); err != nil {
			return nil, err
		}
	} else if err := srv.stop(); err != nil {
		return nil, err
	}

	// Metrics.
	sort.Float64s(setupSec)
	res.EndToEnd["setup_s"] = metric{Value: percentile(setupSec, 50), Unit: "s", N: len(setupSec)}
	res.EndToEnd["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}

	var late []float64
	veryLate := 0
	for _, r := range open {
		l := r.wake.Sub(r.due)
		late = append(late, float64(l)/1e6)
		if l > lateLimit {
			veryLate++
		}
	}
	sort.Float64s(late)
	lateP99 := percentile(late, 99)
	res.Detail["loadgen.late_p99_ms"] = metric{Value: lateP99, Unit: "ms", N: len(late)}
	res.Detail["loadgen.late_p50_ms"] = metric{Value: percentile(late, 50), Unit: "ms", N: len(late)}
	res.Detail["loadgen.late_max_ms"] = metric{Value: late[len(late)-1], Unit: "ms", N: len(late)}
	res.Detail["loadgen.late_over_50ms"] = metric{Value: float64(veryLate), Unit: "count", N: len(late)}
	span := open[len(open)-1].wake.Sub(open[0].wake)
	want := sched[len(sched)-1].at - sched[0].at
	res.Detail["loadgen.achieved_rate_share"] = metric{Value: float64(want) / float64(span), Unit: "share", N: len(open)}
	res.Detail["serve.shed_count"] = metric{Value: float64(g.shed.Load()), Unit: "count"}
	res.OnTime = lateP99 <= onTimeMs

	for kind := opKind(0); kind < numKinds; kind++ {
		ms := latenciesMs(measured, kind)
		if len(ms) == 0 {
			continue
		}
		tp := tailPercentile(len(ms))
		p50 := metric{Value: percentile(ms, 50), Unit: "ms", N: len(ms), Note: "open loop, from due time"}
		tail := metric{Value: percentile(ms, tp), Unit: "ms", N: len(ms), Note: fmt.Sprintf("p%.0f, open loop, from due time", tp)}
		res.Detail[kindNames[kind]+"_p50_ms"] = p50
		res.Detail[fmt.Sprintf("%s_p%.0f_ms", kindNames[kind], tp)] = tail
		if kind == def.primary {
			p50.Note, tail.Note = kindNames[kind]+", "+p50.Note, kindNames[kind]+", "+tail.Note
			res.EndToEnd["p50_ms"], res.Detail["client.tail_ms"] = p50, tail
		}
		if closedMs := latenciesMs(closed, kind); len(closedMs) > 0 {
			res.Detail["closed_"+kindNames[kind]+"_p50_ms"] = metric{Value: percentile(closedMs, 50), Unit: "ms", N: len(closedMs), Note: "closed loop, from send"}
		}
	}
	var goodput, cpuPerOp []float64
	for w := 0; w < closedWindows; w++ {
		good, done := 0, 0
		for _, r := range closed {
			if r.ok && !r.end.Before(cuts[w].at) && r.end.Before(cuts[w+1].at) {
				done++
				if r.latency() <= latencyLimit[r.kind] {
					good++
				}
			}
		}
		goodput = append(goodput, float64(good)/cuts[w+1].at.Sub(cuts[w].at).Seconds())
		cpuPerOp = append(cpuPerOp, (cuts[w+1].cpu-cuts[w].cpu)*1000/math.Max(float64(done), 1))
	}
	res.EndToEnd["goodput_ops_s"] = metric{Value: midMean(goodput), Unit: "1/s", N: len(closed),
		Note: fmt.Sprintf("%d closed-loop clients; answered, verified and inside the type's latency limit; mean of the middle half of windows %.4g", clientCount(), goodput)}
	res.EndToEnd["cpu_ms_per_op"] = metric{Value: midMean(cpuPerOp), Unit: "ms", N: len(closed),
		Note: fmt.Sprintf("server user+system CPU per completed closed-loop operation; mean of the middle half of windows %.4g", cpuPerOp)}

	res.Attempted = g.attempted.Load()
	res.Failed = g.failed.Load()
	res.Correct = res.Failed == 0
	res.Failures = g.failures
	res.Detail["failed_share"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "share", N: int(res.Attempted)}
	return res, nil
}

// latenciesMs returns the sorted latencies of the verified records of
// one kind, in milliseconds.
func latenciesMs(records []record, kind opKind) []float64 {
	var ms []float64
	for _, r := range records {
		if r.kind == kind && r.ok {
			ms = append(ms, float64(r.latency())/1e6)
		}
	}
	sort.Float64s(ms)
	return ms
}
