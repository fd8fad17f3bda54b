// Command benchmark is the repo's end-to-end serving benchmark: it
// serves a synthetic dependency-island view object from a child process,
// drives it over loopback HTTP, checks every answer, and prints every
// metric BENCHMARK.json names. README.md in this directory is the
// manual.
//
// The driver's form, one workload per invocation, last line a JSON
// result:
//
//	go run ./benchmark --workload read_large --seed 1 --seconds 20 --trace 0
//
// The whole set for a person to read; with -aa, six times over, to see
// how far two sides of one binary disagree:
//
//	go run ./benchmark -seed 1 -out report.json [-aa]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// scratchDir is where runs keep data directories and traces: inside the
// checkout, in the directory the driver already ignores.
const scratchDir = ".bench_build"

func main() {
	if cfg, ok := os.LookupEnv(serveEnv); ok {
		os.Exit(serveMain(cfg))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (default: the whole set, as a report)")
	seed := fs.Int64("seed", 1, "seed of the request stream")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1: also run the layer ledger and report the per-layer metrics")
	out := fs.String("out", "", "whole-set mode: write the report as JSON to this file")
	aa := fs.Bool("aa", false, "whole-set mode: run the set three times for each of two sides, alternating, and compare the sides' medians")
	traceOut := fs.String("trace-out", filepath.Join(scratchDir, "trace.json"), "where the ledger writes its spans (Chrome trace format)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	contract, err := readContract("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(contract.RunSeconds)
	}
	if *workload == "" {
		return wholeSet(contract, *seed, *seconds, *out, *traceOut, *aa)
	}

	def, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *workload)
		return 2
	}
	setups := setupRepeats
	if *trace == 1 {
		setups = 1 // a traced run reports no setup_s
	}
	res, err := runWorkload(def, *seed, *seconds, setups, scratchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printRun(res)
	reportFailures(res)
	metrics, err := selectMetrics(contract.EndToEnd, res.EndToEnd)
	if *trace == 1 {
		var led *ledgerResult
		if led, err = runLedger(fullLedger, *seed, scratchDir, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: ledger:", err)
			return 1
		}
		fmt.Print(led.summary)
		if metrics, err = selectMetrics(contract.PerLayer, led.metrics, res.Detail); err == nil {
			printMetrics(*workload, metrics)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	// The contract's last line: value and unit only.
	type bare struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]bare `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]bare{}}
	for name, m := range metrics {
		line.Metrics[name] = bare{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(raw))
	if !res.Correct {
		return 1
	}
	return 0
}

// contract is BENCHMARK.json as far as the benchmark itself reads it:
// the run length and the bound of each end-to-end metric.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// selectMetrics picks the metrics BENCHMARK.json names out of what was
// measured, so that the result line and the contract cannot drift apart.
func selectMetrics(want []contractMetric, from ...map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, w := range want {
		found := false
		for _, ms := range from {
			if m, ok := ms[w.Name]; ok {
				if m.Unit != w.Unit {
					return nil, fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
				}
				out[w.Name], found = m, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("BENCHMARK.json names metric %s, which this run did not measure", w.Name)
		}
	}
	return out, nil
}

// printMetrics prints one line per metric: workload, name, value, unit,
// sample count, note.
func printMetrics(workload string, ms map[string]metric) {
	for _, name := range sortedNames(ms) {
		m := ms[name]
		line := fmt.Sprintf("%-18s %-32s %14.4f %-6s", workload, name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Println(line)
	}
}

func printRun(res *runResult) {
	printMetrics(res.Workload, res.EndToEnd)
	printMetrics(res.Workload, res.Detail)
	if !res.OnTime {
		fmt.Printf("%-18s LATE: the generator woke more than 5 ms late for its schedule at p99; this run's open-loop latencies carry that\n", res.Workload)
	}
}

func reportFailures(res *runResult) {
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", res.Workload, f)
	}
}

// ---- the whole set ---------------------------------------------------

// report is the whole-set output: every workload's run, the ledger, and
// the machine it was taken on.
type report struct {
	Host   hostInfo           `json:"host"`
	Seed   int64              `json:"seed"`
	Runs   []*runResult       `json:"runs"`
	Ledger map[string]metric  `json:"per_layer"`
	AA     []aaRow            `json:"aa,omitempty"`
	Second []*runResult       `json:"second_runs,omitempty"`
	Shape  map[string]float64 `json:"shape"`
	Claim  *string            `json:"claim"` // always null: this benchmark claims no gain
	Bounds map[string]float64 `json:"bounds"`
}

type hostInfo struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func host() hostInfo {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // absent off Linux; the field stays empty
	return hostInfo{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Kernel: strings.TrimSpace(string(kernel)), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
}

// aaRow compares one end-to-end metric of one workload across the two
// sides of an -aa run: the medians of each side's aaRounds runs.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

func runSet(seed int64, seconds float64) ([]*runResult, bool, error) {
	var runs []*runResult
	ok := true
	for _, def := range workloads {
		res, err := runWorkload(def, seed, seconds, setupRepeats, scratchDir)
		if err != nil {
			return nil, false, fmt.Errorf("%s: %w", def.name, err)
		}
		printRun(res)
		reportFailures(res)
		ok = ok && res.Correct
		runs = append(runs, res)
	}
	return runs, ok, nil
}

// aaRounds is how many times -aa runs the set for each side. The sides
// alternate (A B A B A B, a new seed each round) so that a slow quarter
// of an hour on the machine falls on both, and medians are compared: two
// single runs of one binary differ by more than the bounds whenever the
// sandbox has one of its bad minutes.
const aaRounds = 3

func wholeSet(c *contract, seed int64, seconds float64, out, traceOut string, aa bool) int {
	rep := report{Host: host(), Seed: seed, Bounds: map[string]float64{}, Shape: map[string]float64{}}
	for _, m := range c.EndToEnd {
		rep.Bounds[m.Name] = m.Bound
	}
	rounds, sides := 1, 1
	if aa {
		rounds, sides = aaRounds, 2
	}
	ok := true
	for r := 0; r < rounds; r++ {
		for side, dst := range []*[]*runResult{&rep.Runs, &rep.Second}[:sides] {
			runs, sound, err := runSet(seed+int64(r), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: round %d side %d: %v\n", r, side, err)
				return 1
			}
			ok = ok && sound
			*dst = append(*dst, runs...)
		}
	}
	led, err := runLedger(fullLedger, seed, scratchDir, traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: ledger:", err)
		return 1
	}
	rep.Ledger = led.metrics
	fmt.Print(led.summary)
	printMetrics("ledger", led.metrics)

	// medianOf is the median of one end-to-end metric of one workload
	// over the runs of one side.
	medianOf := func(runs []*runResult, workload, name string) float64 {
		var xs []float64
		for _, r := range runs {
			if r.Workload == workload {
				xs = append(xs, r.EndToEnd[name].Value)
			}
		}
		return median(xs)
	}
	// The shape the seed's reference output must reproduce: today's
	// write cost is the session's relation clones, not commit or WAL.
	rep.Shape["write_p50_large_over_small"] = medianOf(rep.Runs, "write_large_mem", "p50_ms") / medianOf(rep.Runs, "write_small_wal", "p50_ms")
	rep.Shape["vupdate.large_over_small"] = led.metrics["vupdate.large_over_small"].Value
	rep.Shape["preview_share_of_replace"] = led.metrics["vupdate.preview_replace_us"].Value / led.metrics["vupdate.replace_us"].Value
	for name, v := range rep.Shape {
		fmt.Printf("%-18s %-32s %14.4f ratio\n", "shape", name, v)
	}

	agree := true
	if aa {
		for _, def := range workloads {
			for _, m := range c.EndToEnd {
				a, b := medianOf(rep.Runs, def.name, m.Name), medianOf(rep.Second, def.name, m.Name)
				row := aaRow{Workload: def.name, Metric: m.Name, First: a, Second: b,
					RelDiff: math.Abs(a-b) / math.Min(a, b), Bound: m.Bound}
				row.Within = row.RelDiff <= row.Bound
				agree = agree && row.Within
				rep.AA = append(rep.AA, row)
				verdict := "ok"
				if !row.Within {
					verdict = "DISAGREE"
				}
				fmt.Printf("aa %-18s %-16s %12.4f %12.4f  diff %5.1f%%  bound %4.1f%%  %s\n",
					row.Workload, row.Metric, a, b, 100*row.RelDiff, 100*row.Bound, verdict)
			}
		}
	}
	if out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Println(`"claim": null`)
	if !ok || !agree {
		return 1
	}
	return 0
}
