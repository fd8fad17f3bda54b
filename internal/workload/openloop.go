package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"penguin/internal/obs"
)

// Open-loop load generation for the HTTP serving tier (DESIGN.md §14).
//
// An open-loop generator fires requests on a fixed arrival schedule,
// independent of how fast responses come back — the way real traffic
// arrives. A closed-loop driver (like RunStress) waits for each reply
// before sending the next request, so a slow server automatically slows
// the offered load and hides its own latency problems ("coordinated
// omission"). Against an admission-controlled tier the open-loop shape
// is the honest one: when the server saturates, the generator keeps
// offering load and the 429s show up in the shed counts instead of
// silently stretching the inter-arrival gaps.

// Loadgen op labels in the workload.openloop.latency_ns{endpoint=...}
// family: one logical read (GET by key) and one logical update (GET the
// document, mutate one attribute, POST :replace).
const (
	opRead   = "read"
	opUpdate = "update"
)

// OpenLoopSpec configures one open-loop run against a serving tier.
type OpenLoopSpec struct {
	// BaseURL locates the serving tier, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Object is the view-object name the run targets.
	Object string
	// TargetRPS is the arrival rate of logical operations per second.
	TargetRPS float64
	// Duration bounds the arrival schedule.
	Duration time.Duration
	// ReadFraction in [0,1] is the share of operations that are reads
	// (GET by key); the rest are read-mutate-replace updates. The mix is
	// deterministic in the tick index, so two runs with the same spec
	// offer the same sequence.
	ReadFraction float64
	// MutateAttr is the pivot attribute update operations rewrite
	// ("Title" when empty). It must be a non-key string attribute.
	MutateAttr string
	// Keys are the pivot keys to cycle through, each already in URL path
	// form (slash-separated for compound keys). Empty discovers them
	// from GET /objects/{object}.
	Keys []string
	// SLOp50 and SLOp99 are latency objectives checked against the
	// run's client-side histogram; zero disables the check.
	SLOp50, SLOp99 time.Duration
	// Reg receives the workload.openloop.* metrics (obs.Default if nil).
	Reg *obs.Registry
	// Client overrides the HTTP client (a 10s-timeout client if nil).
	Client *http.Client
}

// OpenLoopResult reports one run.
type OpenLoopResult struct {
	// Sent counts logical operations dispatched; Sent = OK + Shed +
	// Rejected + Errors.
	Sent int64
	// OK counts operations that completed 2xx.
	OK int64
	// Shed counts operations the server answered 429 (admission
	// control); shed is the expected overload outcome, not an error.
	Shed int64
	// Rejected counts other 4xx/409 outcomes — e.g. two concurrent
	// replaces of the same instance, one losing the translation race.
	Rejected int64
	// Errors counts 5xx responses and transport failures.
	Errors int64
	// Elapsed is the wall time from first to last dispatch completion.
	Elapsed time.Duration
	// AchievedRPS is Sent / Elapsed — how close the arrival schedule
	// came to TargetRPS.
	AchievedRPS float64
	// P50 and P99 are client-side latency quantiles over completed
	// operations, interpolated from the run's histogram delta.
	P50, P99 time.Duration
	// SLOViolations lists human-readable objective misses (empty on a
	// passing run).
	SLOViolations []string
}

// String renders the result as a one-run report.
func (r OpenLoopResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "open-loop: %d ops in %v (%.1f rps", r.Sent, r.Elapsed.Round(time.Millisecond), r.AchievedRPS)
	fmt.Fprintf(&b, "), ok %d, shed %d, rejected %d, errors %d\n", r.OK, r.Shed, r.Rejected, r.Errors)
	fmt.Fprintf(&b, "latency: p50 %v, p99 %v\n", r.P50, r.P99)
	if len(r.SLOViolations) == 0 {
		fmt.Fprintf(&b, "SLO: pass\n")
	} else {
		for _, v := range r.SLOViolations {
			fmt.Fprintf(&b, "SLO VIOLATION: %s\n", v)
		}
	}
	return b.String()
}

// runPaced dispatches fire(i) on an absolute arrival schedule: tick i
// fires at start + i/rps, computed from the run's start rather than the
// previous tick, so per-tick sleep jitter does not accumulate into
// drift. fire runs on its own goroutine — a slow handler never delays
// the schedule (the open-loop property). Returns ticks dispatched.
func runPaced(rps float64, d time.Duration, fire func(i int)) int {
	interval := time.Duration(float64(time.Second) / rps)
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	i := 0
	for {
		due := start.Add(time.Duration(i) * interval)
		if due.After(end) || due.Equal(end) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fire(i)
		}(i)
		i++
	}
	wg.Wait()
	return i
}

// RunOpenLoop drives one open-loop run and reports it.
func RunOpenLoop(spec OpenLoopSpec) (OpenLoopResult, error) {
	var res OpenLoopResult
	if spec.TargetRPS <= 0 {
		return res, fmt.Errorf("workload: open loop needs TargetRPS > 0")
	}
	if spec.Duration <= 0 {
		return res, fmt.Errorf("workload: open loop needs Duration > 0")
	}
	if spec.ReadFraction < 0 || spec.ReadFraction > 1 {
		return res, fmt.Errorf("workload: ReadFraction %v outside [0,1]", spec.ReadFraction)
	}
	reg := spec.Reg
	if reg == nil {
		reg = obs.Default
	}
	client := spec.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	mutate := spec.MutateAttr
	if mutate == "" {
		mutate = "Title"
	}
	base := strings.TrimSuffix(spec.BaseURL, "/")
	keys := spec.Keys
	if len(keys) == 0 {
		var err error
		keys, err = discoverKeys(client, base, spec.Object)
		if err != nil {
			return res, err
		}
	}
	if len(keys) == 0 {
		return res, fmt.Errorf("workload: object %s has no instances to target", spec.Object)
	}

	reg.Endpoints.Intern(opRead)
	reg.Endpoints.Intern(opUpdate)
	before := reg.OpenLoopNsByEndpoint.Total()

	var ok, shed, rejected, errs atomic.Int64
	// The deterministic read/update mix: tick i is a read iff adding
	// ReadFraction advanced the integer part of i*ReadFraction — the
	// Bresenham split, so mixes like 0.9 interleave evenly instead of
	// bursting.
	isRead := func(i int) bool {
		return int(float64(i+1)*spec.ReadFraction) > int(float64(i)*spec.ReadFraction)
	}

	runStart := time.Now()
	n := runPaced(spec.TargetRPS, spec.Duration, func(i int) {
		key := keys[i%len(keys)]
		op := opUpdate
		if isRead(i) {
			op = opRead
		}
		reg.OpenLoopSent.Inc()
		opStart := time.Now()
		var status int
		var err error
		if op == opRead {
			status, err = doRead(client, base, spec.Object, key)
		} else {
			status, err = doUpdate(client, base, spec.Object, key, mutate, i)
		}
		ns := time.Since(opStart).Nanoseconds()
		reg.OpenLoopNsByEndpoint.With(op).Observe(ns)
		switch {
		case err != nil || status >= 500:
			errs.Add(1)
		case status == http.StatusTooManyRequests:
			shed.Add(1)
		case status >= 400:
			rejected.Add(1)
		default:
			ok.Add(1)
		}
	})
	res.Elapsed = time.Since(runStart)
	res.Sent = int64(n)
	res.OK = ok.Load()
	res.Shed = shed.Load()
	res.Rejected = rejected.Load()
	res.Errors = errs.Load()
	if res.Elapsed > 0 {
		res.AchievedRPS = float64(res.Sent) / res.Elapsed.Seconds()
	}
	stat := reg.OpenLoopNsByEndpoint.Total().Sub(before)
	res.P50 = time.Duration(stat.Quantile(0.50))
	res.P99 = time.Duration(stat.Quantile(0.99))
	if spec.SLOp50 > 0 && res.P50 > spec.SLOp50 {
		res.SLOViolations = append(res.SLOViolations,
			fmt.Sprintf("p50 %v exceeds objective %v", res.P50, spec.SLOp50))
	}
	if spec.SLOp99 > 0 && res.P99 > spec.SLOp99 {
		res.SLOViolations = append(res.SLOViolations,
			fmt.Sprintf("p99 %v exceeds objective %v", res.P99, spec.SLOp99))
	}
	return res, nil
}

// doRead performs one logical read: GET /objects/{object}/{key}.
func doRead(client *http.Client, base, object, key string) (int, error) {
	resp, err := client.Get(base + "/objects/" + object + "/" + key)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// doUpdate performs one logical update: fetch the instance document,
// rewrite one attribute, and POST the result through VO-R. The first
// non-2xx leg short-circuits and reports that leg's status.
func doUpdate(client *http.Client, base, object, key, attr string, tick int) (int, error) {
	resp, err := client.Get(base + "/objects/" + object + "/" + key)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var doc map[string]any
	err = dec.Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("workload: bad instance document: %w", err)
	}
	doc[attr] = fmt.Sprintf("load-%d", tick)
	body, err := json.Marshal(map[string]any{
		"key":      strings.Split(key, "/"),
		"instance": doc,
	})
	if err != nil {
		return 0, err
	}
	resp, err = client.Post(base+"/objects/"+object+":replace", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// discoverKeys learns the object's pivot-key attribute names from
// GET /objects, then collects each instance's key values from
// GET /objects/{object}. Key values become URL path segments.
func discoverKeys(client *http.Client, base, object string) ([]string, error) {
	var listing struct {
		Objects []struct {
			Name string   `json:"name"`
			Key  []string `json:"key"`
		} `json:"objects"`
	}
	if err := getJSON(client, base+"/objects", &listing); err != nil {
		return nil, err
	}
	var keyAttrs []string
	for _, o := range listing.Objects {
		if o.Name == object {
			keyAttrs = o.Key
		}
	}
	if keyAttrs == nil {
		return nil, fmt.Errorf("workload: serving tier has no object %q", object)
	}
	var result struct {
		Instances []map[string]any `json:"instances"`
	}
	if err := getJSON(client, base+"/objects/"+object, &result); err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(result.Instances))
	for _, inst := range result.Instances {
		segs := make([]string, len(keyAttrs))
		for i, attr := range keyAttrs {
			seg, err := keySegment(inst[attr])
			if err != nil {
				return nil, fmt.Errorf("workload: instance key attribute %s: %w", attr, err)
			}
			segs[i] = seg
		}
		keys = append(keys, strings.Join(segs, "/"))
	}
	return keys, nil
}

// keySegment renders one wire-form key value as a URL path segment.
func keySegment(raw any) (string, error) {
	switch x := raw.(type) {
	case string:
		return x, nil
	case json.Number:
		return x.String(), nil
	case map[string]any:
		for _, tag := range []string{"int", "float"} {
			if s, ok := x[tag].(string); ok {
				return s, nil
			}
		}
	}
	return "", fmt.Errorf("value %v (%T) is not usable as a key segment", raw, raw)
}

// getJSON fetches url and decodes the 2xx JSON body into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("workload: GET %s: %d (%s)", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	return dec.Decode(out)
}
