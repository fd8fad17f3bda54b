package workload

import (
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"penguin/internal/obs"
	"penguin/internal/serve"
	"penguin/internal/university"
)

// startTier launches a real serving tier over the seeded university
// (one shard) on an ephemeral port.
func startTier(t *testing.T, cfg serve.Config) (string, *obs.Registry) {
	t.Helper()
	c, err := university.NewSharded(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Cluster = c
	cfg.Reg = reg
	_, hs, err := serve.Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	return "http://" + hs.Addr().String(), reg
}

// TestPacingAccuracy pins the arrival schedule: with a no-op fire
// function (an idle "server"), the dispatched tick count must land
// within 5% of target RPS x duration. The absolute schedule (start +
// i*interval) is what makes this hold — a relative sleep-per-tick loop
// accumulates sleep overshoot and comes in low.
func TestPacingAccuracy(t *testing.T) {
	const rps, dur = 500.0, time.Second
	var fired atomic.Int64
	n := runPaced(rps, dur, func(int) { fired.Add(1) })
	want := rps * dur.Seconds()
	if math.Abs(float64(n)-want) > 0.05*want {
		t.Errorf("dispatched %d ticks, want %.0f +/- 5%%", n, want)
	}
	if int64(n) != fired.Load() {
		t.Errorf("dispatched %d but fired %d", n, fired.Load())
	}
}

// TestPacingSlowHandler pins the open-loop property: a handler far
// slower than the arrival interval must not slow the arrival schedule.
func TestPacingSlowHandler(t *testing.T) {
	const rps, dur = 200.0, 500 * time.Millisecond
	n := runPaced(rps, dur, func(int) { time.Sleep(200 * time.Millisecond) })
	want := rps * dur.Seconds()
	if float64(n) < 0.95*want {
		t.Errorf("slow handler throttled arrivals: %d ticks, want >= %.0f", n, 0.95*want)
	}
}

// TestOpenLoopMix checks the deterministic read/update split and the
// result accounting against a live tier.
func TestOpenLoopMix(t *testing.T) {
	base, reg := startTier(t, serve.Config{})
	res, err := RunOpenLoop(OpenLoopSpec{
		BaseURL:      base,
		Object:       "omega",
		TargetRPS:    100,
		Duration:     500 * time.Millisecond,
		ReadFraction: 0.8,
		Reg:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("no operations dispatched")
	}
	if res.Sent != res.OK+res.Shed+res.Rejected+res.Errors {
		t.Errorf("accounting leak: sent %d != ok %d + shed %d + rejected %d + errors %d",
			res.Sent, res.OK, res.Shed, res.Rejected, res.Errors)
	}
	if res.Errors != 0 {
		t.Errorf("idle tier produced %d errors", res.Errors)
	}
	byOp := reg.OpenLoopNsByEndpoint.StatByLabel()
	reads, updates := byOp[opRead].Count, byOp[opUpdate].Count
	if reads+updates != res.Sent {
		t.Errorf("per-op latency counts %d+%d != sent %d", reads, updates, res.Sent)
	}
	gotFrac := float64(reads) / float64(res.Sent)
	if math.Abs(gotFrac-0.8) > 0.05 {
		t.Errorf("read fraction %.3f, want 0.8 +/- 0.05", gotFrac)
	}
	if reg.OpenLoopSent.Load() != res.Sent {
		t.Errorf("workload.openloop.sent %d != result sent %d", reg.OpenLoopSent.Load(), res.Sent)
	}
}

// TestServeSmoke is the CI smoke gate (make serve-smoke): a short
// open-loop burst against a live tier must achieve its arrival rate
// within 5%, finish with zero 5xx, meet a generous latency objective,
// and leave a valid Prometheus exposition carrying the penguin.http.*
// families.
func TestServeSmoke(t *testing.T) {
	base, reg := startTier(t, serve.Config{})
	res, err := RunOpenLoop(OpenLoopSpec{
		BaseURL:      base,
		Object:       "omega",
		TargetRPS:    300,
		Duration:     time.Second,
		ReadFraction: 0.9,
		SLOp50:       100 * time.Millisecond,
		SLOp99:       500 * time.Millisecond,
		Reg:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res)
	if res.Errors != 0 {
		t.Errorf("smoke run produced %d errors (want zero 5xx/transport failures)", res.Errors)
	}
	want := 300.0
	if math.Abs(res.AchievedRPS-want) > 0.05*want {
		t.Errorf("achieved %.1f rps, want %.0f +/- 5%%", res.AchievedRPS, want)
	}
	if len(res.SLOViolations) != 0 {
		t.Errorf("SLO violations: %v", res.SLOViolations)
	}
	if res.P99 <= 0 {
		t.Errorf("p99 = %v, want > 0", res.P99)
	}

	// The tier's own accounting: every admitted request 2xx or shed —
	// no 5xx anywhere.
	if got := reg.Snapshot().Counter("penguin.http.status.5xx"); got != 0 {
		t.Errorf("server counted %d 5xx responses", got)
	}

	// Scrape /metrics and lint the exposition.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if err := obs.CheckExposition(text); err != nil {
		t.Errorf("exposition: %v", err)
	}
	for _, fam := range []string{
		"penguin_http_requests", "penguin_http_shed", "penguin_http_ns",
		"penguin_http_status_2xx", "workload_openloop_sent", "workload_openloop_latency_ns",
	} {
		if !strings.Contains(text, fam) {
			t.Errorf("exposition lacks family %s", fam)
		}
	}
}
