package main

// child.go runs the system under test as a process of its own: the
// benchmark binary re-executed in the serve role. The parent measures it
// from outside — set-up time, /proc CPU and memory — and can SIGKILL it
// to test what the data directory holds without a clean shutdown.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serveEnv carries the dataset configuration to the child. An
// environment variable, not an argument, so the same dispatch works when
// the binary is a `go test` binary.
const serveEnv = "PENGUIN_BENCH_SERVE"

// maxServerProcs caps the child's GOMAXPROCS. Above 4 workers the
// parallel assembler's chunk arithmetic has more overshoot shapes (see
// querySpan), and a cap keeps runs on large hosts comparable.
const maxServerProcs = 4

// clientCount is the number of generator connections and closed-loop
// clients: one per processor, capped like the server, which also keeps
// concurrent writes below the serving tier's admission limit of 16 so
// that no request is ever shed by design.
func clientCount() int { return min(runtime.NumCPU(), maxServerProcs) }

// serveMain is the child: build and seed the dataset, listen, announce
// the address, and serve until the parent closes our stdin (or dies).
func serveMain(rawCfg string) int {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxServerProcs))
	var cfg datasetConfig
	if err := json.Unmarshal([]byte(rawCfg), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "serve: bad config:", err)
		return 2
	}
	e, err := openEngine(cfg, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	addr, stop, err := e.listen()
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	fmt.Printf("READY %s %d\n", addr, e.totalRows())
	_, _ = io.Copy(io.Discard, os.Stdin) // EOF is the stop signal; an error means the same
	stop()
	if err := e.close(); err != nil {
		fmt.Fprintln(os.Stderr, "serve: close:", err)
		return 1
	}
	return 0
}

// child is a running serving process.
type child struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	addr   string
	rows   int
	setup  time.Duration // exec to READY
	stderr tailBuffer
	exited chan struct{} // closed once the process has been reaped
	// expected is set before the parent stops or kills the child, so the
	// watcher can tell a planned exit from a death.
	mu       sync.Mutex
	expected bool
}

// startChild launches the serving child and waits until it listens.
func startChild(cfg datasetConfig) (*child, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	c := &child{cmd: exec.Command(self), exited: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), serveEnv+"="+string(raw))
	c.cmd.Stderr = &c.stderr
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	c.setup = time.Since(start)
	go func() {
		_ = c.cmd.Wait() // the exit status is judged by died(), from expected
		close(c.exited)
	}()
	if _, err := fmt.Sscanf(line, "READY %s %d", &c.addr, &c.rows); err != nil {
		_ = c.kill()
		return nil, fmt.Errorf("serving child never became ready (%v, %q); its stderr:\n%s", readErr, line, c.stderr.String())
	}
	return c, nil
}

// died reports a child that exited without being told to: a panic on a
// server goroutine takes the whole process down, and the run must say so
// instead of counting refused connections.
func (c *child) died() error {
	select {
	case <-c.exited:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.expected {
		return nil
	}
	return fmt.Errorf("serving child died (%v); its stderr ends:\n%s", c.cmd.ProcessState, c.stderr.String())
}

func (c *child) expectExit() {
	c.mu.Lock()
	c.expected = true
	c.mu.Unlock()
}

// stop asks the child to shut down cleanly and waits for it.
func (c *child) stop() error {
	c.expectExit()
	_ = c.stdin.Close()
	select {
	case <-c.exited:
		if !c.cmd.ProcessState.Success() {
			return fmt.Errorf("serving child exited %v; its stderr ends:\n%s", c.cmd.ProcessState, c.stderr.String())
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = c.kill()
		return errors.New("serving child ignored the stop request for 10s; killed")
	}
}

// kill SIGKILLs the child and waits until it is gone: nothing it had
// not already fsynced reaches the data directory through a clean close.
func (c *child) kill() error {
	c.expectExit()
	err := c.cmd.Process.Kill()
	<-c.exited
	_ = c.stdin.Close()
	return err
}

// cpuSeconds is the child's user+system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (c *child) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times in %q", s)
	}
	const ticksPerSecond = 100 // USER_HZ, fixed on Linux
	return (utime + stime) / ticksPerSecond, nil
}

// peakRSSMB is the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// tailBuffer keeps the last few KiB written to it: enough of a dead
// child's stderr to show the panic that killed it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBytes = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailBytes {
		t.buf = t.buf[len(t.buf)-tailBytes:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
