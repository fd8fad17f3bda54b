package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"penguin/internal/reldb"
)

// serveChildEnv carries the durable data directory to the re-executed
// child, which runs the real `penguin -serve -data-dir` entrypoint.
const serveChildEnv = "PENGUIN_SERVE_CHILD_DIR"

// postJSON posts a JSON body and returns the decoded response map.
func postJSON(t *testing.T, client *http.Client, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	return resp.StatusCode, doc
}

// TestServeSignalDurability is the server-lifecycle fix's end-to-end
// proof. A child process (this binary re-executed) runs the real main()
// in `-serve -data-dir` mode; the parent drives sequential acknowledged
// VO-R updates over HTTP, records each response's committed generation,
// SIGTERMs the child with one more update in flight, and reopens the
// directory. Every acknowledged generation must survive — the old
// deferred-Close teardown never ran on a signal, so the final state
// depended on luck rather than the WAL's ack contract.
func TestServeSignalDurability(t *testing.T) {
	if dir := os.Getenv(serveChildEnv); dir != "" {
		os.Args = []string{"penguin", "-serve", "127.0.0.1:0", "-data-dir", dir}
		main()
		return // unreachable: serve mode blocks until the signal exits
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeSignalDurability$", "-test.v")
	cmd.Env = append(os.Environ(), serveChildEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var childErr bytes.Buffer
	cmd.Stderr = &childErr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The child prints its resolved listening address once the tier is
	// up; parse it off the pipe.
	addrRe := regexp.MustCompile(`http://([^/\s]+)/objects`)
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("child never announced its address; stderr:\n%s", childErr.String())
	}
	go func() { // keep draining so the child never blocks on a full pipe
		for sc.Scan() {
		}
	}()

	// Fetch the current omega instance once, then drive sequential
	// replacements that stamp Title with the attempt index. Each 200
	// carries the committed generation — that response IS the ack.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/objects/omega/CS101")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET omega/CS101: %d %v", resp.StatusCode, doc)
	}

	const acks = 8
	var lastGen uint64
	for i := 1; i <= acks; i++ {
		doc["Title"] = fmt.Sprintf("acked-%d", i)
		status, res := postJSON(t, client, base+"/objects/omega:replace", map[string]any{
			"key":      []any{"CS101"},
			"instance": doc,
		})
		if status != http.StatusOK {
			t.Fatalf("replace %d: %d %v", i, status, res)
		}
		gen, ok := res["generation"].(float64)
		if !ok || uint64(gen) <= lastGen {
			t.Fatalf("replace %d: generation %v did not advance past %d", i, res["generation"], lastGen)
		}
		lastGen = uint64(gen)
	}

	// One more update races the signal: fired but not awaited, so the
	// drain either completes and commits it or sheds it — both legal.
	go func() {
		doc["Title"] = fmt.Sprintf("acked-%d", acks+1)
		raw, _ := json.Marshal(map[string]any{"key": []any{"CS101"}, "instance": doc})
		r, err := client.Post(base+"/objects/omega:replace", "application/json", bytes.NewReader(raw))
		if err == nil {
			r.Body.Close()
		}
	}()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("signaled child exited abnormally: %v; stderr:\n%s", err, childErr.String())
	}

	// Recovery: every acknowledged generation (and the Title stamp of at
	// least the last awaited ack) must be in the reopened database — the
	// served university's one shard.
	db, err := reldb.OpenDatabase(filepath.Join(dir, "shard-0"))
	if err != nil {
		t.Fatalf("reopen after SIGTERM: %v", err)
	}
	defer db.Close()
	if g := db.Generation(); g < lastGen {
		t.Fatalf("recovered generation %d lost acknowledged generation %d", g, lastGen)
	}
	rtx := db.BeginRead()
	defer rtx.Close()
	rel, err := rtx.Relation("COURSES")
	if err != nil {
		t.Fatal(err)
	}
	row, ok := rel.Get(reldb.Tuple{reldb.String("CS101")})
	if !ok {
		t.Fatal("CS101 vanished across the restart")
	}
	idx, ok := rel.Schema().AttrIndex("Title")
	if !ok {
		t.Fatal("COURSES has no Title attribute")
	}
	title := row.At(idx).MustString()
	k, err := strconv.Atoi(strings.TrimPrefix(title, "acked-"))
	if err != nil || k < acks {
		t.Fatalf("recovered Title %q, want acked-k with k >= %d (the last acknowledged update)", title, acks)
	}
}
