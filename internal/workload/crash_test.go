package workload

// The crash matrix, on the one durable layout every session uses: a
// cluster under DIR/shard-<i>, one shard included.
//
//   - Single-shard truncation, corruption and checkpoint matrices: an
//     oracle shadows every committed generation of a 1-shard cluster
//     running stress traffic, and every cut of its log must reopen to
//     exactly the oracle state the surviving prefix reaches.
//   - A cross-shard truncation matrix that cuts each shard's log at the
//     cross-decide / cross-prepare boundaries of a known cross-shard
//     update and asserts the reopened cluster lands on exactly the
//     before-state (presumed abort) or the after-state (commit decision
//     found on a sibling) — never in between, on either shard.
//   - A kill -9 harness (child process re-execution) that murders a
//     cluster of 1 and of 2 shards under live stress traffic and checks
//     acknowledged generations, replica agreement, and instance
//     invariants after recovery.

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/viewobject"
)

const (
	recCrossPrepare byte = 4
	recCrossDecide  byte = 5
)

// crashSpec is the stress traffic every crash-matrix test runs: small
// enough that the full truncation matrix stays fast, concurrent enough
// (readers racing writers) that the suite is meaningful under -race.
var crashSpec = StressSpec{
	Tree:    TreeSpec{Depth: 1, Width: 1, Fanout: 1, Roots: 2, Peninsulas: 1},
	Readers: 1,
	Writers: 2,
	Cycles:  2,
}

// shard0 is a 1-shard cluster's data directory under dir.
func shard0(dir string) string { return filepath.Join(dir, "shard-0") }

// crashOpen opens a durable 1-shard cluster in dir and builds the
// workload over it, subscribed before the build so the oracle witnesses
// every generation from 1 (DDL included).
func crashOpen(t *testing.T, dir string) (*ShardedWorkload, *reldb.Subscription) {
	t.Helper()
	c, err := shard.Open(dir, 1, reldb.OpenOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	sub := c.DB(0).Subscribe(1 << 16)
	sw, err := buildSharded(c, crashSpec.Tree, true)
	if err != nil {
		t.Fatal(err)
	}
	return sw, sub
}

// crashClose closes the cluster and returns the per-generation digest
// oracle its shadow subscription accumulated.
func crashClose(t *testing.T, sw *ShardedWorkload, sub *reldb.Subscription) *genOracle {
	t.Helper()
	head := sw.C.DB(0).Generation()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	oracle, err := buildOracle(sub, head)
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// crashRun builds a durable workload in dir, runs stress traffic over
// it, closes it, and returns the oracle.
func crashRun(t *testing.T, dir string) *genOracle {
	t.Helper()
	sw, sub := crashOpen(t, dir)
	res, err := RunStressOn(sw, crashSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("stress violations before crash: %v", res.Violations)
	}
	return crashClose(t, sw, sub)
}

// copyShard0 copies the 1-shard cluster in src to dst, so a crash copy
// can be mutilated and reopened without disturbing the original; it
// returns the copy's shard directory.
func copyShard0(t *testing.T, dst, src string) string {
	t.Helper()
	if err := copyDir(shard0(dst), shard0(src)); err != nil {
		t.Fatal(err)
	}
	return shard0(dst)
}

// reopenAt copies the cluster, truncates the tail segment to cut bytes,
// reopens, and asserts the recovered shard is byte-for-byte the oracle
// state at the generation the surviving prefix reaches — then that the
// next generation advance continues the sequence.
func reopenAt(t *testing.T, src, tailSeg string, cut int64, wantGen uint64, oracle *genOracle, scratch string) {
	t.Helper()
	if err := os.Truncate(filepath.Join(copyShard0(t, scratch, src), filepath.Base(tailSeg)), cut); err != nil {
		t.Fatal(err)
	}
	c, err := shard.Open(scratch, 1, reldb.OpenOptions{Sync: reldb.SyncNone, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("cut at %d: reopen: %v", cut, err)
	}
	defer c.Close()
	db := c.DB(0)
	if g := db.Generation(); g != wantGen {
		t.Fatalf("cut at %d: recovered generation %d, want %d", cut, g, wantGen)
	}
	want, ok := oracle.Digests[wantGen]
	if !ok {
		t.Fatalf("cut at %d: oracle has no digest for gen %d", cut, wantGen)
	}
	if got := DigestDatabase(db); got != want {
		t.Fatalf("cut at %d: recovered state digest %x != oracle digest %x at gen %d", cut, got, want, wantGen)
	}
	// Generation continuity: the next advance (a DDL, valid on any
	// recovered state) publishes wantGen+1 to a fresh subscriber —
	// the delta stream continues gap-free after recovery.
	sub := db.Subscribe(4)
	if _, err := db.CreateRelation(reldb.MustSchema("ZZZ_CONT", []reldb.Attribute{
		{Name: "K", Type: reldb.KindInt},
	}, []string{"K"})); err != nil {
		t.Fatalf("cut at %d: post-recovery DDL: %v", cut, err)
	}
	batches, lost := sub.Poll()
	if lost || len(batches) != 1 || batches[0].Gen != wantGen+1 {
		t.Fatalf("cut at %d: post-recovery advance published %v (lost=%v), want gen %d", cut, batches, lost, wantGen+1)
	}
}

// TestCrashMatrixTruncation cuts the WAL at every record boundary and
// at byte-group sub-offsets inside every record (mid-length, mid-CRC,
// payload start, mid-payload, last byte), plus inside the segment
// header. Every cut must recover to exactly the oracle state of the
// last whole record — full replay of the surviving prefix, never a
// partial or torn state.
func TestCrashMatrixTruncation(t *testing.T) {
	dir := t.TempDir()
	oracle := crashRun(t, dir)

	segs, err := dataFiles(shard0(dir), "wal-", ".log")
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	recs, err := scanWALRecords(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != oracle.Head {
		t.Fatalf("%d WAL records for %d generations", len(recs), oracle.Head)
	}

	// genAt: the generation the log prefix [0, cut) reaches.
	genAt := func(cut int64) uint64 {
		var g uint64
		for _, r := range recs {
			if r.End <= cut {
				g = r.Gen
			}
		}
		return g
	}

	cuts := map[int64]bool{0: true, 3: true, walSegmentMagicLen: true}
	for _, r := range recs {
		payload := r.End - (r.Off + 8)
		for _, c := range []int64{r.Off, r.Off + 1, r.Off + 4, r.Off + 6, r.Off + 8, r.Off + 8 + payload/2, r.End - 1, r.End} {
			cuts[c] = true
		}
	}
	n := 0
	for cut := range cuts {
		reopenAt(t, dir, segs[0], cut, genAt(cut), oracle, filepath.Join(t.TempDir(), fmt.Sprintf("cut%d", cut)))
		n++
	}
	t.Logf("verified %d truncation points over %d records", n, len(recs))
}

// TestCrashMatrixCorruption flips a byte inside records away from the
// tail: that cannot be a torn append, so recovery must refuse with
// ErrWALCorrupt rather than silently truncate committed generations.
func TestCrashMatrixCorruption(t *testing.T) {
	dir := t.TempDir()
	crashRun(t, dir)
	segs, _ := dataFiles(shard0(dir), "wal-", ".log")
	recs, err := scanWALRecords(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("need >= 3 records, have %d", len(recs))
	}
	for _, idx := range []int{0, len(recs) / 2, len(recs) - 2} {
		r := recs[idx]
		scratch := filepath.Join(t.TempDir(), fmt.Sprintf("flip%d", idx))
		path := filepath.Join(copyShard0(t, scratch, dir), filepath.Base(segs[0]))
		data, _ := os.ReadFile(path)
		data[r.Off+8+(r.End-r.Off-8)/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := shard.Open(scratch, 1, reldb.OpenOptions{})
		if !errors.Is(err, reldb.ErrWALCorrupt) {
			t.Fatalf("record %d byte flip: open = %v, want ErrWALCorrupt", idx, err)
		}
	}
}

// TestCrashMatrixCheckpoint runs traffic across a checkpoint, then
// injects every crash the checkpoint protocol can leave behind:
// truncations of the post-checkpoint tail (recovery = snapshot + tail
// prefix), a torn named snapshot (distinct corruption error), and a
// deleted snapshot whose segments were already pruned (generation gap).
func TestCrashMatrixCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sw, sub := crashOpen(t, dir)
	if _, err := RunStressOn(sw, crashSpec); err != nil {
		t.Fatal(err)
	}
	ckGen, err := sw.C.DB(0).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic lands in the rolled tail segment.
	if _, err := RunStressOn(sw, crashSpec); err != nil {
		t.Fatal(err)
	}
	oracle := crashClose(t, sw, sub)
	head := oracle.Head

	snaps, _ := dataFiles(shard0(dir), "snap-", ".pngw")
	segs, _ := dataFiles(shard0(dir), "wal-", ".log")
	if len(snaps) != 1 || len(segs) != 1 {
		t.Fatalf("after checkpoint: snaps=%v segs=%v, want one of each (pruned)", snaps, segs)
	}
	recs, err := scanWALRecords(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Gen <= ckGen {
			t.Fatalf("tail segment holds gen %d at or below checkpoint %d", r.Gen, ckGen)
		}
	}

	// Truncation matrix over the tail: below any surviving record the
	// state is the snapshot itself (ckGen).
	genAt := func(cut int64) uint64 {
		g := ckGen
		for _, r := range recs {
			if r.End <= cut {
				g = r.Gen
			}
		}
		return g
	}
	cuts := map[int64]bool{walSegmentMagicLen: true}
	for _, idx := range []int{0, len(recs) / 2, len(recs) - 1} {
		r := recs[idx]
		for _, c := range []int64{r.Off, r.Off + 5, r.Off + 8 + (r.End-r.Off-8)/2, r.End} {
			cuts[c] = true
		}
	}
	for cut := range cuts {
		reopenAt(t, dir, segs[0], cut, genAt(cut), oracle, filepath.Join(t.TempDir(), fmt.Sprintf("ck%d", cut)))
	}

	// A torn snapshot is distinct, reported corruption.
	scratch := filepath.Join(t.TempDir(), "tornsnap")
	snapCopy := filepath.Join(copyShard0(t, scratch, dir), filepath.Base(snaps[0]))
	data, _ := os.ReadFile(snapCopy)
	if err := os.WriteFile(snapCopy, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Open(scratch, 1, reldb.OpenOptions{}); !errors.Is(err, reldb.ErrSnapshotCorrupt) {
		t.Fatalf("torn snapshot: open = %v, want ErrSnapshotCorrupt", err)
	}

	// Deleting the snapshot leaves a generation gap (its segments were
	// pruned): refused, not bridged.
	scratch = filepath.Join(t.TempDir(), "nosnap")
	os.Remove(filepath.Join(copyShard0(t, scratch, dir), filepath.Base(snaps[0])))
	if _, err := shard.Open(scratch, 1, reldb.OpenOptions{}); !errors.Is(err, reldb.ErrWALCorrupt) {
		t.Fatalf("missing snapshot: open = %v, want ErrWALCorrupt", err)
	}

	// A crashed checkpoint's .tmp stray is ignored and cleaned up.
	scratch = filepath.Join(t.TempDir(), "tmpstray")
	stray := filepath.Join(copyShard0(t, scratch, dir), "snap-ffffffffffffffff.pngw.tmp")
	os.WriteFile(stray, []byte("half"), 0o644)
	re, err := shard.Open(scratch, 1, reldb.OpenOptions{Sync: reldb.SyncNone, CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("tmp stray: %v", err)
	}
	if g := re.DB(0).Generation(); g != head {
		t.Fatalf("tmp stray: recovered gen %d, want %d", g, head)
	}
	re.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("tmp stray not cleaned up")
	}
}

// digestReplicas digests each replicated (non-island) relation per
// shard; divergence between shards is a broken replication invariant.
func digestReplicas(sw *ShardedWorkload, rels []string) ([]uint64, error) {
	out := make([]uint64, sw.C.N())
	for i := 0; i < sw.C.N(); i++ {
		h := fnv.New64a()
		rtx := sw.C.DB(i).BeginRead()
		for _, name := range rels {
			rel, err := rtx.Relation(name)
			if err != nil {
				rtx.Close()
				return nil, err
			}
			var eks []string
			rel.Scan(func(t reldb.Row) bool {
				eks = append(eks, t.Encode())
				return true
			})
			sort.Strings(eks)
			io.WriteString(h, name)
			for _, ek := range eks {
				io.WriteString(h, ek)
				h.Write([]byte{0})
			}
		}
		rtx.Close()
		out[i] = h.Sum64()
	}
	return out, nil
}

// clusterDigests digests every shard's full state.
func clusterDigests(sw *ShardedWorkload) []uint64 {
	out := make([]uint64, sw.C.N())
	for i := range out {
		out[i] = DigestDatabase(sw.C.DB(i))
	}
	return out
}

// TestCrashMatrixCrossShard2PC is the deterministic matrix: one known
// cross-shard deletion is the last update in both logs; the matrix cuts
// each shard's tail at the decide and prepare records and asserts
// both-or-neither on reopen.
func TestCrashMatrixCrossShard2PC(t *testing.T) {
	const nShards = 2
	spec := crashSpec.Tree
	dir := t.TempDir()
	sw, err := OpenShardedTree(dir, nShards, spec, reldb.OpenOptions{CheckpointInterval: -1}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Quiesce, then record the before-state, run exactly one cross-shard
	// update (VO-CD touches the replicated peninsula), record the
	// after-state, and close cleanly.
	before := clusterDigests(sw)
	gensBefore := sw.C.Generations()
	if _, err := sw.C.DeleteByKey(ShardedObject, reldb.Tuple{reldb.Int(0)}); err != nil {
		t.Fatal(err)
	}
	after := clusterDigests(sw)
	gensAfter := sw.C.Generations()
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nShards; i++ {
		if gensAfter[i] != gensBefore[i]+1 {
			t.Fatalf("shard %d: deletion advanced gen %d -> %d, want one cross-shard commit on every shard",
				i, gensBefore[i], gensAfter[i])
		}
	}

	// Locate each shard's final prepare/decide pair.
	type tail struct {
		seg             string
		prepOff, decOff int64
	}
	tails := make([]tail, nShards)
	for i := 0; i < nShards; i++ {
		segs, err := dataFiles(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), "wal-", ".log")
		if err != nil || len(segs) != 1 {
			t.Fatalf("shard %d segments: %v %v", i, segs, err)
		}
		recs, err := scanWALRecords(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) < 2 {
			t.Fatalf("shard %d: %d records", i, len(recs))
		}
		dec, prep := recs[len(recs)-1], recs[len(recs)-2]
		if dec.Type != recCrossDecide || prep.Type != recCrossPrepare {
			t.Fatalf("shard %d tail types %d,%d, want prepare,decide", i, prep.Type, dec.Type)
		}
		tails[i] = tail{seg: segs[0], prepOff: prep.Off, decOff: dec.Off}
	}

	// reopenCut copies the cluster, truncates shard i's log at cuts[i]
	// (0 = no cut), reopens, and returns the recovered workload.
	reopenCut := func(name string, cuts [nShards]int64) *ShardedWorkload {
		t.Helper()
		scratch := filepath.Join(t.TempDir(), name)
		for i := 0; i < nShards; i++ {
			sub := fmt.Sprintf("shard-%d", i)
			if err := copyDir(filepath.Join(scratch, sub), filepath.Join(dir, sub)); err != nil {
				t.Fatal(err)
			}
			if cuts[i] > 0 {
				if err := os.Truncate(filepath.Join(scratch, sub, filepath.Base(tails[i].seg)), cuts[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		re, err := OpenShardedTree(scratch, nShards, spec, reldb.OpenOptions{Sync: reldb.SyncNone, CheckpointInterval: -1}, false)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		for i := 0; i < nShards; i++ {
			if xids := re.C.DB(i).InDoubt(); len(xids) != 0 {
				t.Fatalf("%s: shard %d still in doubt: %v", name, i, xids)
			}
		}
		return re
	}
	check := func(name string, re *ShardedWorkload, want []uint64) {
		t.Helper()
		defer re.Close()
		got := clusterDigests(re)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: shard %d digest %x, want %x (half-committed island)", name, i, got[i], want[i])
			}
		}
	}

	// Decide lost on shard 1: shard 0's decision is the cluster commit
	// point — recovery must commit the in-doubt prepare on shard 1.
	check("decide-lost-1", reopenCut("decide-lost-1", [nShards]int64{0, tails[1].decOff}), after)
	// Symmetric: decide lost on shard 0.
	check("decide-lost-0", reopenCut("decide-lost-0", [nShards]int64{tails[0].decOff, 0}), after)
	// Both decides lost: no decision anywhere — presumed abort, both
	// shards back to the before-state.
	check("both-decides-lost", reopenCut("both-decides-lost", [nShards]int64{tails[0].decOff, tails[1].decOff}), before)
	// Both pairs lost entirely (crash before any prepare was durable):
	// the update never happened anywhere.
	check("both-prepares-lost", reopenCut("both-prepares-lost", [nShards]int64{tails[0].prepOff, tails[1].prepOff}), before)
}

// crashChildEnv carries the data dir to the re-executed child process.
const crashChildEnv = "PENGUIN_CRASH_CHILD_DIR"

// TestCrashMatrixKill9 is the end-to-end crash test, at 1 and 2 shards:
// a child process (this test binary re-executed into the same subtest)
// runs durable stress traffic with checkpointers racing it — at 2 shards
// constant cross-shard 2PC traffic — acknowledging each completed round
// in a synced side file; the parent SIGKILLs it mid-traffic and reopens
// the directory. Every acknowledged per-shard generation must survive,
// replicas must agree, the recovered state must be translation-atomic
// (instance shape and stamp invariants), and the generation sequence
// must continue.
func TestCrashMatrixKill9(t *testing.T) {
	for _, n := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			if dir := os.Getenv(crashChildEnv); dir != "" {
				crashChild(dir, n)
				return // unreachable: the child loops until killed
			}
			testKill9(t, n)
		})
	}
}

func testKill9(t *testing.T, n int) {
	dir := t.TempDir()
	ack := filepath.Join(dir, "acked") // beside the shard-<i> directories
	cmd := exec.Command(os.Args[0], fmt.Sprintf("-test.run=^TestCrashMatrixKill9$/^shards=%d$", n), "-test.v")
	cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
	var childOut strings.Builder
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for at least two acknowledged rounds, then kill mid-flight.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(ack); err == nil && strings.Count(string(data), "\n") >= 2 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child never acknowledged traffic; output:\n%s", childOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(37 * time.Millisecond) // land the kill inside a traffic round
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if strings.Contains(childOut.String(), "CHILD-ERROR") {
		t.Fatalf("child failed before the kill:\n%s", childOut.String())
	}

	// Last complete ack line: "gen digest" per shard.
	ackGen := make([]uint64, n)
	ackDigest := make([]uint64, n)
	acked := false
	f, err := os.Open(ack)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2*n {
			continue
		}
		g := make([]uint64, n)
		d := make([]uint64, n)
		ok := true
		for i := 0; i < n; i++ {
			var e1, e2 error
			g[i], e1 = strconv.ParseUint(fields[2*i], 10, 64)
			d[i], e2 = strconv.ParseUint(fields[2*i+1], 16, 64)
			if e1 != nil || e2 != nil {
				ok = false
			}
		}
		if ok {
			copy(ackGen, g)
			copy(ackDigest, d)
			acked = true
		}
	}
	f.Close()
	if !acked {
		t.Fatalf("no complete ack line; output:\n%s", childOut.String())
	}

	// Reopen: shard.Open replays every log and resolves in-doubt
	// prepares cluster-wide before returning.
	sw, err := OpenShardedTree(dir, n, crashSpec.Tree, reldb.OpenOptions{CheckpointInterval: -1}, false)
	if err != nil {
		t.Fatalf("reopen after kill -9: %v", err)
	}
	defer sw.Close()

	// Durability: no acknowledged per-shard generation may be lost.
	for i := 0; i < n; i++ {
		g := sw.C.DB(i).Generation()
		if g < ackGen[i] {
			t.Fatalf("shard %d recovered generation %d lost acknowledged %d", i, g, ackGen[i])
		}
		if g == ackGen[i] {
			if got := DigestDatabase(sw.C.DB(i)); got != ackDigest[i] {
				t.Fatalf("shard %d digest %x != acknowledged %x at gen %d", i, got, ackDigest[i], g)
			}
		}
	}

	// Replication: the peninsula replicas must agree byte-for-byte — a
	// half-committed cross-shard update would leave them divergent.
	reps, err := digestReplicas(sw, sw.Shards[0].PeninsulaRels)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if reps[i] != reps[0] {
			t.Fatalf("replica divergence after recovery: shard 0 %x, shard %d %x", reps[0], i, reps[i])
		}
	}

	// Translation atomicity: every recoverable instance is whole and
	// uniformly stamped — commits are atomic, so any committed prefix
	// passes the same invariants the live readers check.
	for k := 0; k < crashSpec.Tree.Roots; k++ {
		inst, ok, err := sw.C.InstantiateByKey(ShardedObject, reldb.Tuple{reldb.Int(int64(k))})
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !ok {
			continue // killed between this key's VO-CD and VO-CI
		}
		if msg := checkInstance(sw.Shards[0], crashSpec.Tree, inst); msg != "" {
			t.Fatalf("key %d recovered torn: %s", k, msg)
		}
	}

	// And the clock still runs forward: a fresh pivot-only insert routes,
	// translates, and commits as exactly one generation on its home shard.
	fresh := viewobject.MustNewInstance(sw.Shards[0].Def, reldb.Tuple{reldb.Int(999999), reldb.String("post-crash")})
	home, err := sw.C.HomeOf(ShardedObject, reldb.Tuple{reldb.Int(999999)})
	if err != nil {
		t.Fatal(err)
	}
	before := sw.C.DB(home).Generation()
	if _, err := sw.C.InsertInstance(ShardedObject, fresh); err != nil {
		t.Fatalf("post-crash insert: %v", err)
	}
	if g := sw.C.DB(home).Generation(); g != before+1 {
		t.Fatalf("post-crash commit advanced shard %d %d -> %d", home, before, g)
	}
}

// crashChild is the killed process: durable stress rounds forever over
// n shards, with fast background checkpointers racing the traffic,
// acknowledging per-shard "gen digest" pairs into a synced side file
// after each round.
func crashChild(dir string, n int) {
	fail := func(err error) {
		fmt.Printf("CHILD-ERROR: %v\n", err)
		os.Exit(1)
	}
	sw, err := OpenShardedTree(dir, n, crashSpec.Tree, reldb.OpenOptions{CheckpointInterval: 50 * time.Millisecond}, true)
	if err != nil {
		fail(err)
	}
	ack, err := os.OpenFile(filepath.Join(dir, "acked"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fail(err)
	}
	for {
		if _, err := RunStressOn(sw, crashSpec); err != nil {
			fail(err)
		}
		// RunStressOn returned: every one of its commits was
		// acknowledged, hence fsynced (SyncCommit). The ack itself is
		// synced so the parent only trusts complete lines.
		fields := make([]string, 0, 2*n)
		for i := 0; i < n; i++ {
			fields = append(fields, fmt.Sprintf("%d %x", sw.C.DB(i).Generation(), DigestDatabase(sw.C.DB(i))))
		}
		if _, err := fmt.Fprintln(ack, strings.Join(fields, " ")); err != nil {
			fail(err)
		}
		if err := ack.Sync(); err != nil {
			fail(err)
		}
	}
}
