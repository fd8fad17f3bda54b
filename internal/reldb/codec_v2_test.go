package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSnapshotRestoresGeneration is the regression test for the restart
// bug: ReadSnapshot used to return a database with the generation
// counter reset to 0, so the first post-restore commit published
// generation 1 and every generation-keyed consumer
// (Subscription.StartGen, materializer build gens) silently restarted
// its clock.
func TestSnapshotRestoresGeneration(t *testing.T) {
	db := snapshotDB(t)
	// Push the generation well past the relation count.
	for i := 0; i < 10; i++ {
		if err := db.RunInTx(func(tx *Tx) error {
			return tx.Insert("EMPTY", Tuple{String(fmt.Sprintf("k%d", i))})
		}); err != nil {
			t.Fatal(err)
		}
	}
	oldGen := db.Generation()
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Generation(); g != oldGen {
		t.Fatalf("restored generation = %d, want %d", g, oldGen)
	}
	// A post-restore commit must publish gen = old+1, not 1.
	sub := got.Subscribe(8)
	if err := got.RunInTx(func(tx *Tx) error {
		return tx.Insert("EMPTY", Tuple{String("post-restore")})
	}); err != nil {
		t.Fatal(err)
	}
	batches, lost := sub.Poll()
	if lost || len(batches) != 1 {
		t.Fatalf("poll = %d batches, lost=%v", len(batches), lost)
	}
	if batches[0].Gen != oldGen+1 {
		t.Fatalf("post-restore commit published gen %d, want %d", batches[0].Gen, oldGen+1)
	}
}

// TestSnapshotCorruptionDetected flips one byte at several offsets of a
// v2 snapshot; every flip must fail with an error wrapping
// ErrSnapshotCorrupt — never load as garbage, never report a confusing
// mid-row decode error without the corruption tag.
func TestSnapshotCorruptionDetected(t *testing.T) {
	db := snapshotDB(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Offsets past the version field (flipping magic/version hits the
	// other, non-corruption errors): the generation, relation count,
	// schema bytes, row values, and the CRC trailer itself.
	offsets := []int{6, 10, 14, 20, len(full) / 3, len(full) / 2, len(full) - 10, len(full) - 3, len(full) - 1}
	for _, off := range offsets {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x40
		got, err := ReadSnapshot(bytes.NewReader(mut))
		if err == nil {
			// The flip may produce a structurally valid stream only if it
			// still hashed to the same CRC — impossible for a single bit.
			t.Fatalf("byte flip at offset %d accepted (loaded %d relations)", off, len(got.Names()))
		}
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("byte flip at offset %d: error does not wrap ErrSnapshotCorrupt: %v", off, err)
		}
	}
}

// TestSnapshotTruncatedIsCorrupt: a torn v2 file reports corruption,
// not a bare io error.
func TestSnapshotTruncatedIsCorrupt(t *testing.T) {
	db := snapshotDB(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{7, 15, len(full) / 2, len(full) - 2} {
		_, err := ReadSnapshot(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncated snapshot at %d accepted", cut)
		}
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("truncation at %d: error does not wrap ErrSnapshotCorrupt: %v", cut, err)
		}
	}
}

// TestSnapshotRejectsV1: no writer has produced format version 1 since
// v2 landed, so a v1 stream takes the unsupported-version error instead
// of loading without its generation or a CRC check.
func TestSnapshotRejectsV1(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	writeU16(&buf, 1)
	writeU32(&buf, 0) // v1 body: zero relations
	_, err := ReadSnapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("v1 snapshot: err = %v, want unsupported snapshot version 1", err)
	}
}

// gatedWriter blocks its first Write until release is closed, and
// signals started so the test knows serialization is in flight.
type gatedWriter struct {
	started chan struct{}
	release chan struct{}
	once    bool
	buf     bytes.Buffer
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	if !g.once {
		g.once = true
		close(g.started)
		<-g.release
	}
	return g.buf.Write(p)
}

// TestWriteSnapshotDoesNotBlockCommits is the regression test for the
// checkpoint-stall bug: WriteSnapshot used to hold db.mu.RLock for the
// entire serialization, so a commit could not publish until the last
// byte was written. Serialization now runs from a COW ReadTx, and a
// commit must complete while the snapshot writer is stalled mid-write.
func TestWriteSnapshotDoesNotBlockCommits(t *testing.T) {
	db := snapshotDB(t)
	g := &gatedWriter{started: make(chan struct{}), release: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- db.WriteSnapshot(g) }()
	<-g.started // serialization is in flight, first Write is stalled

	committed := make(chan error, 1)
	go func() {
		committed <- db.RunInTx(func(tx *Tx) error {
			return tx.Insert("EMPTY", Tuple{String("mid-snapshot")})
		})
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatalf("concurrent commit failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit blocked while a snapshot was being written")
	}

	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The snapshot is the state pinned at BeginRead: it must load
	// cleanly and must not contain the concurrent commit.
	got, err := ReadSnapshot(bytes.NewReader(g.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got.MustRelation("EMPTY").Get(Tuple{String("mid-snapshot")}); ok {
		t.Fatal("snapshot contains a commit from after its pinned generation")
	}
}
