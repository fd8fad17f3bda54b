package workload

import (
	"runtime"
	"testing"
)

// maxBytesPerRow is the live-heap ceiling for a stored row of the tree
// workload: its row string and its row-tree slot. There is no index entry
// per owned row: an owned relation's key lists its owner's key first, so
// an ownership crossing probes the row tree, and only the peninsula's
// reference edge keeps an index. A tuple of 48-byte Values cost about
// 353 B a row here, of 32-byte Values about 293; one row string, its key
// a prefix of it, about 167 while every owned row also had an edge-index
// entry; about 89 without.
const maxBytesPerRow = 100

// liveHeap is HeapAlloc after two collections: the second sweeps what
// the first one's finalizers released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesPerRow pins what a stored row costs in live heap. It
// takes the least of three builds, so a goroutine or cache that a build
// leaves behind cannot fail it.
func TestResidentBytesPerRow(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not the engine's footprint")
	}
	spec := TreeSpec{Depth: 2, Width: 2, Fanout: 3, Peninsulas: 1, Roots: 1000}
	best := 0.0
	for i := 0; i < 3; i++ {
		before := liveHeap()
		sw, err := NewShardedTree(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows := sw.C.TotalRows()
		after := liveHeap()
		runtime.KeepAlive(sw)
		perRow := float64(int64(after)-int64(before)) / float64(rows)
		if i == 0 || perRow < best {
			best = perRow
		}
	}
	t.Logf("%.1f B of live heap per stored row", best)
	if best > maxBytesPerRow {
		t.Fatalf("a stored row costs %.1f B of live heap, want at most %d", best, maxBytesPerRow)
	}
}
