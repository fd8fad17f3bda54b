// Crash-injection harness: machinery for proving that recovery restores
// exactly the last committed state at any kill point.
//
// The harness drives real stress traffic (RunStressOn) over a durable
// 1-shard cluster while a delta subscription on its database shadows
// every committed generation into an in-memory model. Each generation's
// model state is digested, giving an oracle: after truncating the WAL at
// any byte offset and reopening, the recovered database must digest equal
// to the oracle at the generation the surviving log prefix reaches — full
// replay or reported corruption, never a state between generations.
package workload

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"

	"penguin/internal/reldb"
)

// shadowState models the database as relation name → set of encoded
// tuples, fed by the delta stream. Existence of a relation matters (a
// created-but-empty relation changes the digest), so structural deltas
// toggle map entries.
type shadowState map[string]map[string]struct{}

// apply folds one delta batch into the model. Structural deltas carry no
// create/drop marker; since a name exists at most once, the toggle rule
// (absent → created, present → dropped) reconstructs the DDL.
func (s shadowState) apply(b reldb.DeltaBatch) error {
	for _, d := range b.Deltas {
		if d.Structural {
			if _, ok := s[d.Relation]; ok {
				delete(s, d.Relation)
			} else {
				s[d.Relation] = make(map[string]struct{})
			}
			continue
		}
		rel, ok := s[d.Relation]
		if !ok {
			return fmt.Errorf("delta for unknown relation %s at gen %d", d.Relation, b.Gen)
		}
		for _, t := range d.Deletes {
			ek := t.Encode()
			if _, ok := rel[ek]; !ok {
				return fmt.Errorf("%s gen %d: delete of absent tuple %s", d.Relation, b.Gen, t)
			}
			delete(rel, ek)
		}
		for _, rc := range d.Replaces {
			ek := rc.Old.Encode()
			if _, ok := rel[ek]; !ok {
				return fmt.Errorf("%s gen %d: replace of absent tuple %s", d.Relation, b.Gen, rc.Old)
			}
			delete(rel, ek)
			rel[rc.New.Encode()] = struct{}{}
		}
		for _, t := range d.Inserts {
			ek := t.Encode()
			if _, ok := rel[ek]; ok {
				return fmt.Errorf("%s gen %d: insert of present tuple %s", d.Relation, b.Gen, t)
			}
			rel[ek] = struct{}{}
		}
	}
	return nil
}

// digest hashes the model deterministically: sorted relation names, each
// followed by its sorted tuple encodings.
func (s shadowState) digest() uint64 {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		io.WriteString(h, n)
		h.Write([]byte{0})
		eks := make([]string, 0, len(s[n]))
		for ek := range s[n] {
			eks = append(eks, ek)
		}
		sort.Strings(eks)
		for _, ek := range eks {
			io.WriteString(h, ek)
			h.Write([]byte{1})
		}
		h.Write([]byte{2})
	}
	return h.Sum64()
}

// DigestDatabase hashes a database's committed state with the same
// function as shadowState.digest, so a recovered database can be
// compared against the oracle's per-generation digests.
func DigestDatabase(db *reldb.Database) uint64 {
	rtx := db.BeginRead()
	defer rtx.Close()
	s := make(shadowState)
	for _, name := range rtx.Names() {
		rel := rtx.MustRelation(name)
		set := make(map[string]struct{}, rel.Count())
		rel.Scan(func(t reldb.Row) bool {
			set[t.Encode()] = struct{}{}
			return true
		})
		s[name] = set
	}
	return s.digest()
}

// genOracle is the per-generation digest table a shadow subscription
// accumulates: Digests[g] is the state digest after generation g.
type genOracle struct {
	Digests map[uint64]uint64
	Head    uint64
}

// buildOracle drains a subscription registered at generation 0 and
// digests every generation up to head. It fails on a gap or overflow —
// the oracle must witness every commit.
func buildOracle(sub *reldb.Subscription, head uint64) (*genOracle, error) {
	o := &genOracle{Digests: make(map[uint64]uint64), Head: head}
	s := make(shadowState)
	o.Digests[0] = s.digest()
	batches, lost := sub.Poll()
	if lost {
		return nil, fmt.Errorf("oracle subscription overflowed; raise its buffer")
	}
	next := uint64(1)
	for _, b := range batches {
		if b.Gen != next {
			return nil, fmt.Errorf("oracle stream gap: got gen %d, want %d", b.Gen, next)
		}
		if err := s.apply(b); err != nil {
			return nil, err
		}
		o.Digests[b.Gen] = s.digest()
		next++
	}
	if next != head+1 {
		return nil, fmt.Errorf("oracle saw generations through %d, head is %d", next-1, head)
	}
	return o, nil
}

// walRecordInfo locates one record inside a segment file: the frame
// starts at Off, ends at End, and carries generation Gen. Type is the
// record type byte (commit=1, create=2, drop=3, cross-prepare=4,
// cross-decide=5 — the format of DESIGN.md §13).
type walRecordInfo struct {
	Off, End int64
	Gen      uint64
	Type     byte
}

// walSegmentMagicLen is the size of the segment header ("PNGWAL01" —
// the format documented in DESIGN.md §13, parsed here independently so
// the harness double-checks the writer against the spec).
const walSegmentMagicLen = 8

// scanWALRecords parses a segment file's record frames (u32 len,
// u32 crc32c(payload), payload = u8 type | u64 gen | body) without
// applying them, returning each record's extent and generation.
func scanWALRecords(path string) ([]walRecordInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < walSegmentMagicLen || string(data[:walSegmentMagicLen]) != "PNGWAL01" {
		return nil, fmt.Errorf("%s: bad segment header", path)
	}
	var recs []walRecordInfo
	off := int64(walSegmentMagicLen)
	for off < int64(len(data)) {
		if off+8 > int64(len(data)) {
			return nil, fmt.Errorf("%s: torn frame at %d", path, off)
		}
		length := int64(binary.BigEndian.Uint32(data[off : off+4]))
		crc := binary.BigEndian.Uint32(data[off+4 : off+8])
		end := off + 8 + length
		if end > int64(len(data)) {
			return nil, fmt.Errorf("%s: record at %d extends past end", path, off)
		}
		payload := data[off+8 : end]
		if crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) != crc {
			return nil, fmt.Errorf("%s: checksum mismatch at %d", path, off)
		}
		if len(payload) < 9 {
			return nil, fmt.Errorf("%s: record at %d too short for type+gen", path, off)
		}
		recs = append(recs, walRecordInfo{Off: off, End: end, Gen: binary.BigEndian.Uint64(payload[1:9]), Type: payload[0]})
		off = end
	}
	return recs, nil
}

// copyDir copies a flat data directory (no subdirectories) so a crash
// copy can be mutilated and reopened without disturbing the original.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dataFiles lists the WAL segments and snapshots in a data directory,
// sorted by name (segments sort by start generation).
func dataFiles(dir, prefix, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if len(name) > len(prefix)+len(suffix) && name[:len(prefix)] == prefix && name[len(name)-len(suffix):] == suffix {
			out = append(out, filepath.Join(dir, name))
		}
	}
	sort.Strings(out)
	return out, nil
}
