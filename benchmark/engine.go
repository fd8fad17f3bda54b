package main

// engine.go is the benchmark's only door into the engine. Every call the
// other files make into penguin/internal/... goes through a function in
// this file, so a refactor of the engine has one file to follow and the
// measuring code never learns an engine type by name.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"penguin/internal/obs"
	"penguin/internal/oql"
	"penguin/internal/reldb"
	"penguin/internal/serve"
	"penguin/internal/structural"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
	"penguin/internal/workload"
)

// The served object and the shape every instance of it has under
// treeSpec: 1 pivot + 2·3 children + 4·9 grandchildren island rows, and
// 3 rows of the one peninsula that references the pivot.
const (
	objectName           = workload.ShardedObject
	objectURL            = "/objects/" + objectName
	fanout               = 3
	islandRowsPerRoot    = 43
	peninsulaRowsPerRoot = 3
	nodesPerInstance     = islandRowsPerRoot + peninsulaRowsPerRoot
	pivotRel             = "N0"
	childRel             = "N0_0"
	leafRel              = "N0_0_0"
)

type (
	instance = *viewobject.Instance
	query    = viewobject.Query
)

// datasetConfig names one synthetic database. It crosses the process
// boundary as JSON: the parent hands it to the serving child.
type datasetConfig struct {
	Roots  int `json:"roots"`
	Shards int `json:"shards"`
	// Dir is the data directory of a durable dataset (SyncCommit: every
	// acknowledged commit is fsynced, group-batched); empty means in
	// memory.
	//
	// A durable dataset runs with the background checkpointer off. With
	// it on (every 2 s), about one checkpoint in eighty at 300 commits/s
	// poisons the log for good (every later commit answers 500 "wal fsync: ... file
	// already closed"): wal.syncPass picks up the active segment's file,
	// wal.roll swaps and closes it under fsyncMu, and syncPass then
	// fsyncs the closed file and makes the error sticky. That is the
	// engine's to fix (ROADMAP aim 3); a benchmark must not fail one run
	// in ten on it. Checkpoint cost is in the ledger, taken with no
	// commit in flight.
	Dir string `json:"dir,omitempty"`
}

func (c datasetConfig) spec() workload.TreeSpec {
	return workload.TreeSpec{Depth: 2, Width: 2, Fanout: fanout, Peninsulas: 1, Roots: c.Roots}
}

// seededRows is the row count of a freshly seeded dataset: island rows
// live on one shard, peninsula rows on every shard.
func (c datasetConfig) seededRows() int {
	return c.Roots * (islandRowsPerRoot + peninsulaRowsPerRoot*c.Shards)
}

// engine is one opened dataset.
type engine struct {
	cfg datasetConfig
	sw  *workload.ShardedWorkload
}

// openEngine builds (create) or reopens a dataset.
func openEngine(cfg datasetConfig, create bool) (*engine, error) {
	var (
		sw  *workload.ShardedWorkload
		err error
	)
	if cfg.Dir == "" {
		sw, err = workload.NewShardedTree(cfg.spec(), cfg.Shards)
	} else {
		opts := reldb.OpenOptions{Sync: reldb.SyncCommit, CheckpointInterval: -1}
		sw, err = workload.OpenShardedTree(cfg.Dir, cfg.Shards, cfg.spec(), opts, create)
	}
	if err != nil {
		return nil, fmt.Errorf("open dataset %+v: %w", cfg, err)
	}
	return &engine{cfg: cfg, sw: sw}, nil
}

func (e *engine) close() error   { return e.sw.Close() }
func (e *engine) totalRows() int { return e.sw.C.TotalRows() }

func (e *engine) handler() http.Handler {
	return serve.New(serve.Config{Cluster: e.sw.C}).Handler()
}

// listen serves the dataset on a loopback port the kernel picks.
func (e *engine) listen() (addr string, stop func(), err error) {
	_, hs, err := serve.Start("127.0.0.1:0", serve.Config{Cluster: e.sw.C})
	if err != nil {
		return "", nil, err
	}
	stop = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // the process is about to exit; nothing to report to
	}
	return hs.Addr().String(), stop, nil
}

// audit counts integrity violations over every shard. On more than one
// shard a replicated peninsula row legitimately references a pivot that
// lives on another shard, so dangling references are only counted on a
// single-shard dataset.
func (e *engine) audit() (int, error) {
	bad := 0
	for i, w := range e.sw.Shards {
		rtx := e.sw.C.DB(i).BeginRead()
		vs, err := (&structural.Integrity{G: w.G}).Audit(rtx)
		rtx.Close()
		if err != nil {
			return 0, err
		}
		for _, v := range vs {
			if v.Conn.Type == structural.Reference && e.cfg.Shards > 1 {
				continue
			}
			bad++
		}
	}
	return bad, nil
}

func keyOf(k int) reldb.Tuple { return reldb.Tuple{reldb.Int(int64(k))} }

// ---- serve codec ---------------------------------------------------

// encodeDoc is what the GET handler does with an assembled instance.
func encodeDoc(inst instance) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(serve.InstanceDoc(inst))
	return buf.Bytes(), err
}

// decodeDoc is what the update handlers do with a request document.
func (e *engine) decodeDoc(raw []byte) (instance, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	return serve.InstanceFromDoc(e.sw.Shards[0].Def, doc)
}

// docJSON renders the stored instance under key as the GET handler
// would, without HTTP: the post-crash sweep reads a reopened dataset
// with it.
func (e *engine) docJSON(k int) ([]byte, bool, error) {
	inst, ok, err := e.sw.C.InstantiateByKey(objectName, keyOf(k))
	if err != nil || !ok {
		return nil, ok, err
	}
	raw, err := encodeDoc(inst)
	return raw, true, err
}

// ---- shard layer ---------------------------------------------------

func (e *engine) route(k int) (int, error) { return e.sw.C.HomeOf(objectName, keyOf(k)) }

func (e *engine) clusterGet(k int) (instance, error) {
	inst, ok, err := e.sw.C.InstantiateByKey(objectName, keyOf(k))
	if err == nil && !ok {
		err = fmt.Errorf("no instance %d", k)
	}
	return inst, err
}

func (e *engine) clusterQuery(q query) (int, error) {
	insts, err := e.sw.C.Instantiate(objectName, q)
	return len(insts), err
}

func (e *engine) clusterReplace(oldInst, newInst instance) error {
	_, err := e.sw.C.ReplaceInstance(objectName, oldInst, newInst)
	return err
}

func (e *engine) clusterDelete(k int) error {
	_, err := e.sw.C.DeleteByKey(objectName, keyOf(k))
	return err
}

func (e *engine) clusterInsert(inst instance) error {
	_, err := e.sw.C.InsertInstance(objectName, inst)
	return err
}

// generationsAdvanced counts the shards whose commit generation moved
// while fn ran: more than one means the update took the cross-shard
// commit.
func (e *engine) generationsAdvanced(fn func() error) (int, error) {
	before := e.sw.C.Generations()
	err := fn()
	n := 0
	for i, g := range e.sw.C.Generations() {
		if g != before[i] {
			n++
		}
	}
	return n, err
}

// ---- viewobject and oql layers (shard 0) ---------------------------

func (e *engine) parseQuery(src string) (query, error) {
	return oql.Parse(e.sw.Shards[0].Def, src)
}

// readView is a pinned snapshot of shard 0; get and query are the
// viewobject calls the shard layer makes on it.
type readView struct {
	rtx *reldb.ReadTx
	def *viewobject.Definition
}

func (e *engine) beginRead() readView {
	return readView{rtx: e.sw.C.DB(0).BeginRead(), def: e.sw.Shards[0].Def}
}

func (v readView) close() { v.rtx.Close() }

func (v readView) get(k int) (instance, error) {
	inst, ok, err := viewobject.InstantiateByKey(v.rtx, v.def, keyOf(k))
	if err == nil && !ok {
		err = fmt.Errorf("no instance %d", k)
	}
	return inst, err
}

func (v readView) query(q query) (int, error) {
	insts, err := viewobject.Instantiate(v.rtx, v.def, q)
	return len(insts), err
}

// pivotGet is Relation.Get on the pivot; edgeProbe is the edge-index
// probe (through the relation's plan cache) that assembly makes once
// per parent and child relation.
func (v readView) pivotGet(k int) bool {
	_, ok := v.rtx.MustRelation(pivotRel).Get(keyOf(k))
	return ok
}

func (v readView) edgeProbe(k int) (int, error) {
	rows, err := v.rtx.MustRelation(childRel).MatchEqual([]string{"K0"}, keyOf(k))
	return len(rows), err
}

// materializer is the delta-patched instance cache over shard 0, which
// no serving path reads yet.
type materializer struct{ m *viewobject.Materializer }

func (e *engine) newMaterializer() materializer {
	return materializer{viewobject.NewMaterializer(e.sw.C.DB(0), e.sw.Shards[0].Def)}
}

func (m materializer) close() { m.m.Close() }

func (m materializer) get(k int) error {
	_, ok, err := m.m.InstantiateByKey(keyOf(k))
	if err == nil && !ok {
		err = fmt.Errorf("no materialized instance %d", k)
	}
	return err
}

// withPivotV and withLeafV return a copy of inst with one attribute
// rewritten: the two replacements of the write mix.
func (e *engine) withPivotV(inst instance, v string) (instance, error) {
	out := inst.Clone()
	return out, out.Root().SetAttr(out.Definition(), "V", reldb.String(v))
}

func (e *engine) withLeafV(inst instance, v string) (instance, error) {
	out := inst.Clone()
	leaf := out.Root().Children(childRel)[0].Children(leafRel)[0]
	return out, leaf.SetAttr(out.Definition(), "V", reldb.String(v))
}

// ---- vupdate layer (shard 0, no coordinator) -----------------------

type updater struct{ u *vupdate.Updater }

func (e *engine) updater() updater {
	return updater{vupdate.NewUpdater(vupdate.PermissiveTranslator(e.sw.Shards[0].Def))}
}

func opCount(res *vupdate.Result, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return len(res.Ops), nil
}

func (u updater) previewReplace(o, n instance) (int, error) {
	return opCount(u.u.PreviewReplaceInstance(o, n))
}
func (u updater) previewDelete(k int) (int, error) { return opCount(u.u.PreviewDeleteByKey(keyOf(k))) }
func (u updater) previewInsert(i instance) (int, error) {
	return opCount(u.u.PreviewInsertInstance(i))
}
func (u updater) replace(o, n instance) (int, error) { return opCount(u.u.ReplaceInstance(o, n)) }
func (u updater) delete(k int) (int, error)          { return opCount(u.u.DeleteByKey(keyOf(k))) }
func (u updater) insert(i instance) (int, error)     { return opCount(u.u.InsertInstance(i)) }

// ---- reldb layer (shard 0) -----------------------------------------

// commitOneRow replaces the payload of one pivot row in its own
// transaction: the smallest commit the engine can make.
func (e *engine) commitOneRow(k int, v string) error {
	return e.sw.C.DB(0).RunInTx(func(tx *reldb.Tx) error {
		_, err := tx.Replace(pivotRel, keyOf(k), reldb.Tuple{reldb.Int(int64(k)), reldb.String(v)})
		return err
	})
}

func (e *engine) checkpoint() error {
	_, err := e.sw.C.DB(0).Checkpoint()
	return err
}

// walReplayed is the process-wide count of log records recovery has
// applied; its growth across a reopen is that reopen's replay length.
func walReplayed() int64 { return obs.Default.WALReplayed.Load() }

// dirBytes sums the sizes of the files under dir whose base name starts
// with prefix ("" for all).
func dirBytes(dir, prefix string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() && strings.HasPrefix(info.Name(), prefix) {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
