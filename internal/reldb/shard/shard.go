// Package shard partitions a database by pivot-key hash into N shards —
// independent reldb.Databases, each with its own writer lock, WAL
// directory, delta stream, and labeled metrics slot — and
// coordinates view-object updates across them.
//
// Placement follows the paper's §5 topology: the relations of a view
// object's dependency island (pivot plus forward ownership/subset
// closure) are hash-partitioned by the pivot key, so every row of an
// island instance lives on its pivot's home shard; every other relation
// (peninsulas, referenced relations, anything outside the island) is
// fully replicated on all shards. An update whose translation stays
// inside the island therefore commits on one shard's fast path with no
// coordination at all; a translation that touches a replicated relation
// goes through the cross-shard commit protocol (reldb.PreparedTx) so
// every replica moves in the same atomic step.
//
// The coordinator is optimistic: it first translates on the home shard
// alone and inspects the emitted operations. All-island translations
// commit immediately. Otherwise the local attempt rolls back and the
// update retries globally — every shard's writer is acquired in
// ascending index order (a total order, so concurrent global updates
// cannot deadlock), the translation re-runs on the home shard against
// current data, the non-island operations replay verbatim on every
// other shard, and the whole set commits in two phases: prepare all
// (ascending), wait until every prepare is durable, decide commit on
// all, wait, release (ascending). Crash recovery resolves in-doubt
// prepares at Open: a commit decision replayed on any shard commits the
// xid everywhere, otherwise presumed abort — both-or-neither on every
// shard.
package shard

import (
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"penguin/internal/reldb"
	"penguin/internal/viewobject"
	"penguin/internal/vupdate"
)

// Cluster is a set of shard databases and the view objects registered
// over them. Register objects with AddObject before serving traffic;
// the update and read entry points route by the object's pivot key.
type Cluster struct {
	dbs     []*reldb.Database
	objects map[string]*object
	// partitioned records the cluster-wide placement decided by object
	// registration: true = island relation, hash-partitioned; relations
	// absent from the map are replicated. Placement must be consistent
	// across objects (AddObject rejects conflicts).
	partitioned map[string]bool
	// xidNonce + xidSeq generate cluster-unique transaction ids for the
	// cross-shard commit protocol. The nonce keeps ids from colliding
	// with those of earlier incarnations still present in the logs.
	xidNonce uint64
	xidSeq   atomic.Uint64
	// cut makes a cross-shard commit one step for readers: commitGlobal
	// holds it exclusively while it installs the decision on each shard,
	// and Instantiate holds it shared while it opens its snapshots.
	// Local commits do not take it.
	cut sync.RWMutex
}

// object is one registered view object: its translator — one for every
// shard, and with it one definition — plus routing state.
type object struct {
	name string
	tr   *vupdate.Translator
	// islandRels are the base relations of the object's dependency
	// island — the partitioned set; operations on any other relation
	// force the cross-shard path.
	islandRels map[string]bool
	// pivotSchema encodes routing keys.
	pivotSchema *reldb.Schema
}

// New assembles a cluster over pre-opened shard databases (ascending
// shard order). The databases must host identical schemas; island
// relations must be partitioned and all others replicated, which is the
// caller's responsibility when loading data (updates preserve it).
func New(dbs []*reldb.Database) (*Cluster, error) {
	if len(dbs) < 1 {
		return nil, errors.New("shard: need at least one database")
	}
	return &Cluster{
		dbs:         dbs,
		objects:     make(map[string]*object),
		partitioned: make(map[string]bool),
		xidNonce:    uint64(time.Now().UnixNano()),
	}, nil
}

// Open opens (or creates) an N-shard durable cluster under dir, one
// subdirectory per shard ("shard-0" ...). Each shard gets opts with a
// shard metrics label and a staggered background-checkpoint phase
// (shard i waits i/N of the interval before its first snapshot, so the
// shards checkpoint in rotation instead of fsyncing simultaneously).
// After every shard replays its log, in-doubt cross-shard prepares are
// resolved cluster-wide: commit if any shard logged the commit
// decision, abort otherwise.
func Open(dir string, n int, opts reldb.OpenOptions) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", n)
	}
	if err := refuseDatabaseDir(dir); err != nil {
		return nil, err
	}
	dbs := make([]*reldb.Database, n)
	for i := range dbs {
		o := opts
		o.ShardLabel = fmt.Sprintf("%d", i)
		if o.CheckpointInterval >= 0 && n > 1 {
			every := o.CheckpointInterval
			if every == 0 {
				every = 30 * time.Second
			}
			o.CheckpointPhase = time.Duration(i) * every / time.Duration(n)
		}
		db, err := reldb.OpenDatabaseWith(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), o)
		if err != nil {
			for j := 0; j < i; j++ {
				_ = dbs[j].Close()
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		dbs[i] = db
	}
	c, err := New(dbs)
	if err != nil {
		return nil, err
	}
	if err := c.resolveInDoubt(); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// refuseDatabaseDir rejects a directory that holds one database's own
// log segments or snapshots (reldb's wal-*.log / snap-*.pngw) at its top
// level — what reldb.OpenDatabase(dir) writes. Opening it as a cluster
// would seed empty shards beside the data and silently ignore it.
func refuseDatabaseDir(dir string) error {
	for _, pat := range []string{"wal-*.log", "snap-*.pngw"} {
		old, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			return err
		}
		if len(old) > 0 {
			return fmt.Errorf("shard: %s holds a single database's files (%s), not a cluster's shard-<i> directories: %w",
				dir, filepath.Base(old[0]), ErrDatabaseLayout)
		}
	}
	return nil
}

// ErrDatabaseLayout reports a data directory written by a plain
// reldb.OpenDatabase where a cluster was asked for; its rows are not
// migrated.
var ErrDatabaseLayout = errors.New("directory uses the single-database layout")

// resolveInDoubt settles every cross-shard prepare replayed without a
// decision. The commit point of the protocol is the first durable
// decide record, so a commit decision found on any shard means the
// update was (or could have been) acknowledged — it commits everywhere;
// with no decision anywhere, no acknowledgment can exist and the
// prepare aborts (presumed abort).
func (c *Cluster) resolveInDoubt() error {
	for i, db := range c.dbs {
		for _, xid := range db.InDoubt() {
			commit := false
			for _, peer := range c.dbs {
				if dec, known := peer.CrossDecision(xid); known && dec {
					commit = true
					break
				}
			}
			if err := db.ResolveInDoubt(xid, commit); err != nil {
				return fmt.Errorf("shard %d: resolve %s: %w", i, xid, err)
			}
		}
	}
	return nil
}

// N returns the shard count.
func (c *Cluster) N() int { return len(c.dbs) }

// DB returns shard i's database.
func (c *Cluster) DB(i int) *reldb.Database { return c.dbs[i] }

// AddObject registers a view object served by the translator tr: one
// translator, and so one definition, reads, decodes and translates on
// every shard. DDL is the caller's, once per shard — tr's definition
// may be built over any database of the right shape, and registration
// refuses a shard that lacks a relation the definition names or holds
// it under a different schema. The object's dependency island becomes
// (or must match) the cluster's partitioned relation set.
func (c *Cluster) AddObject(name string, tr *vupdate.Translator) error {
	if _, dup := c.objects[name]; dup {
		return fmt.Errorf("shard: object %s already registered", name)
	}
	return c.register(name, tr)
}

// ReplaceObject re-registers an existing object with another translator
// — how a translator chosen after start-up (the §6 dialog) takes effect.
// It runs AddObject's checks; the placement check matters most here, as
// the rows already sit where the earlier registration put them, so an
// island that differs from it is refused. On any refusal the earlier
// registration stays. Like AddObject it must not run concurrently with
// traffic.
func (c *Cluster) ReplaceObject(name string, tr *vupdate.Translator) error {
	if _, err := c.object(name); err != nil {
		return err
	}
	return c.register(name, tr)
}

// register validates one object and, only if every check passes,
// installs it under name.
func (c *Cluster) register(name string, tr *vupdate.Translator) error {
	def := tr.Definition()
	for i, db := range c.dbs {
		for _, n := range def.Nodes() {
			rel, err := db.Relation(n.Relation)
			if err != nil {
				return fmt.Errorf("shard %d: object %s: %w", i, name, err)
			}
			if got, want := rel.Schema().String(), def.NodeSchema(n).String(); got != want {
				return fmt.Errorf("shard %d: object %s: relation is %s, the definition reads %s", i, name, got, want)
			}
		}
	}
	o := &object{name: name, tr: tr, islandRels: make(map[string]bool)}
	topo := tr.Topology()
	for _, id := range topo.Island() {
		n, _ := def.Node(id)
		o.islandRels[n.Relation] = true
	}
	// Placement only exists between replicas: one shard holds every
	// relation whole, so any set of objects fits it.
	if len(c.dbs) > 1 {
		// A relation reachable both inside and outside the island would
		// need to be partitioned and replicated at once — no consistent
		// placement.
		for _, id := range topo.NonIsland() {
			n, _ := def.Node(id)
			if o.islandRels[n.Relation] {
				return fmt.Errorf("shard: object %s: relation %s is both island and non-island", name, n.Relation)
			}
		}
		// Placement is cluster-wide: an island relation here must not be
		// a replicated relation of an earlier object, and vice versa.
		for _, n := range def.Nodes() {
			want := o.islandRels[n.Relation]
			if have, seen := c.partitioned[n.Relation]; seen && have != want {
				return fmt.Errorf("shard: object %s: relation %s placement conflicts with an earlier object", name, n.Relation)
			}
		}
		for _, n := range def.Nodes() {
			c.partitioned[n.Relation] = o.islandRels[n.Relation]
		}
	}
	o.pivotSchema = def.NodeSchema(def.Root())
	c.objects[name] = o
	return nil
}

// Object returns the definition of a registered object — the one its
// translator serves, on every shard.
func (c *Cluster) Object(name string) (*viewobject.Definition, error) {
	o, err := c.object(name)
	if err != nil {
		return nil, err
	}
	return o.tr.Definition(), nil
}

// Updatable reports whether updates may route through the object.
// Every registration carries a translator, but a fully restrictive one
// (no verb allowed) serves reads only — the university uses that for ω′
// over more than one shard, where its paths cross partitioned relations
// outside its own island.
func (c *Cluster) Updatable(name string) bool {
	o, ok := c.objects[name]
	if !ok {
		return false
	}
	return o.tr.AllowInsertion || o.tr.AllowDeletion || o.tr.AllowReplacement
}

// Objects returns the registered object names, sorted.
func (c *Cluster) Objects() []string {
	names := make([]string, 0, len(c.objects))
	for n := range c.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (c *Cluster) object(name string) (*object, error) {
	o, ok := c.objects[name]
	if !ok {
		return nil, fmt.Errorf("shard: no such object %s", name)
	}
	return o, nil
}

// HomeOf returns the shard that owns the island of the instance whose
// object key is key (canonical key order).
func (c *Cluster) HomeOf(objName string, key reldb.Tuple) (int, error) {
	_, home, err := c.route(objName, key)
	return home, err
}

// route resolves a registered object and the home shard of key: the
// FNV-1a hash of the encoded pivot key, modulo the shard count.
func (c *Cluster) route(objName string, key reldb.Tuple) (*object, int, error) {
	o, err := c.object(objName)
	if err != nil {
		return nil, 0, err
	}
	enc, err := o.pivotSchema.EncodeKey(key)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: route %s: %w", o.name, err)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(enc))
	return o, int(h.Sum64() % uint64(len(c.dbs))), nil
}

// Generations returns each shard's commit generation, in shard order.
func (c *Cluster) Generations() []uint64 {
	gens := make([]uint64, len(c.dbs))
	for i, db := range c.dbs {
		gens[i] = db.Generation()
	}
	return gens
}

// Generation returns the sum of the shard generations — a single
// monotonic commit counter for the cluster (every commit advances at
// least one shard).
func (c *Cluster) Generation() uint64 {
	var sum uint64
	for _, db := range c.dbs {
		sum += db.Generation()
	}
	return sum
}

// TotalRows returns the number of stored tuples across all shards.
// Replicated relations count once per replica.
func (c *Cluster) TotalRows() int {
	total := 0
	for _, db := range c.dbs {
		total += db.TotalRows()
	}
	return total
}

// Close closes every shard database, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, db := range c.dbs {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// nextXid mints a cluster-unique cross-shard transaction id.
func (c *Cluster) nextXid() string {
	return fmt.Sprintf("x%016x-%x", c.xidNonce, c.xidSeq.Add(1))
}
