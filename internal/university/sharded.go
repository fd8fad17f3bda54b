// The served university: the Figure 1 schema over a shard.Cluster of
// n >= 1 shards — the one backend the CLI and the HTTP tier run on (one
// shard is the plain database). The schema and connection graph are
// installed on every shard and each object registered once; seeding
// partitions ω's dependency island ({COURSES, GRADES}) by course and
// replicates every other relation — the placement invariant the
// coordinator's fast path depends on.
package university

import (
	"penguin/internal/reldb"
	"penguin/internal/reldb/shard"
	"penguin/internal/vupdate"
)

// Object names the university cluster registers.
const (
	ObjOmega      = "omega"
	ObjOmegaPrime = "omega-prime"
)

// NewSharded builds an n-shard in-memory university cluster with ω and
// ω′ registered and the paper's sample instance partitioned across it.
func NewSharded(n int) (*shard.Cluster, error) {
	dbs := make([]*reldb.Database, n)
	for i := range dbs {
		dbs[i] = reldb.NewDatabase()
	}
	c, err := shard.New(dbs)
	if err != nil {
		return nil, err
	}
	if err := registerSharded(c); err != nil {
		_ = c.Close()
		return nil, err
	}
	if err := SeedSharded(c); err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// OpenSharded opens (or creates) a durable n-shard university cluster
// under dir. Shards recovered from their WALs keep the rows they have;
// an empty cluster is seeded with the paper's instance. Returns whether
// it seeded.
func OpenSharded(dir string, n int, opts reldb.OpenOptions) (*shard.Cluster, bool, error) {
	c, err := shard.Open(dir, n, opts)
	if err != nil {
		return nil, false, err
	}
	if err := registerSharded(c); err != nil {
		_ = c.Close()
		return nil, false, err
	}
	seeded := false
	if c.TotalRows() == 0 {
		if err := SeedSharded(c); err != nil {
			_ = c.Close()
			return nil, false, err
		}
		seeded = true
	}
	return c, seeded, nil
}

// registerSharded installs the university schema on every shard — DDL
// runs once per shard — and registers both objects once, over shard 0's
// graph: one definition serves them all.
//
// ω gets the §6 dialog's permissive translator and is fully updatable.
// So does ω′ on one shard. Over several it registers read-only (the
// default restrictive translator): its STUDENT component reaches through
// GRADES, a relation that is partitioned (it is ω's island) but outside
// ω′'s own island, so a ω′ translation could emit GRADES operations the
// coordinator would replay on every replica — placement would break.
// Updates go through ω there.
func registerSharded(c *shard.Cluster) error {
	g, err := Install(c.DB(0))
	if err != nil {
		return err
	}
	for i := 1; i < c.N(); i++ {
		if _, err := Install(c.DB(i)); err != nil {
			return err
		}
	}
	om, err := Omega(g)
	if err != nil {
		return err
	}
	if err := c.AddObject(ObjOmega, vupdate.PermissiveTranslator(om)); err != nil {
		return err
	}
	op, err := OmegaPrime(g)
	if err != nil {
		return err
	}
	if c.N() == 1 {
		return c.AddObject(ObjOmegaPrime, vupdate.PermissiveTranslator(op))
	}
	return c.AddObject(ObjOmegaPrime, vupdate.NewTranslator(op))
}

// SeedSharded loads the paper's illustrative instance with partitioned
// placement: COURSES and GRADES rows go to their course's home shard
// (both relations lead with the CourseID routing attribute), every
// other relation is replicated on all shards. One transaction per shard.
func SeedSharded(c *shard.Cluster) error {
	txs := make([]*reldb.Tx, c.N())
	for i := range txs {
		txs[i] = c.DB(i).Begin()
	}
	err := seedRows(func(rel string, rows ...reldb.Tuple) error {
		for _, row := range rows {
			if rel == Courses || rel == Grades {
				home, err := c.HomeOf(ObjOmega, reldb.Tuple{row[0]})
				if err != nil {
					return err
				}
				if err := txs[home].Insert(rel, row); err != nil {
					return err
				}
				continue
			}
			for _, tx := range txs {
				if err := tx.Insert(rel, row); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		for _, tx := range txs {
			_ = tx.Rollback()
		}
		return err
	}
	for i, tx := range txs {
		if err := tx.Commit(); err != nil {
			for _, rest := range txs[i+1:] {
				_ = rest.Rollback()
			}
			return err
		}
	}
	return nil
}
