package reldb

import (
	"strings"
	"sync"

	"penguin/internal/obs"
)

// planKind classifies how a MatchEqual-family lookup over an attribute
// set is served on a given relation version.
type planKind uint8

const (
	// planScan: no covering index — fall back to a full-relation scan.
	planScan planKind = iota
	// planPoint: the attribute set is exactly the primary key — serve
	// with a prefix probe of the row tree (at most one tuple).
	planPoint
	// planIndex: a secondary index covers the attribute set — serve with
	// a prefix probe of its tree.
	planIndex
)

// lookupPlan is the resolved index selection for one (relation, attribute
// list) pair: which access path to use and how to permute the caller's
// values into that path's attribute order. A plan names its index rather
// than pointing into one version's tree, so it holds for every version
// with the same index set. Plans are immutable once published and shared
// by every lookup (and every parallel worker).
type lookupPlan struct {
	// idx are the attribute indices, in the caller's attrNames order
	// (duplicate-free — lookupIndices rejected duplicates).
	idx  []int
	kind planKind
	// ixName names the serving secondary index (planIndex only).
	ixName string
	// perm maps target positions to caller positions: target[i] =
	// vals[perm[i]], where target is the primary key (planPoint) or the
	// index's attribute order (planIndex). Nil for planScan.
	perm []int
}

// planCache memoizes index selection for a relation. Committed relation
// versions are immutable in every respect except this cache, so it
// carries its own lock: concurrent readers race only on the map, never on
// the plans themselves (published plans are immutable). Versions share it
// by pointer across commits; index DDL — the only thing that changes a
// selection — installs a fresh cache on the version that ran it and
// leaves the old one to the versions that still share it.
type planCache struct {
	mu    sync.RWMutex
	plans map[string]*lookupPlan
}

// get returns the cached plan for key, or nil.
func (pc *planCache) get(key string) *lookupPlan {
	pc.mu.RLock()
	p := pc.plans[key]
	pc.mu.RUnlock()
	return p
}

// put publishes a plan, unless a racing resolver won; it returns the
// plan that ended up cached and whether this call stored it.
func (pc *planCache) put(key string, p *lookupPlan) (*lookupPlan, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if prev, ok := pc.plans[key]; ok {
		return prev, false
	}
	if pc.plans == nil {
		pc.plans = make(map[string]*lookupPlan, 8)
	}
	pc.plans[key] = p
	return p, true
}

// size returns the number of cached plans.
func (pc *planCache) size() int {
	pc.mu.RLock()
	n := len(pc.plans)
	pc.mu.RUnlock()
	return n
}

// planKeySep joins multi-attribute cache keys. Attribute names come from
// schemas, which never contain control characters, so the separator
// cannot collide.
const planKeySep = "\x1f"

// planKey builds the cache key for an attribute list. The single-
// attribute case — every structural-model connection edge — is the
// attribute name itself: no allocation on the hot path.
func planKey(attrNames []string) string {
	if len(attrNames) == 1 {
		return attrNames[0]
	}
	return strings.Join(attrNames, planKeySep)
}

// planFor resolves the lookup plan for attrNames on this relation,
// consulting the cache first. Exactly one of
// reldb.plancache.{hits,misses} is counted per successful call (errors
// count nothing), so lookups == hits + misses holds at every quiescent
// point. The keys are order-sensitive ("a","b" and "b","a" cache
// separately) — the permutations differ, and connection edges always
// present their attributes in a fixed order, so the duplication is
// bounded and harmless.
func (r *Relation) planFor(what string, attrNames []string) (*lookupPlan, error) {
	key := planKey(attrNames)
	if p := r.plans.get(key); p != nil {
		obs.Default.PlanCacheLookups.Inc()
		obs.Default.PlanCacheHits.Inc()
		return p, nil
	}
	idx, err := r.lookupIndices(what, attrNames)
	if err != nil {
		return nil, err
	}
	p := &lookupPlan{idx: idx, kind: planScan}
	if sameIntSet(idx, r.schema.key) {
		p.kind = planPoint
		p.perm = permTo(r.schema.key, idx)
	} else if ix, perm := r.findIndex(idx); ix != nil {
		p.kind = planIndex
		p.ixName = ix.name
		p.perm = perm
	}
	p, stored := r.plans.put(key, p)
	obs.Default.PlanCacheLookups.Inc()
	if stored {
		obs.Default.PlanCacheMisses.Inc()
	} else {
		obs.Default.PlanCacheHits.Inc()
	}
	return p, nil
}

// resetPlans gives this version a fresh plan cache after index DDL and
// records the plans it no longer sees in reldb.plancache.invalidations.
// The old cache is not purged: published versions may still share it.
func (r *Relation) resetPlans() {
	if n := r.plans.size(); n > 0 {
		obs.Default.PlanCacheInvalidations.Add(int64(n))
	}
	r.plans = &planCache{}
}
