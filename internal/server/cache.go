package server

import (
	"container/list"
	"sync"

	"sstar"
)

// analysisCache is the structure-keyed LRU cache of analyze-phase results.
//
// Soundness: the analyze phase (maximum transversal, minimum degree on AᵀA,
// George–Ng static symbolic factorization, supernode partition) is a pure
// function of the nonzero pattern and the analysis options — it never reads
// a value. And by the paper's pivot-independence property the static
// structure bounds the fill of every partial-pivoting interchange sequence,
// so a cached analysis is valid for *any* values carried by a matching
// pattern. The key is the 64-bit sstar.StructureKey (pattern ⊕ options
// hash); a hit additionally verifies the pattern and options exactly, so a
// hash collision degrades to a miss instead of a wrong answer.
//
// A cached *sstar.Analysis is immutable and safe to share across concurrent
// factorizations, so entries are handed out without copying.
type analysisCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List                 // front = most recently used
	m         map[uint64][]*list.Element // key -> entries (collision-tolerant)
	inflight  map[uint64]*flight         // cold analyses being computed right now
	hit, miss int64
	coalesced int64 // requests that waited on another request's computation
}

// flight is one in-progress cold analysis. The leader computes and closes
// done; every concurrent request for the same key waits instead of
// recomputing — the singleflight that turns a thundering herd on a new
// structure into one analyze.
type flight struct {
	done chan struct{}
	an   *sstar.Analysis
	err  error
}

type cacheEntry struct {
	key  uint64
	opts sstar.Options
	an   *sstar.Analysis
}

// patchSimilarityMin gates the near-miss lookup: a cached entry qualifies as
// a patch base only when its pattern-sketch similarity to the request
// reaches this. The sketch is a coarse estimator — the gate only has to keep
// obviously unrelated structures from paying a pattern diff; Analysis.Patch
// measures the exact diff and falls back on its own.
const patchSimilarityMin = 0.75

// nearest returns the cached analysis most similar to a's pattern under the
// same (normalized) options — the second-chance candidate the server patches
// incrementally when the exact structure key missed. Entries must share the
// order and the options and clear patchSimilarityMin; nil when none does.
// LRU positions and hit/miss counters are untouched: this is a miss-path
// helper, and the caller accounts for patches separately. a is sketched only
// when some entry shares its order and options, and outside the lock.
func (c *analysisCache) nearest(a *sstar.Matrix, opts sstar.Options) *sstar.Analysis {
	var cands []*sstar.Analysis
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*cacheEntry); e.opts == opts && e.an.N() == a.N {
			cands = append(cands, e.an)
		}
	}
	c.mu.Unlock()
	if len(cands) == 0 {
		return nil
	}
	sk := sstar.SketchOf(a)
	var best *sstar.Analysis
	bestSim := patchSimilarityMin
	for _, an := range cands {
		if sim := sk.Similarity(an.Sketch()); sim >= bestSim && (best == nil || sim > bestSim) {
			best, bestSim = an, sim
		}
	}
	return best
}

func newAnalysisCache(capacity int) *analysisCache {
	if capacity < 1 {
		capacity = 1
	}
	return &analysisCache{
		cap:      capacity,
		ll:       list.New(),
		m:        make(map[uint64][]*list.Element),
		inflight: make(map[uint64]*flight),
	}
}

// getOrCompute returns the analysis for (pattern of a, opts), computing it
// with compute on a miss. Concurrent misses on the same key are coalesced:
// one leader runs compute, everyone else waits for its result. A waiter whose
// (pattern, opts) does not actually match the leader's result — a key
// collision, astronomically unlikely — falls back to computing its own.
func (c *analysisCache) getOrCompute(key uint64, a *sstar.Matrix, opts sstar.Options, compute func() (*sstar.Analysis, error)) (an *sstar.Analysis, cacheHit, computed bool, err error) {
	for {
		c.mu.Lock()
		if an := c.lookup(key, a, opts); an != nil {
			c.hit++
			c.mu.Unlock()
			return an, true, false, nil
		}
		if fl, ok := c.inflight[key]; ok {
			c.coalesced++
			c.mu.Unlock()
			<-fl.done
			if fl.err == nil && fl.an.Options() == opts && fl.an.Matches(a) {
				return fl.an, true, false, nil
			}
			if fl.err != nil {
				// The leader failed; its inputs were byte-equal up to the
				// key, so this request would fail the same way.
				return nil, false, false, fl.err
			}
			// Key collision with a different structure: loop and compute
			// under a fresh flight slot (the leader's is gone by now).
			continue
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[key] = fl
		c.miss++
		c.mu.Unlock()

		fl.an, fl.err = compute()
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.insert(key, fl.an)
		}
		c.mu.Unlock()
		close(fl.done)
		return fl.an, false, true, fl.err
	}
}

// lookup returns the cached analysis for (pattern of a, opts) and bumps it to
// most recently used, or nil. Caller holds c.mu and maintains the counters.
func (c *analysisCache) lookup(key uint64, a *sstar.Matrix, opts sstar.Options) *sstar.Analysis {
	for _, el := range c.m[key] {
		e := el.Value.(*cacheEntry)
		if e.opts == opts && e.an.Matches(a) {
			c.ll.MoveToFront(el)
			return e.an
		}
	}
	return nil
}

// add inserts an analysis under key unless an entry with that key and the
// same options is cached — a refreshed replica brings its structure again,
// and must not file a second copy. A racing duplicate (a replication racing
// a local analyze of the same structure) is tolerated: both are valid, and
// LRU eviction reclaims the spare.
func (c *analysisCache) add(key uint64, an *sstar.Analysis) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, el := range c.m[key] {
		if el.Value.(*cacheEntry).opts == an.Options() {
			return
		}
	}
	c.insert(key, an)
}

// insert adds an entry and enforces capacity. Caller holds c.mu.
func (c *analysisCache) insert(key uint64, an *sstar.Analysis) {
	el := c.ll.PushFront(&cacheEntry{key: key, opts: an.Options(), an: an})
	c.m[key] = append(c.m[key], el)
	for c.ll.Len() > c.cap {
		c.evictOldest()
	}
}

// evictOldest removes the LRU entry. Caller holds c.mu.
func (c *analysisCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.ll.Remove(el)
	e := el.Value.(*cacheEntry)
	els := c.m[e.key]
	for i, cand := range els {
		if cand == el {
			els = append(els[:i], els[i+1:]...)
			break
		}
	}
	if len(els) == 0 {
		delete(c.m, e.key)
	} else {
		c.m[e.key] = els
	}
}

// counters returns (hits, misses, live entries).
func (c *analysisCache) counters() (hit, miss int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit, c.miss, c.ll.Len()
}

// coalescedCount returns how many requests were merged into a concurrent
// identical computation by the singleflight.
func (c *analysisCache) coalescedCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.coalesced
}
