package server

import (
	"errors"
	"testing"

	"sstar"
)

func mustAnalyze(t *testing.T, a *sstar.Matrix, o sstar.Options) *sstar.Analysis {
	t.Helper()
	an, err := sstar.Analyze(a, o)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// lookupOnly looks a structure up through getOrCompute without computing
// anything: a miss counts as one, as a factorize's would, and adds nothing.
func lookupOnly(c *analysisCache, key uint64, a *sstar.Matrix, o sstar.Options) *sstar.Analysis {
	an, hit, _, _ := c.getOrCompute(key, a, o, func() (*sstar.Analysis, error) {
		return nil, errors.New("not cached")
	})
	if !hit {
		return nil
	}
	return an
}

func TestCacheHitMiss(t *testing.T) {
	c := newAnalysisCache(4)
	o := sstar.DefaultOptions()
	a := sstar.GenGrid2D(6, 6, false, sstar.GenOptions{Seed: 1})
	key := sstar.StructureKey(a, o)
	if lookupOnly(c, key, a, o) != nil {
		t.Fatal("hit on empty cache")
	}
	c.add(key, mustAnalyze(t, a, o))
	if lookupOnly(c, key, a, o) == nil {
		t.Fatal("miss after add")
	}
	// Same pattern, different values: still a hit.
	b := a.Clone()
	for i := range b.Val {
		b.Val[i] *= -2
	}
	if lookupOnly(c, sstar.StructureKey(b, o), b, o) == nil {
		t.Fatal("values changed the cache outcome")
	}
	// Different options: miss.
	o2 := o
	o2.BlockSize = 7
	if lookupOnly(c, sstar.StructureKey(a, o2), a, o2) != nil {
		t.Fatal("different options hit the cached analysis")
	}
	hit, miss, entries := c.counters()
	if hit != 2 || miss != 2 || entries != 1 {
		t.Fatalf("counters hit=%d miss=%d entries=%d, want 2/2/1", hit, miss, entries)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newAnalysisCache(2)
	o := sstar.DefaultOptions()
	mats := []*sstar.Matrix{
		sstar.GenGrid2D(5, 5, false, sstar.GenOptions{Seed: 1}),
		sstar.GenGrid2D(5, 5, true, sstar.GenOptions{Seed: 1}),
		sstar.GenGrid2D(6, 5, false, sstar.GenOptions{Seed: 1}),
	}
	keys := make([]uint64, len(mats))
	for i, m := range mats[:2] {
		keys[i] = sstar.StructureKey(m, o)
		c.add(keys[i], mustAnalyze(t, m, o))
	}
	// Touch 0 so 1 becomes the LRU, then overflow with 2.
	if lookupOnly(c, keys[0], mats[0], o) == nil {
		t.Fatal("warm entry missing")
	}
	keys[2] = sstar.StructureKey(mats[2], o)
	c.add(keys[2], mustAnalyze(t, mats[2], o))
	if _, _, entries := c.counters(); entries != 2 {
		t.Fatalf("entries %d, want 2", entries)
	}
	if lookupOnly(c, keys[1], mats[1], o) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if lookupOnly(c, keys[0], mats[0], o) == nil || lookupOnly(c, keys[2], mats[2], o) == nil {
		t.Fatal("recently used entries evicted")
	}
}
