package server

import (
	"strings"
	"sync"
	"testing"

	"sstar"
	"sstar/internal/sparse"
)

// analyzedHooks records every Analyzed replication callback.
type analyzedHooks struct {
	mu   sync.Mutex
	keys []uint64
}

func (h *analyzedHooks) Route(*Request) *Response          { return nil }
func (h *analyzedHooks) Placement(uint64) (string, string) { return "", "" }
func (h *analyzedHooks) Analyzed(key uint64, _ *sstar.Analysis) {
	h.mu.Lock()
	h.keys = append(h.keys, key)
	h.mu.Unlock()
}
func (h *analyzedHooks) Stored(StoredEvent)        {}
func (h *analyzedHooks) Freed(uint64, uint64)      {}
func (h *analyzedHooks) AugmentStats(*ServerStats) {}

// TestFactorizeSecondChancePatch: a cold structure key whose pattern is a
// near miss of a cached one is served by the incremental patch path, and the
// patched analysis replicates to the successor exactly like a cold one.
func TestFactorizeSecondChancePatch(t *testing.T) {
	hooks := &analyzedHooks{}
	s := New(Config{Workers: 1, FactorWorkers: 1, Cluster: hooks})
	defer s.Close()

	base := sstar.GenCircuit(400, 4, sstar.GenOptions{Seed: 31})
	r1 := s.process(&Request{Op: OpFactorize, Matrix: base, Opts: sstar.DefaultOptions()})
	if r1.Err != "" {
		t.Fatal(r1.Err)
	}
	if r1.Stats.Patched {
		t.Fatal("first factorize cannot be a patch")
	}

	pert := sparse.PerturbPattern(base, 3, 2, 32)
	r2 := s.process(&Request{Op: OpFactorize, Matrix: pert, Opts: sstar.DefaultOptions()})
	if r2.Err != "" {
		t.Fatal(r2.Err)
	}
	if !r2.Stats.Patched {
		t.Fatal("near-miss factorize was not served by the patch path")
	}
	if r2.Stats.CacheHit {
		t.Fatal("patched request must still count as a key miss")
	}
	if r2.Key == r1.Key {
		t.Fatal("perturbed structure should have a distinct key")
	}
	st := s.Stats()
	if st.Patches != 1 || st.PatchFallbacks != 0 {
		t.Fatalf("patches/fallbacks = %d/%d, want 1/0", st.Patches, st.PatchFallbacks)
	}

	// Satellite contract: the patched analysis flowed through the Analyzed
	// replication hook under its own key, so incremental hits survive
	// failover just like cold analyses.
	hooks.mu.Lock()
	keys := append([]uint64(nil), hooks.keys...)
	hooks.mu.Unlock()
	if len(keys) != 2 || keys[0] != r1.Key || keys[1] != r2.Key {
		t.Fatalf("Analyzed keys = %v, want [%d %d]", keys, r1.Key, r2.Key)
	}

	// The exact key now hits: a repeat of the perturbed structure pays
	// neither an analyze nor a patch.
	r3 := s.process(&Request{Op: OpFactorize, Matrix: pert, Opts: sstar.DefaultOptions()})
	if r3.Err != "" {
		t.Fatal(r3.Err)
	}
	if !r3.Stats.CacheHit || r3.Stats.Patched {
		t.Fatalf("repeat request: hit=%v patched=%v, want hit and no patch", r3.Stats.CacheHit, r3.Stats.Patched)
	}

	// The patched analysis solves correctly.
	b := make([]float64, pert.N)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	rs := s.process(&Request{Op: OpSolve, Handle: r2.Handle, B: b})
	if rs.Err != "" {
		t.Fatal(rs.Err)
	}
	if res := sstar.Residual(pert, rs.X, b); res > 1e-10 {
		t.Fatalf("solve residual through patched analysis: %g", res)
	}

	// And the breakdown made it to /metrics.
	var sb strings.Builder
	s.Registry().WritePrometheus(&sb)
	for _, fam := range []string{
		"sstar_server_analysis_patches_total 1",
		"sstar_analyze_patch_seconds_count 1",
		"sstar_analyze_symbolic_seconds_count 1",
		"sstar_analyze_build_seconds_count",
	} {
		if !strings.Contains(sb.String(), fam) {
			t.Errorf("/metrics missing %q", fam)
		}
	}
}

// TestFactorizePatchDisabled: a negative Config.PatchMaxDiff turns the
// second-chance lookup off entirely.
func TestFactorizePatchDisabled(t *testing.T) {
	s := New(Config{Workers: 1, FactorWorkers: 1, PatchMaxDiff: -1})
	defer s.Close()
	base := sstar.GenCircuit(300, 4, sstar.GenOptions{Seed: 7})
	if r := s.process(&Request{Op: OpFactorize, Matrix: base, Opts: sstar.DefaultOptions()}); r.Err != "" {
		t.Fatal(r.Err)
	}
	pert := sparse.PerturbPattern(base, 2, 1, 8)
	r := s.process(&Request{Op: OpFactorize, Matrix: pert, Opts: sstar.DefaultOptions()})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if r.Stats.Patched {
		t.Fatal("patching disabled but request reports a patch")
	}
	if st := s.Stats(); st.Patches != 0 {
		t.Fatalf("patches = %d, want 0", st.Patches)
	}
}

// TestNearestRespectsOptionsAndOrder: candidates under different options or
// a different order never qualify as patch bases.
func TestNearestRespectsOptionsAndOrder(t *testing.T) {
	c := newAnalysisCache(8)
	a := sstar.GenCircuit(200, 4, sstar.GenOptions{Seed: 3})
	opts := sstar.DefaultOptions()
	an, err := sstar.Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.add(an.Key(), an)

	pert := sparse.PerturbPattern(a, 2, 1, 4)
	if got := c.nearest(pert, opts); got != an {
		t.Fatal("near-miss pattern should find the cached base")
	}
	other := opts
	other.BlockSize = 25
	if got := c.nearest(pert, other); got != nil {
		t.Fatal("different options must not match")
	}
	small := sstar.GenCircuit(100, 4, sstar.GenOptions{Seed: 3})
	if got := c.nearest(small, opts); got != nil {
		t.Fatal("different order must not match")
	}
	far := sstar.GenCircuit(200, 4, sstar.GenOptions{Seed: 99})
	if got := c.nearest(far, opts); got != nil {
		t.Fatal("unrelated structure must not clear the similarity gate")
	}
}
