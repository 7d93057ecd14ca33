package server

import (
	"strings"
	"testing"

	"sstar"
	"sstar/internal/sparse"
)

// TestFactorizeSecondChancePatch: a cold structure key whose pattern is a
// near miss of a cached one is served by the incremental patch path, and the
// patched analysis reaches the successor in the handle push exactly like a
// cold one.
func TestFactorizeSecondChancePatch(t *testing.T) {
	var events []StoredEvent
	s := New(Config{Workers: 1, FactorWorkers: 1, Cluster: captureHooks{stored: func(ev StoredEvent) { events = append(events, ev) }}})
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

	// The patched analysis reaches the successor in the handle push under
	// its own key, so incremental hits survive failover just like cold
	// analyses: a factorize of the perturbed structure there is a hit.
	if len(events) != 2 || events[0].Key != r1.Key || events[1].Key != r2.Key {
		t.Fatalf("%d handle pushes, want 2 under keys [%d %d]", len(events), r1.Key, r2.Key)
	}
	succ := New(Config{Workers: 1, FactorWorkers: 1})
	defer succ.Close()
	push, ok := s.ExportHandle(events[1].Handle, false)
	if !ok {
		t.Fatal("cannot export the patched handle")
	}
	if r := succ.process(push); r.Err != "" {
		t.Fatalf("replicate the patched handle: %s", r.Err)
	}
	if rs := succ.process(&Request{Op: OpFactorize, Matrix: pert, Opts: sstar.DefaultOptions()}); rs.Err != "" || !rs.Stats.CacheHit || rs.Stats.Patched {
		t.Fatalf("successor factorize of the patched structure: err %q hit=%v patched=%v, want a plain hit", rs.Err, rs.Stats.CacheHit, rs.Stats.Patched)
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

// TestNearestNoCandidateIsFree: a cold miss with no cached entry of the same
// order and options pays nothing for the near-miss lookup — in particular, no
// pattern sketch of the request.
func TestNearestNoCandidateIsFree(t *testing.T) {
	c := newAnalysisCache(8)
	opts := sstar.DefaultOptions()
	for _, n := range []int{100, 300} {
		an, err := sstar.Analyze(sstar.GenCircuit(n, 4, sstar.GenOptions{Seed: 3}), opts)
		if err != nil {
			t.Fatal(err)
		}
		c.add(an.Key(), an)
	}
	a := sstar.GenCircuit(200, 4, sstar.GenOptions{Seed: 3})
	other := opts
	other.BlockSize = 25
	an, err := sstar.Analyze(a, other)
	if err != nil {
		t.Fatal(err)
	}
	c.add(an.Key(), an)
	if got := testing.AllocsPerRun(20, func() {
		if c.nearest(a, opts) != nil {
			t.Fatal("no entry shares the order and options")
		}
	}); got != 0 {
		t.Fatalf("nearest with no candidate allocates %v times per call, want 0", got)
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
