package sstar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sstar/internal/sparse"
)

// TestPatchMatchesAnalyzeSkipOrdering pins the facade contract in the case
// where it is exact: under SkipOrdering the cached ordering is the identity
// and a fixed BlockSize pins the blocking, so a patched analysis must agree
// with a from-scratch Analyze on everything observable — key, static fill,
// blocking, factors and solutions. (Under adaptive blocking the patch
// re-applies the base's settled amalgamation factor rather than re-choosing,
// so only the static structure — not the panel bounds — is pinned to a fresh
// Analyze there.)
func TestPatchMatchesAnalyzeSkipOrdering(t *testing.T) {
	opts := Options{SkipOrdering: true, PatchMaxDiff: 1, BlockSize: 16, Amalgamate: 4}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := GenCircuit(60+rng.Intn(100), 3, GenOptions{Seed: seed})
		an, err := Analyze(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		pert := sparse.PerturbPattern(base, 1+rng.Intn(5), rng.Intn(4), seed+1)
		patched, info, err := an.Patch(pert)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Patched {
			t.Fatalf("patch fell back: %+v", info)
		}
		full, err := Analyze(pert, opts)
		if err != nil {
			t.Fatal(err)
		}
		if patched.Key() != full.Key() || patched.sym.Static.NnzTotal() != full.sym.Static.NnzTotal() ||
			patched.sym.Partition.NB != full.sym.Partition.NB || blockingOf(patched.sym) != blockingOf(full.sym) {
			return false
		}
		fp, err := patched.FactorizeWith(pert)
		if err != nil {
			t.Fatal(err)
		}
		ff, err := full.FactorizeWith(pert)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, pert.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		xp, _ := fp.Solve(b)
		xf, _ := ff.Solve(b)
		for i := range xp {
			if xp[i] != xf[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPatchAdaptiveBaseReusesChoice: under adaptive blocking the patched
// analysis re-applies the base's settled amalgamation factor. The static
// structure is still exactly Analyze's (it does not depend on blocking), and
// the patched partition factorizes correctly.
func TestPatchAdaptiveBaseReusesChoice(t *testing.T) {
	opts := Options{SkipOrdering: true, PatchMaxDiff: 1}
	base := GenCircuit(250, 4, GenOptions{Seed: 17})
	an, err := Analyze(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	pert := sparse.PerturbPattern(base, 4, 3, 18)
	patched, info, err := an.Patch(pert)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Patched {
		t.Fatalf("patch fell back: %+v", info)
	}
	full, err := Analyze(pert, opts)
	if err != nil {
		t.Fatal(err)
	}
	if patched.Key() != full.Key() || patched.sym.Static.NnzTotal() != full.sym.Static.NnzTotal() {
		t.Fatal("patched static structure differs from a fresh Analyze")
	}
	if got, want := blockingOf(patched.sym).Amalgamate, blockingOf(an.sym).Amalgamate; got != want {
		t.Fatalf("patched amalgamation factor %d, want base's settled %d", got, want)
	}
	f, err := patched.FactorizeWith(pert)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, pert.N)
	for i := range b {
		b[i] = float64(i%9) - 4
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(pert, x, b); r > 1e-10 {
		t.Fatalf("adaptive-base patched solve residual %g", r)
	}
}

// TestPatchWithOrderingFactorizes checks the default path (ordering reused
// from the cached analysis): the patched analysis must accept and correctly
// factorize the new matrix even though a fresh Analyze might order it
// differently.
func TestPatchWithOrderingFactorizes(t *testing.T) {
	base := GenGrid2D(14, 14, false, GenOptions{Seed: 21})
	an, err := Analyze(base, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pert := sparse.PerturbPattern(base, 4, 2, 9)
	patched, info, err := an.Patch(pert)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Patched {
		t.Fatalf("patch fell back: %+v", info)
	}
	if !patched.Matches(pert) {
		t.Fatal("patched analysis does not match the new pattern")
	}
	f, err := patched.FactorizeWith(pert)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, pert.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(pert, x, b); r > 1e-10 {
		t.Fatalf("patched-analysis solve residual %g", r)
	}
	ph := patched.Phases()
	if ph.Patch <= 0 {
		t.Fatalf("patched analysis reports no patch time: %+v", ph)
	}
	if ph.Ordering != 0 || ph.Symbolic != 0 {
		t.Fatalf("patched analysis should inherit (not run) ordering/symbolic: %+v", ph)
	}
}

func TestPatchIdenticalPatternReturnsReceiver(t *testing.T) {
	a := GenCircuit(120, 3, GenOptions{Seed: 2})
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	same, info, err := an.Patch(a)
	if err != nil {
		t.Fatal(err)
	}
	if same != an || !info.Patched || info.ReusedCols != a.N {
		t.Fatalf("identical pattern should return the receiver: %+v", info)
	}
}

func TestPatchThresholdAndDisabledFallBack(t *testing.T) {
	base := GenCircuit(150, 3, GenOptions{Seed: 5})
	pert := sparse.PerturbPattern(base, 200, 100, 6)

	an, err := Analyze(base, Options{PatchMaxDiff: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	full, info, err := an.Patch(pert)
	if err != nil {
		t.Fatal(err)
	}
	if info.Patched || info.Fallback != "diff-above-threshold" {
		t.Fatalf("want threshold fallback, got %+v", info)
	}
	if !full.Matches(pert) {
		t.Fatal("fallback analysis does not match the new pattern")
	}

	an, err = Analyze(base, Options{PatchMaxDiff: -1})
	if err != nil {
		t.Fatal(err)
	}
	small := sparse.PerturbPattern(base, 1, 0, 7)
	_, info, err = an.Patch(small)
	if err != nil {
		t.Fatal(err)
	}
	if info.Patched || info.Fallback != "disabled" {
		t.Fatalf("want disabled fallback, got %+v", info)
	}
}

func TestPatchMaxDiffExcludedFromStructureKey(t *testing.T) {
	a := GenCircuit(80, 3, GenOptions{Seed: 3})
	k1 := StructureKey(a, Options{})
	k2 := StructureKey(a, Options{PatchMaxDiff: 0.5, HostWorkers: 8})
	if k1 != k2 {
		t.Fatal("PatchMaxDiff/HostWorkers must not change the structure key")
	}
}

func TestSketchSimilarity(t *testing.T) {
	a := GenCircuit(300, 4, GenOptions{Seed: 11})
	sa := SketchOf(a)
	if got := sa.Similarity(sa); got != 1 {
		t.Fatalf("self-similarity = %v, want 1", got)
	}
	near := sparse.PerturbPattern(a, 3, 2, 12)
	if got := sa.Similarity(SketchOf(near)); got < 0.5 {
		t.Fatalf("near-miss similarity = %v, want >= 0.5", got)
	}
	far := GenCircuit(300, 4, GenOptions{Seed: 999})
	if got := sa.Similarity(SketchOf(far)); got > 0.5 {
		t.Fatalf("unrelated similarity = %v, want < 0.5", got)
	}
	other := GenCircuit(200, 4, GenOptions{Seed: 11})
	if got := sa.Similarity(SketchOf(other)); got != 0 {
		t.Fatalf("different-order similarity = %v, want 0", got)
	}
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if an.Sketch() != sa {
		t.Fatal("Analysis.Sketch disagrees with SketchOf on the same pattern")
	}
}
