package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"sstar/internal/machine"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
)

// TestMoreProcsThanBlocks: processor counts exceeding the number of supernode
// panels must still run correctly (idle processors participate in collectives
// but own no work).
func TestMoreProcsThanBlocks(t *testing.T) {
	a := sparse.Grid2D(5, 5, false, sparse.GenOptions{Seed: 31})
	sym := analyzeFor(t, a, 25, 8) // few, wide panels
	if sym.Partition.NB >= 16 {
		t.Skipf("partition produced %d blocks; want < 16 for this test", sym.Partition.NB)
	}
	seq, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	xs := solveAndCheck(t, a, seq, 1e-9)
	res1, err := Factorize1D(a, sym, machine.T3E(), ScheduleCA(sym, 16))
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, solveAndCheck(t, a, res1.Fact, 1e-9), xs, "1D overprovisioned")
	res2, err := Factorize2D(a, sym, machine.T3E(), 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, solveAndCheck(t, a, res2.Fact, 1e-9), xs, "2D overprovisioned")
}

// TestSingleBlockMatrix: a matrix that fits one panel degenerates to a single
// Factor task everywhere.
func TestSingleBlockMatrix(t *testing.T) {
	a := sparse.Dense(10, 32)
	sym := analyzeFor(t, a, 25, 0)
	if sym.Partition.NB != 1 {
		t.Fatalf("NB = %d, want 1", sym.Partition.NB)
	}
	seq, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	solveAndCheck(t, a, seq, 1e-10)
	res, err := Factorize2D(a, sym, machine.T3E(), 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	solveAndCheck(t, a, res.Fact, 1e-10)
}

// TestNearlyDenseRowCaveat reproduces the paper's Section 7 caveat: a matrix
// with a nearly dense *row* forces the static symbolic factorization toward
// complete fill-in (the memplus phenomenon). The library must still compute a
// correct factorization — just an expensive one.
func TestNearlyDenseRowCaveat(t *testing.T) {
	n := 60
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i+1, i, -1)
		}
	}
	// Row 0 touches (almost) every column.
	for j := 1; j < n-2; j++ {
		coo.Add(0, j, 0.5)
	}
	a := coo.ToCSR()
	st := symbolic.Factorize(sparse.PatternOf(a))
	dense := n * (n + 1) / 2
	if st.NnzU() < dense/2 {
		t.Fatalf("expected massive U overestimation, got %d of %d", st.NnzU(), dense)
	}
	sym := Analyze(a, AnalyzeOptions{SkipOrdering: true, Supernode: supernode.Options{MaxBlock: 8, Amalgamate: 4}})
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	solveAndCheck(t, a, f, 1e-9)
}

// TestHighlyNonsymmetricPattern: structural-drop generators stress the
// nonsymmetric-pattern path of the whole pipeline.
func TestHighlyNonsymmetricPattern(t *testing.T) {
	a := sparse.Grid2D(9, 9, true, sparse.GenOptions{Seed: 33, StructuralDrop: 0.5, Convection: 0.9})
	s := sparse.ComputeStats(a)
	if s.Symmetry < 1.2 {
		t.Fatalf("matrix not nonsymmetric enough (%.2f) for this test", s.Symmetry)
	}
	sym := analyzeFor(t, a, 8, 4)
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	solveAndCheck(t, a, f, 1e-9)
	res, err := Factorize2D(a, sym, machine.T3D(), 2, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	solveAndCheck(t, a, res.Fact, 1e-9)
}

// TestPermutedInputEquivalence: factorizing P A Q^T with SkipOrdering=false
// must solve the same system regardless of how the caller pre-scrambled it.
func TestPermutedInputEquivalence(t *testing.T) {
	a := sparse.Circuit(90, 3, sparse.GenOptions{Seed: 34})
	rp := sparse.InversePerm(sparse.IdentityPerm(a.N))
	// A deterministic scramble.
	for i := range rp {
		rp[i] = (i*37 + 11) % a.N
	}
	if !sparse.IsPerm(rp) {
		t.Skip("scramble is not a permutation for this n")
	}
	b := randRHS(a.N, 35)
	sym1 := analyzeFor(t, a, 8, 4)
	f1, err := FactorizeSeq(a, sym1)
	if err != nil {
		t.Fatal(err)
	}
	x1 := f1.Solve(b)
	// Scrambled system: (P A) x = P b has the same solution x.
	ap := a.PermuteRows(rp)
	bp := make([]float64, a.N)
	for i := range b {
		bp[rp[i]] = b[i]
	}
	sym2 := analyzeFor(t, ap, 8, 4)
	f2, err := FactorizeSeq(ap, sym2)
	if err != nil {
		t.Fatal(err)
	}
	x2 := f2.Solve(bp)
	sameSolution(t, x2, x1, "scrambled system")
}

// TestUnitMachineParallelTimeMatchesWork: on the unit-rate machine with zero
// latency and one processor, the parallel time equals total flops+swaps.
func TestUnitMachineParallelTimeMatchesWork(t *testing.T) {
	a := sparse.Grid2D(6, 6, false, sparse.GenOptions{Seed: 36})
	sym := analyzeFor(t, a, 6, 2)
	res, err := Factorize1D(a, sym, machine.Unit(), ScheduleCA(sym, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(res.Fact.Fl.Total() + res.Fact.Fl.Sw)
	if diff := res.ParallelTime - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("unit-machine time %v != work %v", res.ParallelTime, want)
	}
}

// TestFlopsAdd covers the accumulator arithmetic.
func TestFlopsAdd(t *testing.T) {
	a := Flops{B1: 1, B2: 2, B3: 3, Sw: 4}
	a.Add(Flops{B1: 10, B2: 20, B3: 30, Sw: 40})
	if a.B1 != 11 || a.B2 != 22 || a.B3 != 33 || a.Sw != 44 {
		t.Fatalf("Add broken: %+v", a)
	}
	if a.Total() != 66 {
		t.Fatalf("Total = %d, want 66", a.Total())
	}
}

// TestTracing: spans are recorded only when requested, stay on each
// processor's own timeline in order, and never overlap.
func TestTracing(t *testing.T) {
	a := sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 37})
	sym := analyzeFor(t, a, 6, 3)
	plain, err := Factorize2D(a, sym, machine.T3E(), 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Traces != nil {
		t.Fatal("tracing must be off by default")
	}
	traced, err := Factorize2D(a, sym, machine.T3E(), 2, 2, true, WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Traces) != 4 {
		t.Fatalf("want 4 processor traces, got %d", len(traced.Traces))
	}
	total := 0
	for pid, spans := range traced.Traces {
		last := 0.0
		for _, s := range spans {
			if s.End < s.Start {
				t.Fatalf("proc %d: span %q ends before it starts", pid, s.Label)
			}
			if s.Start < last-1e-12 {
				t.Fatalf("proc %d: span %q overlaps its predecessor", pid, s.Label)
			}
			last = s.End
			total++
		}
	}
	if total == 0 {
		t.Fatal("no spans recorded")
	}
	res1, err := Factorize1D(a, sym, machine.T3E(), ScheduleCA(sym, 3), WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Traces) != 3 {
		t.Fatalf("1D traces %d, want 3", len(res1.Traces))
	}
}

// TestTracedSpansGolden pins every span a traced run records — processor,
// label, virtual start and end — for the 2D, 2D-sync and 1D codes, which
// build their labels only when tracing. The constants were taken when the
// labels were still formatted on every run, traced or not.
func TestTracedSpansGolden(t *testing.T) {
	a := sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 37})
	sym := analyzeFor(t, a, 6, 3)
	fingerprint := func(traces [][]machine.TraceEvent) (int, uint64) {
		h := fnv.New64a()
		n := 0
		for pid, spans := range traces {
			for _, s := range spans {
				fmt.Fprintf(h, "%d %s %x %x\n", pid, s.Label, math.Float64bits(s.Start), math.Float64bits(s.End))
				n++
			}
		}
		return n, h.Sum64()
	}
	for _, c := range []struct {
		name  string
		run   func() (*ParResult, error)
		spans int
		hash  uint64
	}{
		{"2d", func() (*ParResult, error) { return Factorize2D(a, sym, machine.T3E(), 2, 2, true, WithTracing()) }, 640, 0xb079e8be5f6db969},
		{"2d-sync", func() (*ParResult, error) { return Factorize2D(a, sym, machine.T3E(), 2, 2, false, WithTracing()) }, 640, 0xd9f2a15b91a4d7e5},
		{"1d", func() (*ParResult, error) {
			return Factorize1D(a, sym, machine.T3E(), ScheduleCA(sym, 3), WithTracing())
		}, 95, 0x83c198b66d5821d9},
	} {
		res, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		if n, h := fingerprint(res.Traces); n != c.spans || h != c.hash {
			t.Errorf("%s: %d spans, fingerprint %#x; want %d, %#x", c.name, n, h, c.spans, c.hash)
		}
	}
}
