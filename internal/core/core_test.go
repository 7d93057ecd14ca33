package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// residual returns ‖Ax−b‖_∞ / (‖A‖_∞‖x‖_∞ + ‖b‖_∞).
func residual(a *sparse.CSR, x, b []float64) float64 {
	r := make([]float64, a.N)
	a.MulVec(x, r)
	num, xn, bn := 0.0, 0.0, 0.0
	for i := range r {
		if v := math.Abs(r[i] - b[i]); v > num {
			num = v
		}
		if v := math.Abs(x[i]); v > xn {
			xn = v
		}
		if v := math.Abs(b[i]); v > bn {
			bn = v
		}
	}
	return num / (a.NormInf()*xn + bn)
}

func randRHS(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

func TestDenseLUSolve(t *testing.T) {
	n := 40
	a := sparse.Dense(n, 3)
	lu := append([]float64(nil), denseOf(a)...)
	piv := make([]int, n)
	if err := DenseLU(n, lu, piv); err != nil {
		t.Fatal(err)
	}
	b := randRHS(n, 1)
	x := append([]float64(nil), b...)
	DenseSolve(n, lu, piv, x)
	if r := residual(a, x, b); r > 1e-10 {
		t.Fatalf("dense residual %g", r)
	}
}

func denseOf(a *sparse.CSR) []float64 {
	d := make([]float64, a.N*a.M)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			d[i*a.M+j] = vals[k]
		}
	}
	return d
}

func TestDenseLUSingular(t *testing.T) {
	n := 3
	lu := make([]float64, 9) // zero matrix
	if err := DenseLU(n, lu, make([]int, n)); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestGPSolveAgainstDense(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		a := sparse.RandomSparse(50, 4, seed)
		f, err := GPFactorize(a)
		if err != nil {
			t.Fatal(err)
		}
		b := randRHS(a.N, seed)
		x := f.Solve(b)
		if r := residual(a, x, b); r > 1e-10 {
			t.Fatalf("seed %d: GP residual %g", seed, r)
		}
		// Cross-check the solution against the dense oracle.
		lu := denseOf(a)
		piv := make([]int, a.N)
		if err := DenseLU(a.N, lu, piv); err != nil {
			t.Fatal(err)
		}
		xd := append([]float64(nil), b...)
		DenseSolve(a.N, lu, piv, xd)
		for i := range x {
			if math.Abs(x[i]-xd[i]) > 1e-8*(1+math.Abs(xd[i])) {
				t.Fatalf("seed %d: GP and dense disagree at %d: %g vs %g", seed, i, x[i], xd[i])
			}
		}
	}
}

func TestGPPivotingKicksIn(t *testing.T) {
	// A matrix with a tiny diagonal entry must still solve accurately;
	// without pivoting the residual would blow up.
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 1e-14)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	coo.Add(1, 1, 1)
	coo.Add(1, 2, 1)
	coo.Add(2, 1, 1)
	coo.Add(2, 2, 3)
	a := coo.ToCSR()
	f, err := GPFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3}
	x := f.Solve(b)
	if r := residual(a, x, b); r > 1e-12 {
		t.Fatalf("residual %g with pivoting", r)
	}
	// Pivot permutation must be a real permutation.
	if !sparse.IsPerm(f.PRow) {
		t.Fatal("PRow is not a permutation")
	}
}

func TestGPSingular(t *testing.T) {
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 2)
	coo.Add(1, 1, 2)
	if _, err := GPFactorize(coo.ToCSR()); err == nil {
		t.Fatal("expected singular error for rank-deficient matrix")
	}
}

func TestGPFillAtLeastA(t *testing.T) {
	a := sparse.Grid2D(10, 10, false, sparse.GenOptions{Seed: 5})
	f, err := GPFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.NnzTotal() < a.Nnz() {
		t.Fatalf("fill %d below nnz(A) %d", f.NnzTotal(), a.Nnz())
	}
	if f.Flops <= 0 {
		t.Fatal("flop count must be positive")
	}
}

func analyzeFor(t *testing.T, a *sparse.CSR, bsize, amal int) *Symbolic {
	t.Helper()
	return Analyze(a, AnalyzeOptions{Supernode: supernode.Options{MaxBlock: bsize, Amalgamate: amal}})
}

func TestSeqStarSolvesVariousMatrices(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
	}{
		{"dense", sparse.Dense(35, 1)},
		{"grid2d", sparse.Grid2D(9, 9, false, sparse.GenOptions{Seed: 2, Convection: 0.4})},
		{"grid2d-drop", sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 3, StructuralDrop: 0.25})},
		{"grid3d", sparse.Grid3D(4, 4, 4, sparse.GenOptions{Seed: 4, DOF: 2})},
		{"circuit", sparse.Circuit(120, 3, sparse.GenOptions{Seed: 5, Convection: 0.5, StructuralDrop: 0.1})},
		{"random", sparse.RandomSparse(90, 3, 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sym := analyzeFor(t, tc.a, 8, 4)
			f, err := FactorizeSeq(tc.a, sym)
			if err != nil {
				t.Fatal(err)
			}
			b := randRHS(tc.a.N, 7)
			x := f.Solve(b)
			if r := residual(tc.a, x, b); r > 1e-9 {
				t.Fatalf("residual %g", r)
			}
		})
	}
}

func TestSeqStarMatchesGPSolution(t *testing.T) {
	a := sparse.Grid2D(7, 7, false, sparse.GenOptions{Seed: 8, Convection: 0.3})
	sym := analyzeFor(t, a, 6, 3)
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := GPFactorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 9)
	xs := f.Solve(b)
	xg := gp.Solve(b)
	for i := range xs {
		if math.Abs(xs[i]-xg[i]) > 1e-8*(1+math.Abs(xg[i])) {
			t.Fatalf("S* and GP disagree at %d: %g vs %g", i, xs[i], xg[i])
		}
	}
}

func TestSeqStarBlockSizeInvariance(t *testing.T) {
	// The computed solution must be essentially independent of the
	// partitioning options.
	a := sparse.Circuit(100, 3, sparse.GenOptions{Seed: 10, StructuralDrop: 0.15})
	b := randRHS(a.N, 11)
	var ref []float64
	for _, opt := range []struct{ bs, r int }{{1, 0}, {4, 0}, {8, 4}, {25, 6}, {100, 8}} {
		sym := analyzeFor(t, a, opt.bs, opt.r)
		f, err := FactorizeSeq(a, sym)
		if err != nil {
			t.Fatalf("bs=%d r=%d: %v", opt.bs, opt.r, err)
		}
		x := f.Solve(b)
		if r := residual(a, x, b); r > 1e-9 {
			t.Fatalf("bs=%d r=%d: residual %g", opt.bs, opt.r, r)
		}
		if ref == nil {
			ref = x
			continue
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-7*(1+math.Abs(ref[i])) {
				t.Fatalf("bs=%d r=%d: solution drifted at %d", opt.bs, opt.r, i)
			}
		}
	}
}

func TestSeqStarWeakDiagonalNeedsPivoting(t *testing.T) {
	// Generators plant tiny diagonal entries; S* must pivot them away.
	a := sparse.Grid2D(10, 10, false, sparse.GenOptions{Seed: 12, WeakDiagFraction: 0.3})
	sym := analyzeFor(t, a, 8, 4)
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	swaps := 0
	for m, t0 := range f.Piv {
		if int(t0) != m {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("expected at least one row interchange")
	}
	b := randRHS(a.N, 13)
	if r := residual(a, f.Solve(b), b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestSeqStarPropertyRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		a := sparse.RandomSparse(n, 1+rng.Intn(4), seed)
		sym := Analyze(a, AnalyzeOptions{Supernode: supernode.Options{MaxBlock: 1 + rng.Intn(12), Amalgamate: rng.Intn(6)}})
		fac, err := FactorizeSeq(a, sym)
		if err != nil {
			return false
		}
		b := randRHS(n, seed+1)
		return residual(a, fac.Solve(b), b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqStarFlopsAccounting(t *testing.T) {
	a := sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 14})
	sym := analyzeFor(t, a, 8, 4)
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	if f.Fl.B2 <= 0 || f.Fl.B3 <= 0 {
		t.Fatalf("expected both BLAS-2 and BLAS-3 work, got %+v", f.Fl)
	}
	gp, _ := GPFactorize(a)
	if f.Fl.Total() < gp.Flops {
		t.Fatalf("static-structure flops %d below dynamic-fill flops %d", f.Fl.Total(), gp.Flops)
	}
}

func TestAnalyzeSkipOrdering(t *testing.T) {
	a := sparse.RandomSparse(30, 2, 15)
	sym := Analyze(a, AnalyzeOptions{SkipOrdering: true, Supernode: supernode.Options{MaxBlock: 4}})
	for i, v := range sym.RowPerm {
		if v != i || sym.ColPerm[i] != i {
			t.Fatal("SkipOrdering must produce identity permutations")
		}
	}
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 16)
	if r := residual(a, f.Solve(b), b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

func TestSeqStarSingular(t *testing.T) {
	// Structurally fine but numerically rank-deficient.
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 2)
	coo.Add(1, 0, 2)
	coo.Add(1, 1, 4)
	coo.Add(1, 2, 0.5)
	coo.Add(2, 1, 1)
	coo.Add(2, 2, 1)
	a := coo.ToCSR()
	sym := Analyze(a, AnalyzeOptions{SkipOrdering: true, Supernode: supernode.Options{MaxBlock: 3}})
	if _, err := FactorizeSeq(a, sym); err == nil {
		t.Skip("matrix happened to be numerically nonsingular under this structure")
	}
}
