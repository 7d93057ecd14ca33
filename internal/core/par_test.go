package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"sstar/internal/machine"
	"sstar/internal/sparse"
)

func testMatrixPar() *sparse.CSR {
	return sparse.Grid2D(12, 12, false, sparse.GenOptions{Seed: 21, Convection: 0.4, WeakDiagFraction: 0.1})
}

func solveAndCheck(t *testing.T, a *sparse.CSR, f *Factorization, tol float64) []float64 {
	t.Helper()
	b := randRHS(a.N, 99)
	x := f.Solve(b)
	if r := residual(a, x, b); r > tol {
		t.Fatalf("residual %g > %g", r, tol)
	}
	return x
}

func sameSolution(t *testing.T, x, y []float64, what string) {
	t.Helper()
	for i := range x {
		if math.Abs(x[i]-y[i]) > 1e-8*(1+math.Abs(y[i])) {
			t.Fatalf("%s: solutions differ at %d: %g vs %g", what, i, x[i], y[i])
		}
	}
}

func TestFactorize1DCAMatchesSequential(t *testing.T) {
	a := testMatrixPar()
	sym := analyzeFor(t, a, 8, 4)
	seq, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	xs := solveAndCheck(t, a, seq, 1e-9)
	for _, p := range []int{1, 2, 3, 4, 8} {
		res, err := Factorize1D(a, sym, machine.T3E(), ScheduleCA(sym, p))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		xp := solveAndCheck(t, a, res.Fact, 1e-9)
		sameSolution(t, xp, xs, "1D CA vs sequential")
		if res.ParallelTime <= 0 {
			t.Fatalf("P=%d: non-positive parallel time", p)
		}
		// Identical pivot sequences (same elimination, different mapping).
		for m := range seq.Piv {
			if seq.Piv[m] != res.Fact.Piv[m] {
				t.Fatalf("P=%d: pivot sequence differs at %d", p, m)
			}
		}
	}
}

func TestFactorize1DRAPIDMatchesSequential(t *testing.T) {
	a := testMatrixPar()
	sym := analyzeFor(t, a, 8, 4)
	seq, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	xs := solveAndCheck(t, a, seq, 1e-9)
	for _, p := range []int{2, 4} {
		res, err := Factorize1D(a, sym, machine.T3E(), ScheduleRAPID(sym, p, machine.T3E()))
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		xp := solveAndCheck(t, a, res.Fact, 1e-9)
		sameSolution(t, xp, xs, "1D RAPID vs sequential")
	}
}

func TestFactorize1DSpeedsUp(t *testing.T) {
	a := sparse.Grid2D(20, 20, false, sparse.GenOptions{Seed: 22})
	sym := analyzeFor(t, a, 12, 4)
	t1, err := Factorize1D(a, sym, machine.T3D(), ScheduleCA(sym, 1))
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Factorize1D(a, sym, machine.T3D(), ScheduleCA(sym, 4))
	if err != nil {
		t.Fatal(err)
	}
	if t4.ParallelTime >= t1.ParallelTime {
		t.Fatalf("no speedup: P=1 %v, P=4 %v", t1.ParallelTime, t4.ParallelTime)
	}
	if t4.SentBytes == 0 || t4.SentMessages == 0 {
		t.Fatal("parallel run sent no messages")
	}
	if t1.SentBytes != 0 {
		t.Fatal("single-processor run should not communicate")
	}
}

func TestRAPIDBeatsCAOnEnoughProcs(t *testing.T) {
	a := sparse.Grid2D(16, 16, false, sparse.GenOptions{Seed: 23})
	sym := analyzeFor(t, a, 10, 4)
	model := machine.T3E()
	p := 8
	ca, err := Factorize1D(a, sym, model, ScheduleCA(sym, p))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Factorize1D(a, sym, model, ScheduleRAPID(sym, p, model))
	if err != nil {
		t.Fatal(err)
	}
	// Graph scheduling should not be drastically worse; the paper reports
	// 10-40% better at P >= 8. Allow generous slack to avoid flakiness but
	// catch wild regressions.
	if ra.ParallelTime > ca.ParallelTime*1.25 {
		t.Fatalf("RAPID %v much slower than CA %v", ra.ParallelTime, ca.ParallelTime)
	}
}

func TestGridShape(t *testing.T) {
	cases := map[int][2]int{
		1:   {1, 1},
		2:   {1, 2},
		8:   {2, 4},
		32:  {4, 8},
		128: {8, 16},
	}
	for p, want := range cases {
		pr, pc := GridShape(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("GridShape(%d) = (%d,%d), want (%d,%d)", p, pr, pc, want[0], want[1])
		}
		if pr*pc != p {
			t.Errorf("GridShape(%d) does not multiply out", p)
		}
	}
}

// Prime processor counts > 3 must not collapse to a degenerate 1 x p grid:
// GridShape falls back to the best grid of p-1 (one idle processor beats a
// 1D mapping masquerading as 2D). Tiny counts keep their 1 x p row.
func TestGridShapePrime(t *testing.T) {
	cases := map[int][2]int{
		2:  {1, 2}, // small counts: 1 x p is the only sane shape
		3:  {1, 3},
		5:  {1, 4},  // falls back to 4, whose sqrt(p/2)-closest divisor is still 1
		7:  {2, 3},  // falls back to 6
		13: {2, 6},  // falls back to 12
		31: {3, 10}, // falls back to 30
	}
	for p, want := range cases {
		pr, pc := GridShape(p)
		if pr != want[0] || pc != want[1] {
			t.Errorf("GridShape(%d) = (%d,%d), want (%d,%d)", p, pr, pc, want[0], want[1])
		}
	}
	// Every count must yield a usable grid of p or p-1 processors, and no
	// prime count above 5 may keep the degenerate 1 x p row.
	for p := 1; p <= 64; p++ {
		pr, pc := GridShape(p)
		if pr < 1 || pc < 1 || pr*pc > p || pr*pc < p-1 {
			t.Errorf("GridShape(%d) = (%d,%d) out of range", p, pr, pc)
		}
		if p > 5 && smallestFactor(p) == p && pr == 1 {
			t.Errorf("GridShape(%d) = degenerate 1x%d grid for a prime count", p, pc)
		}
	}
}

func TestFactorize2DAsyncMatchesSequential(t *testing.T) {
	a := testMatrixPar()
	sym := analyzeFor(t, a, 8, 4)
	seq, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	xs := solveAndCheck(t, a, seq, 1e-9)
	for _, grid := range [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 2}, {3, 3}} {
		res, err := Factorize2D(a, sym, machine.T3E(), grid[0], grid[1], true)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		xp := solveAndCheck(t, a, res.Fact, 1e-9)
		sameSolution(t, xp, xs, "2D async vs sequential")
		for m := range seq.Piv {
			if seq.Piv[m] != res.Fact.Piv[m] {
				t.Fatalf("grid %v: pivot sequence differs at column %d", grid, m)
			}
		}
	}
}

func TestFactorize2DSyncMatchesSequential(t *testing.T) {
	a := testMatrixPar()
	sym := analyzeFor(t, a, 8, 4)
	seq, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	xs := solveAndCheck(t, a, seq, 1e-9)
	res, err := Factorize2D(a, sym, machine.T3E(), 2, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	xp := solveAndCheck(t, a, res.Fact, 1e-9)
	sameSolution(t, xp, xs, "2D sync vs sequential")
}

func TestAsyncBeatsSync2D(t *testing.T) {
	a := sparse.Grid2D(18, 18, false, sparse.GenOptions{Seed: 24})
	sym := analyzeFor(t, a, 10, 4)
	model := machine.T3E()
	asy, err := Factorize2D(a, sym, model, 2, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Factorize2D(a, sym, model, 2, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if asy.ParallelTime >= syn.ParallelTime {
		t.Fatalf("async %v not faster than sync %v", asy.ParallelTime, syn.ParallelTime)
	}
}

func TestParallelTimeDeterministic(t *testing.T) {
	a := testMatrixPar()
	sym := analyzeFor(t, a, 8, 4)
	model := machine.T3D()
	first := -1.0
	for i := 0; i < 5; i++ {
		res, err := Factorize2D(a, sym, model, 2, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = res.ParallelTime
		} else if res.ParallelTime != first {
			t.Fatalf("2D virtual time not deterministic: %v vs %v", res.ParallelTime, first)
		}
	}
	first = -1
	for i := 0; i < 5; i++ {
		res, err := Factorize1D(a, sym, model, ScheduleCA(sym, 5))
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = res.ParallelTime
		} else if res.ParallelTime != first {
			t.Fatalf("1D virtual time not deterministic: %v vs %v", res.ParallelTime, first)
		}
	}
}

func TestLoadBalance2DWithinRange(t *testing.T) {
	a := testMatrixPar()
	sym := analyzeFor(t, a, 8, 4)
	res, err := Factorize2D(a, sym, machine.T3E(), 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.LoadBalance <= 0 || res.LoadBalance > 1 {
		t.Fatalf("load balance %v out of (0,1]", res.LoadBalance)
	}
}

// TestLoadBalance2DRepeats: loadBalance2D sums the model's work in a fixed
// loop order, so the 2D codes' LoadBalance is bit-equal across repeated runs
// and whatever the number of host cores running the virtual processors.
func TestLoadBalance2DRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	a := sparse.Grid2D(18, 18, true, sparse.GenOptions{Seed: 26, Convection: 0.5})
	sym := analyzeFor(t, a, 10, 4)
	for _, async := range []bool{true, false} {
		var first uint64
		for i, procs := range []int{1, 2, 1, 2, 2} {
			runtime.GOMAXPROCS(procs)
			res, err := Factorize2D(a, sym, machine.T3E(), 4, 4, async)
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.LoadBalance); i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("async=%v GOMAXPROCS=%d run %d: LoadBalance bits %#x, first run %#x", async, procs, i, got, first)
			}
		}
	}
}

func TestBufferHighWaterBounded(t *testing.T) {
	// Theorem 2: the asynchronous 2D code needs bounded buffer space —
	// roughly (pc + pr) panels' worth, far below the full matrix size.
	a := sparse.Grid2D(16, 16, false, sparse.GenOptions{Seed: 25})
	sym := analyzeFor(t, a, 8, 4)
	res, err := Factorize2D(a, sym, machine.T3E(), 2, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	matrixBytes := 8 * res.Fact.BM.StorageEntries()
	if int64(res.BufferHigh) >= matrixBytes {
		t.Fatalf("buffer high water %d not below matrix size %d", res.BufferHigh, matrixBytes)
	}
}

func TestFactorize2DSingular(t *testing.T) {
	coo := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			coo.Add(i, j, 1) // rank-1: singular
		}
	}
	a := coo.ToCSR()
	sym := Analyze(a, AnalyzeOptions{SkipOrdering: true})
	for _, async := range []bool{true, false} {
		if _, err := Factorize2D(a, sym, machine.Unit(), 2, 2, async); !errors.Is(err, ErrSingular) {
			t.Fatalf("async=%v: 2D code returned %v, want ErrSingular", async, err)
		}
	}
	if _, err := Factorize1D(a, sym, machine.Unit(), ScheduleCA(sym, 2)); err == nil {
		t.Fatal("expected singular error from 1D code")
	}
}
