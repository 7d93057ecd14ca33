package core

import (
	"math"
	"math/rand"
	"testing"

	"sstar/internal/machine"
	"sstar/internal/sparse"
)

func TestSolveMany(t *testing.T) {
	a := sparse.Circuit(80, 3, sparse.GenOptions{Seed: 46})
	sym := analyzeFor(t, a, 8, 4)
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	nrhs := 3
	b := make([]float64, a.N*nrhs)
	for j := 0; j < nrhs; j++ {
		copy(b[j*a.N:], randRHS(a.N, int64(50+j)))
	}
	x, err := f.SolveMany(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nrhs; j++ {
		if r := residual(a, x[j*a.N:(j+1)*a.N], b[j*a.N:(j+1)*a.N]); r > 1e-9 {
			t.Fatalf("rhs %d: residual %g", j, r)
		}
	}
	if _, err := f.SolveMany(b[:5], nrhs); err == nil {
		t.Fatal("expected length error")
	}
}

// TestSolveManyBitIdentical: SolveMany's contract — at every width 1..32 (and
// past it) each column is bit for bit what Solve returns on that column
// alone, signed zeros included, on both sides of the lone-solve cutoff. The
// second matrix has wide supernodes: 19-row panels, so the diagonal blocks
// run full four-row MulSub strips and then single rows on every block.
func TestSolveManyBitIdentical(t *testing.T) {
	for _, c := range []struct {
		name  string
		a     *sparse.CSR
		bsize int
	}{
		{"grid2d", sparse.Grid2D(11, 10, false, sparse.GenOptions{Seed: 48, Convection: 0.4, WeakDiagFraction: 0.2}), 8},
		{"grid3d-wide", sparse.Grid3D(5, 5, 4, sparse.GenOptions{DOF: 3, Convection: 0.4, DiagCoupling: true, WeakDiagFraction: 0.2, Seed: 49}), 19},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := c.a
			sym := analyzeFor(t, a, c.bsize, 4)
			f, err := FactorizeSeq(a, sym)
			if err != nil {
				t.Fatal(err)
			}
			if f.Stats(0).Interchanges == 0 {
				t.Fatal("test needs interchanges to exercise the panel row swaps")
			}
			if widest := maxPanel(sym); widest != c.bsize {
				t.Fatalf("widest panel has %d rows, want %d", widest, c.bsize)
			}
			widths := make([]int, 0, 34)
			for w := 1; w <= 32; w++ {
				widths = append(widths, w)
			}
			widths = append(widths, 33, 40)
			rng := rand.New(rand.NewSource(71))
			for _, nrhs := range widths {
				b := make([]float64, a.N*nrhs)
				for j := 0; j < nrhs; j++ {
					copy(b[j*a.N:], randRHS(a.N, int64(700+j)))
				}
				checkSolveManyBits(t, f, b, nrhs)
				checkSolveManyBits(t, f, zeroPanel(a.N, nrhs, rng), nrhs)
			}
			if _, err := f.SolveMany(nil, 0); err == nil {
				t.Fatal("expected nrhs error")
			}
			if _, err := f.SolveMany(make([]float64, 5), 2); err == nil {
				t.Fatal("expected length error")
			}
		})
	}
}

// zeroPanel is an n × nrhs right-hand side that holds the negated-operand
// argument where it is thinnest: its columns cycle through all +0, all −0,
// mostly zeros of mixed sign with a few nonzeros, and ordinary values.
func zeroPanel(n, nrhs int, rng *rand.Rand) []float64 {
	negZero := math.Copysign(0, -1)
	b := make([]float64, n*nrhs)
	for j := 0; j < nrhs; j++ {
		col := b[j*n : (j+1)*n]
		for i := range col {
			switch j % 4 {
			case 0: // all +0: already
			case 1:
				col[i] = negZero
			case 2:
				switch r := rng.Intn(16); {
				case r == 0:
					col[i] = 2*rng.Float64() - 1
				case r < 8:
					col[i] = negZero
				}
			case 3:
				col[i] = 2*rng.Float64() - 1
			}
		}
	}
	return b
}

// TestSolveManyNaN: a NaN in one right-hand side poisons the same entries of
// that column as in Solve and no entry of any other column. Only the NaNs'
// positions are compared — their sign bit is outside SolveMany's contract.
func TestSolveManyNaN(t *testing.T) {
	a := sparse.Grid2D(11, 10, false, sparse.GenOptions{Seed: 48, Convection: 0.4, WeakDiagFraction: 0.2})
	f, err := FactorizeSeq(a, analyzeFor(t, a, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, nrhs := range []int{2, 4, 8} {
		b := make([]float64, a.N*nrhs)
		for j := 0; j < nrhs; j++ {
			copy(b[j*a.N:], randRHS(a.N, int64(900+j)))
		}
		b[a.N+a.N/2] = math.NaN()
		x, err := f.SolveMany(b, nrhs)
		if err != nil {
			t.Fatal(err)
		}
		nans := 0
		for j := 0; j < nrhs; j++ {
			ref := f.Solve(b[j*a.N : (j+1)*a.N])
			for i, v := range x[j*a.N : (j+1)*a.N] {
				switch {
				case math.IsNaN(v) != math.IsNaN(ref[i]):
					t.Fatalf("nrhs=%d rhs %d: NaN at %d is %v, Solve's is %v", nrhs, j, i, v, ref[i])
				case math.IsNaN(v):
					nans++
				case math.Float64bits(v) != math.Float64bits(ref[i]):
					t.Fatalf("nrhs=%d rhs %d: differs from Solve at %d: %v vs %v", nrhs, j, i, v, ref[i])
				}
			}
		}
		if nans == 0 {
			t.Fatalf("nrhs=%d: the NaN right-hand side produced no NaN", nrhs)
		}
	}
}

// checkSolveManyBits fails unless every column of SolveMany(b, nrhs) is
// bitwise Solve of that column, signed zeros included.
func checkSolveManyBits(t *testing.T, f *Factorization, b []float64, nrhs int) {
	t.Helper()
	n := f.Sym.N
	x, err := f.SolveMany(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nrhs; j++ {
		ref := f.Solve(b[j*n : (j+1)*n])
		for i, v := range x[j*n : (j+1)*n] {
			if math.Float64bits(v) != math.Float64bits(ref[i]) {
				t.Fatalf("nrhs=%d rhs %d: SolveMany differs from Solve at %d: %v vs %v", nrhs, j, i, v, ref[i])
			}
		}
	}
}

func maxPanel(sym *Symbolic) int {
	widest := 0
	for k := 0; k < sym.Partition.NB; k++ {
		widest = max(widest, sym.Partition.Size(k))
	}
	return widest
}

func TestThresholdPivoting(t *testing.T) {
	a := sparse.Grid2D(10, 10, false, sparse.GenOptions{Seed: 47, WeakDiagFraction: 0.15})
	classical := analyzeFor(t, a, 8, 4)
	fc, err := FactorizeSeq(a, classical)
	if err != nil {
		t.Fatal(err)
	}
	thresholded := analyzeFor(t, a, 8, 4)
	thresholded.PivotTol = 0.1
	ft, err := FactorizeSeq(a, thresholded)
	if err != nil {
		t.Fatal(err)
	}
	sc, st := fc.Stats(0), ft.Stats(0)
	if st.Interchanges > sc.Interchanges {
		t.Fatalf("threshold pivoting increased interchanges: %d vs %d", st.Interchanges, sc.Interchanges)
	}
	b := randRHS(a.N, 48)
	if r := residual(a, ft.Solve(b), b); r > 1e-8 {
		t.Fatalf("thresholded residual %g", r)
	}
}

func TestThresholdPivotingConsistentAcrossCodes(t *testing.T) {
	a := sparse.Grid2D(10, 10, false, sparse.GenOptions{Seed: 49, WeakDiagFraction: 0.2})
	sym := analyzeFor(t, a, 8, 4)
	sym.PivotTol = 0.25
	seq, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Factorize2D(a, sym, machine.T3E(), 2, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := Factorize1D(a, sym, machine.T3E(), ScheduleCA(sym, 3))
	if err != nil {
		t.Fatal(err)
	}
	for m := range seq.Piv {
		if seq.Piv[m] != d2.Fact.Piv[m] || seq.Piv[m] != d1.Fact.Piv[m] {
			t.Fatalf("threshold pivot choice diverged at column %d", m)
		}
	}
}

func TestStatsBlas3Fraction(t *testing.T) {
	// On the goodwin-family CFD matrix the paper reports >= 64% of the
	// update work in DGEMM; our packed-block implementation should land in
	// the same regime.
	a := sparse.Grid2D(16, 16, true, sparse.GenOptions{Seed: 50, DOF: 4, Convection: 0.5})
	sym := analyzeFor(t, a, 25, 4)
	f, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats(MaxAbs(a.Val))
	if st.Blas3Fraction < 0.5 {
		t.Fatalf("BLAS-3 fraction %.2f, want >= 0.5 (paper: ~0.64)", st.Blas3Fraction)
	}
	if st.GrowthFactor < 1 || st.GrowthFactor > 1e6 {
		t.Fatalf("implausible growth factor %g", st.GrowthFactor)
	}
	if st.StorageEntries <= 0 {
		t.Fatal("storage entries missing")
	}
}
