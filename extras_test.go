package sstar

import (
	"math"
	"testing"
)

func TestFacadeSolveTranspose(t *testing.T) {
	a := GenGrid2D(9, 9, false, GenOptions{Seed: 61, Convection: 0.4})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 62)
	x, err := f.SolveTranspose(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a.Transpose(), x, b); r > 1e-9 {
		t.Fatalf("transpose residual %g", r)
	}
	if _, err := f.SolveTranspose(make([]float64, 2)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestFacadeSolveMany(t *testing.T) {
	a := GenCircuit(60, 3, GenOptions{Seed: 63})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	nrhs := 2
	b := make([]float64, a.N*nrhs)
	copy(b, rhs(a.N, 64))
	copy(b[a.N:], rhs(a.N, 65))
	x, err := f.SolveMany(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < nrhs; j++ {
		if r := Residual(a, x[j*a.N:(j+1)*a.N], b[j*a.N:(j+1)*a.N]); r > 1e-9 {
			t.Fatalf("rhs %d residual %g", j, r)
		}
	}
}

func TestFacadeRefineAndCondEst(t *testing.T) {
	a := GenGrid2D(8, 8, false, GenOptions{Seed: 66})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 67)
	x, _ := f.Solve(b)
	res := f.Refine(a, x, b, 1e-14, 5)
	if res.Berr > 1e-12 {
		t.Fatalf("refined backward error %g", res.Berr)
	}
	c := f.CondEst(a)
	if c < 1 || math.IsInf(c, 0) || math.IsNaN(c) {
		t.Fatalf("condition estimate %g", c)
	}
}

func TestFacadeStatsAndThreshold(t *testing.T) {
	a := GenGrid2D(10, 10, false, GenOptions{Seed: 68, WeakDiagFraction: 0.2})
	o := DefaultOptions()
	fc, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	o.PivotThreshold = 0.05
	ft, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	sc, st := fc.Stats(a), ft.Stats(a)
	if st.Interchanges > sc.Interchanges {
		t.Fatalf("threshold pivoting increased interchanges (%d > %d)", st.Interchanges, sc.Interchanges)
	}
	if sc.Blas3Fraction <= 0 || sc.GrowthFactor <= 0 {
		t.Fatalf("stats incomplete: %+v", sc)
	}
	b := rhs(a.N, 69)
	x, _ := ft.Solve(b)
	if r := Residual(a, x, b); r > 1e-8 {
		t.Fatalf("threshold-pivoted residual %g", r)
	}
}

func TestFacadeEquilibrate(t *testing.T) {
	a := GenCircuit(50, 3, GenOptions{Seed: 70})
	bad := a.Clone()
	for i := 0; i < bad.N; i++ {
		_, vals := bad.Row(i)
		s := math.Pow(10, float64(i%9)-4)
		for k := range vals {
			vals[k] *= s
		}
	}
	scaled, rs, cs := Equilibrate(bad)
	f, err := Factorize(scaled, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(bad.N, 71)
	rb := make([]float64, bad.N)
	for i := range rb {
		rb[i] = rs[i] * b[i]
	}
	y, _ := f.Solve(rb)
	x := make([]float64, bad.N)
	for j := range x {
		x[j] = cs[j] * y[j]
	}
	if r := Residual(bad, x, b); r > 1e-9 {
		t.Fatalf("equilibrated residual %g", r)
	}
}

func TestSolveDistributed(t *testing.T) {
	a := GenGrid2D(12, 12, false, GenOptions{Seed: 72, WeakDiagFraction: 0.1})
	b := rhs(a.N, 73)
	for _, mapping := range []Mapping{Map1DCA, Map1DRAPID, Map2D} {
		f, err := Factorize(a, Options{Procs: 4, Mapping: mapping})
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := f.SolveDistributed(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(a, x, b); r > 1e-9 {
			t.Fatalf("%s: residual %g", mapping, r)
		}
		if st.ParallelTime <= 0 {
			t.Fatalf("%s: bad solve stats %+v", mapping, st)
		}
		// Must agree with the sequential solve.
		xs, _ := f.Solve(b)
		for i := range x {
			d := x[i] - xs[i]
			if d > 1e-10 || d < -1e-10 {
				t.Fatalf("%s: distributed solve differs at %d", mapping, i)
			}
		}
	}
	// Sequential factorization path: single-processor model.
	fs, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := fs.SolveDistributed(b)
	if err != nil {
		t.Fatal(err)
	}
	if st.SentMessages != 0 {
		t.Fatalf("sequential-model solve sent %d messages", st.SentMessages)
	}
	if r := Residual(a, x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}
