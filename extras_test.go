package sstar

import (
	"testing"

	"sstar/internal/core"
)

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

func TestFacadeStats(t *testing.T) {
	a := GenGrid2D(10, 10, false, GenOptions{Seed: 68, WeakDiagFraction: 0.2})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := f.fact.Stats(core.MaxAbs(a.Val))
	if st.Blas3Fraction <= 0 || st.GrowthFactor <= 0 {
		t.Fatalf("stats incomplete: %+v", st)
	}
	b := rhs(a.N, 69)
	x, _ := f.Solve(b)
	if r := Residual(a, x, b); r > 1e-8 {
		t.Fatalf("residual %g", r)
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
