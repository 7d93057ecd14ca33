package sstar

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// stringsBuilder adapts a bytes.Buffer for write-then-read round trips.
type stringsBuilder struct{ buf bytes.Buffer }

func (s *stringsBuilder) Write(p []byte) (int, error) { return s.buf.Write(p) }
func (s *stringsBuilder) Reader() *strings.Reader     { return strings.NewReader(s.buf.String()) }

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return b
}

func TestFactorizeSolve(t *testing.T) {
	a := GenGrid2D(10, 10, false, GenOptions{Seed: 1, Convection: 0.3})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 2)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	if f.FillIn() <= int64(a.Nnz()) {
		t.Fatal("fill-in should exceed nnz(A)")
	}
	if f.Blocks() <= 0 || f.StaticFill() <= 0 {
		t.Fatal("metadata accessors broken")
	}
}

func TestFactorizeRejectsNonSquare(t *testing.T) {
	coo := NewCOO(2, 3)
	coo.Add(0, 0, 1)
	if _, err := Factorize(coo.ToCSR(), DefaultOptions()); err == nil {
		t.Fatal("expected non-square error")
	}
}

func TestSkipOrderingRequiresDiagonal(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	o := DefaultOptions()
	o.SkipOrdering = true
	if _, err := Factorize(coo.ToCSR(), o); err == nil {
		t.Fatal("expected zero-free diagonal error")
	}
	// Without SkipOrdering the transversal repairs it.
	if _, err := Factorize(coo.ToCSR(), DefaultOptions()); err != nil {
		t.Fatalf("transversal should have repaired the diagonal: %v", err)
	}
}

func TestRefactorize(t *testing.T) {
	a := GenCircuit(150, 3, GenOptions{Seed: 3})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same pattern, shifted values.
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 1.5
	}
	if err := f.Refactorize(a2); err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 4)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a2, x, b); r > 1e-10 {
		t.Fatalf("refactorized residual %g", r)
	}
	if err := f.Refactorize(GenDense(3, 1)); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestSolveLengthCheck(t *testing.T) {
	a := GenDense(10, 5)
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 3)); err == nil {
		t.Fatal("expected rhs length error")
	}
}

func TestFactorizeVirtualAllMappings(t *testing.T) {
	a := GenGrid2D(12, 12, false, GenOptions{Seed: 6, Convection: 0.4})
	b := rhs(a.N, 7)
	var ref []float64
	for _, mapping := range []Mapping{Map1DCA, Map1DRAPID, Map2D, Map2DSync} {
		f, err := Factorize(a, Options{Procs: 4, Machine: T3E, Mapping: mapping})
		if err != nil {
			t.Fatalf("%s: %v", mapping, err)
		}
		stats := f.RunStats()
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(a, x, b); r > 1e-10 {
			t.Fatalf("%s: residual %g", mapping, r)
		}
		if stats.ParallelTime <= 0 || stats.MFLOPS <= 0 {
			t.Fatalf("%s: bad stats %+v", mapping, stats)
		}
		if ref == nil {
			ref = x
		} else {
			for i := range x {
				if d := x[i] - ref[i]; d > 1e-8 || d < -1e-8 {
					t.Fatalf("%s: solution differs from reference at %d", mapping, i)
				}
			}
		}
	}
}

// TestFactorizeVirtualFold: the folded surface — Options.Procs routes
// Factorize through the virtual machine and RunStats surfaces the modeled
// statistics.
func TestFactorizeVirtualFold(t *testing.T) {
	a := GenGrid2D(12, 12, false, GenOptions{Seed: 6, Convection: 0.4})
	b := rhs(a.N, 7)
	o := DefaultOptions()
	o.Procs, o.Machine, o.Mapping = 4, T3E, Map2D
	f, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	stats := f.RunStats()
	if stats == nil || stats.ParallelTime <= 0 || stats.MFLOPS <= 0 {
		t.Fatalf("virtual-path RunStats missing or empty: %+v", stats)
	}
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, x, b); r > 1e-10 {
		t.Fatalf("residual %g", r)
	}
	// Host path must not carry run stats.
	fh, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fh.RunStats() != nil {
		t.Fatal("host-path factorization has virtual RunStats")
	}
}

func TestFactorizeVirtualValidation(t *testing.T) {
	a := GenDense(20, 8)
	if _, err := Factorize(a, Options{Procs: 2, Machine: "vax"}); err == nil {
		t.Fatal("expected unknown machine error")
	}
	if _, err := Factorize(a, Options{Procs: 2, Mapping: "3d"}); err == nil {
		t.Fatal("expected unknown mapping error")
	}
	// Defaults: empty machine/mapping -> T3E 2D.
	if f, err := Factorize(a, Options{Procs: 1}); err != nil || f.RunStats().ParallelTime <= 0 {
		t.Fatalf("defaulted run failed: %v", err)
	}
}

func TestMatrixMarketRoundTripFacade(t *testing.T) {
	a := GenCircuit(40, 3, GenOptions{Seed: 9})
	var buf stringsBuilder
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(buf.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if got.Nnz() != a.Nnz() || got.N != a.N {
		t.Fatal("round trip changed shape")
	}
}

func TestValidateRejectsDegenerateInputs(t *testing.T) {
	// Empty row.
	coo := NewCOO(3, 3)
	coo.Add(0, 0, 1)
	coo.Add(2, 2, 1)
	coo.Add(0, 1, 1)
	coo.Add(2, 1, 1)
	if _, err := Factorize(coo.ToCSR(), DefaultOptions()); err == nil {
		t.Fatal("expected empty-row rejection")
	}
	// Empty column.
	coo2 := NewCOO(3, 3)
	coo2.Add(0, 0, 1)
	coo2.Add(1, 0, 1)
	coo2.Add(2, 2, 1)
	if _, err := Factorize(coo2.ToCSR(), DefaultOptions()); err == nil {
		t.Fatal("expected empty-column rejection")
	}
	// Empty matrix.
	if _, err := Factorize(NewCOO(0, 0).ToCSR(), DefaultOptions()); err == nil {
		t.Fatal("expected empty-matrix rejection")
	}
	// Parallel path validates too.
	if _, err := Factorize(coo.ToCSR(), Options{Procs: 2}); err == nil {
		t.Fatal("expected parallel-path rejection")
	}
}
