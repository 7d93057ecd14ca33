package sstar

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// saveLoad returns Load of f's Save stream: the copy a full push installs.
func saveLoad(t testing.TB, f *Factorization) *Factorization {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// saveValues returns f's SaveValues stream.
func saveValues(t testing.TB, f *Factorization) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.SaveValues(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustSolve returns f's solution of b.
func mustSolve(t testing.TB, f *Factorization, b []float64) []float64 {
	t.Helper()
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// firstBitDiff returns the first index where x and y differ bitwise, -1
// when they are the same vector.
func firstBitDiff(x, y []float64) int {
	if len(x) != len(y) {
		return min(len(x), len(y))
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// factorsDiff describes the first difference between the factors of g and
// want — value slab, pivots, flop counts — bit for bit, or "" when there is
// none.
func factorsDiff(g, want *Factorization) string {
	if i := firstBitDiff(g.fact.BM.Values(), want.fact.BM.Values()); i >= 0 {
		return fmt.Sprintf("slab value %d differs", i)
	}
	if len(g.fact.Piv) != len(want.fact.Piv) {
		return fmt.Sprintf("%d pivots, want %d", len(g.fact.Piv), len(want.fact.Piv))
	}
	for i := range g.fact.Piv {
		if g.fact.Piv[i] != want.fact.Piv[i] {
			return fmt.Sprintf("pivot %d differs", i)
		}
	}
	if g.fact.Fl != want.fact.Fl {
		return fmt.Sprintf("flop counts %+v, want %+v", g.fact.Fl, want.fact.Fl)
	}
	return ""
}

// valuesSystem is the matrix the values-stream tests factor: weak diagonals
// and convection, so refactorizes with other values pick other pivots.
func valuesSystem() *Matrix {
	return GenGrid2D(12, 10, false, GenOptions{Seed: 81, Convection: 0.3, WeakDiagFraction: 0.2})
}

// rescaled returns a's pattern with the values of refactorize k.
func rescaled(a *Matrix, k int) *Matrix {
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] = a.Val[i] * (1 + 0.3*float64(k)*math.Sin(float64(i+k)))
	}
	return a2
}

// TestSaveValuesMatchesSave: a copy holding the first factors that applies
// the SaveValues stream of each of k refactorizes in turn equals Save → Load
// of the refactorized factors bit for bit — slab, pivots, flop counts, and
// the x of Solve and SolveMany — and LoadValues leaves the copy it reads
// against untouched.
func TestSaveValuesMatchesSave(t *testing.T) {
	a := valuesSystem()
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	held := saveLoad(t, f)
	b := rhs(a.N, 82)
	panel := append(append([]float64(nil), b...), rhs(a.N, 83)...)
	for k := 1; k <= 4; k++ {
		a2 := rescaled(a, k)
		if err := f.Refactorize(a2); err != nil {
			t.Fatal(err)
		}
		before := append([]float64(nil), held.fact.BM.Values()...)
		got, err := held.LoadValues(bytes.NewReader(saveValues(t, f)))
		if err != nil {
			t.Fatalf("refactorize %d: %v", k, err)
		}
		if i := firstBitDiff(held.fact.BM.Values(), before); i >= 0 {
			t.Fatalf("refactorize %d: LoadValues changed value %d of the copy it read against", k, i)
		}
		want := saveLoad(t, f)
		if d := factorsDiff(got, want); d != "" {
			t.Fatalf("refactorize %d: values stream differs from the full stream: %s", k, d)
		}
		xs, xw := mustSolve(t, got, b), mustSolve(t, want, b)
		if i := firstBitDiff(xs, xw); i >= 0 {
			t.Fatalf("refactorize %d: Solve x[%d] differs", k, i)
		}
		if r := Residual(a2, xs, b); r > 1e-9 {
			t.Fatalf("refactorize %d: residual %g", k, r)
		}
		ms, err := got.SolveMany(panel, 2)
		if err != nil {
			t.Fatal(err)
		}
		mw, err := want.SolveMany(panel, 2)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(ms, mw); i >= 0 {
			t.Fatalf("refactorize %d: SolveMany x[%d] differs", k, i)
		}
		held = got
	}
	// The loaded copy refactorizes like any other.
	if err := held.Refactorize(a); err != nil {
		t.Fatal(err)
	}
}

// TestLoadValuesRefuses: a values stream applies only to a factorization of
// its pattern and slab length, and only whole. A stream from another
// pattern, one whose structure has another slab length (same pattern, other
// blocking), every truncation and bit flip of a good stream, and a full
// Save stream are refused; Load refuses a values stream, which is how a
// peer that predates values pushes answers one.
func TestLoadValuesRefuses(t *testing.T) {
	a := valuesSystem()
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	stream := saveValues(t, f)

	other, err := Factorize(GenGrid2D(12, 10, true, GenOptions{Seed: 81}), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadValues(bytes.NewReader(stream)); err == nil {
		t.Error("LoadValues accepted a stream from another pattern")
	}
	// A dense matrix and the same less one entry the elimination fills back
	// in: two patterns over one static structure, so one slab length.
	dense := func(skip bool) *Factorization {
		c := NewCOO(10, 10)
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				if skip && i == 9 && j == 8 {
					continue
				}
				v := float64((i*7+j*3)%5) - 2
				if i == j {
					v += 20
				}
				c.Add(i, j, v)
			}
		}
		g, err := Factorize(c.ToCSR(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	full, holed := dense(false), dense(true)
	if full.FillIn() != holed.FillIn() {
		t.Fatal("the two dense patterns have different slab lengths; the case tests nothing")
	}
	if _, err := holed.LoadValues(bytes.NewReader(saveValues(t, full))); err == nil {
		t.Error("LoadValues accepted a stream from another pattern of the same slab length")
	}
	wide := PaperOptions()
	wide.BlockSize = 4
	reblocked, err := Factorize(a, wide)
	if err != nil {
		t.Fatal(err)
	}
	if reblocked.FillIn() == f.FillIn() {
		t.Fatal("the reblocked factorization has the same slab length; the case tests nothing")
	}
	if _, err := reblocked.LoadValues(bytes.NewReader(stream)); err == nil {
		t.Error("LoadValues accepted a stream of another slab length")
	}

	load := func(what string, data []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("LoadValues panicked on %s: %v", what, p)
			}
		}()
		if _, err := f.LoadValues(bytes.NewReader(data)); err == nil {
			t.Fatalf("LoadValues accepted %s", what)
		}
	}
	stride := len(stream)/512 + 1
	for cut := 0; cut < len(stream); cut += stride {
		load(fmt.Sprintf("truncation at %d/%d", cut, len(stream)), stream[:cut])
	}
	for pos := 0; pos < len(stream); pos += stride {
		mut := append([]byte(nil), stream...)
		mut[pos] ^= 1 << (pos % 8)
		load(fmt.Sprintf("bit flip at byte %d", pos), mut)
	}
	var saved bytes.Buffer
	if err := f.Save(&saved); err != nil {
		t.Fatal(err)
	}
	load("a full Save stream", saved.Bytes())
	if _, err := Load(bytes.NewReader(stream)); err == nil {
		t.Error("Load accepted a values stream")
	}
}

// FuzzLoadValues: LoadValues never panics on any input, and whatever it
// accepts holds exactly the factors of the stream it was seeded with — a
// corrupted stream never yields factors.
func FuzzLoadValues(f *testing.F) {
	a := GenGrid2D(6, 5, false, GenOptions{Seed: 84, WeakDiagFraction: 0.2})
	held, err := Factorize(a, DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	src, err := Factorize(rescaled(a, 1), DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	stream := saveValues(f, src)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := held.LoadValues(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d := factorsDiff(g, src); d != "" {
			t.Fatalf("LoadValues accepted a corrupted stream: %s", d)
		}
	})
}
