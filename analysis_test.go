package sstar

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/sparse"
)

func TestAnalyzeFactorizeWith(t *testing.T) {
	a := GenGrid2D(12, 12, false, GenOptions{Seed: 11, Convection: 0.2})
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if an.N() != a.N || an.pat.Nnz() != a.Nnz() {
		t.Fatalf("analysis dims: N=%d nnz=%d, want %d/%d", an.N(), an.pat.Nnz(), a.N, a.Nnz())
	}
	if an.sym.Static.NnzTotal() <= a.Nnz() || an.sym.Partition.NB <= 0 {
		t.Fatal("analysis metadata broken")
	}
	// The same analysis serves several same-pattern matrices.
	for s := int64(0); s < 3; s++ {
		m := a.Clone()
		for i := range m.Val {
			m.Val[i] *= 1 + 0.1*float64(s)
		}
		if !an.Matches(m) {
			t.Fatal("Matches rejects a same-pattern matrix")
		}
		f, err := an.FactorizeWith(m)
		if err != nil {
			t.Fatal(err)
		}
		b := rhs(m.N, 40+s)
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(m, x, b); r > 1e-10 {
			t.Fatalf("seed %d residual %g", s, r)
		}
	}
}

func TestFactorizeWithMatchesFactorize(t *testing.T) {
	a := GenCircuit(300, 6, GenOptions{Seed: 5})
	f1, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f2, err := an.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 6)
	x1, _ := f1.Solve(b)
	x2, _ := f2.Solve(b)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("FactorizeWith diverges from Factorize at %d", i)
		}
	}
}

func TestFactorizeWithRejectsMismatch(t *testing.T) {
	a := GenGrid2D(8, 8, false, GenOptions{Seed: 1})
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := an.FactorizeWith(nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if _, err := an.FactorizeWith(GenGrid2D(9, 8, false, GenOptions{Seed: 1})); err == nil {
		t.Fatal("wrong-order matrix accepted")
	}
	// Same order, different structure.
	other := GenGrid2D(8, 8, true, GenOptions{Seed: 1})
	if _, err := an.FactorizeWith(other); err == nil {
		t.Fatal("different-pattern matrix accepted")
	}
	if an.Matches(other) {
		t.Fatal("Matches accepts a different pattern")
	}
}

func TestRefactorizeRejectsPatternMismatch(t *testing.T) {
	a := GenGrid2D(8, 8, false, GenOptions{Seed: 3})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Refactorize(nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
	if err := f.Refactorize(GenGrid2D(9, 9, false, GenOptions{Seed: 3})); err == nil {
		t.Fatal("wrong-order matrix accepted")
	}
	// Same order (64), same generator family, different stencil: the 9-point
	// grid has more nonzeros in a different structure.
	if err := f.Refactorize(GenGrid2D(8, 8, true, GenOptions{Seed: 3})); err == nil {
		t.Fatal("different-pattern matrix accepted by Refactorize")
	}
	// The legitimate path still works after the rejections.
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 3
	}
	if err := f.Refactorize(a2); err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 9)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := Residual(a2, x, b); r > 1e-10 {
		t.Fatalf("residual after refactorize %g", r)
	}
}

func TestSolveRejectsBadRHS(t *testing.T) {
	a := sparse.Dense(12, 8)
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(nil); err == nil {
		t.Fatal("nil rhs accepted")
	}
	if _, err := f.Solve(make([]float64, 5)); err == nil {
		t.Fatal("short rhs accepted")
	}
	if _, err := f.SolveMany(make([]float64, 24), 0); err == nil {
		t.Fatal("nrhs=0 accepted by SolveMany")
	}
	if _, err := f.SolveMany(make([]float64, 23), 2); err == nil {
		t.Fatal("short block rhs accepted by SolveMany")
	}
}

func TestStructureKey(t *testing.T) {
	a := GenGrid2D(10, 10, false, GenOptions{Seed: 21})
	o := DefaultOptions()
	k := StructureKey(a, o)
	// Values don't matter.
	b := a.Clone()
	for i := range b.Val {
		b.Val[i] = -b.Val[i] + 0.5
	}
	if StructureKey(b, o) != k {
		t.Fatal("key depends on values")
	}
	// Structure does.
	if StructureKey(GenGrid2D(10, 10, true, GenOptions{Seed: 21}), o) == k {
		t.Fatal("key ignores structure")
	}
	// Options do.
	o2 := o
	o2.BlockSize = 8
	if StructureKey(a, o2) == k {
		t.Fatal("key ignores BlockSize")
	}
	o3 := o
	o3.PivotThreshold = 0.5
	if StructureKey(a, o3) == k {
		t.Fatal("key ignores PivotThreshold")
	}
	an, err := Analyze(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if an.Key() != k {
		t.Fatal("Analysis.Key disagrees with StructureKey")
	}
	if an.Options() != o {
		t.Fatal("Analysis.Options lost the options")
	}
}

// TestPatternHashMatchesFNV pins patternHash to hash/fnv's New64a over the
// little-endian bytes of N, M, RowPtr and ColInd, on random patterns of every
// small size (including empty and negative entries, which a hash must take
// as they come).
func TestPatternHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		a := &Matrix{N: rng.Intn(50), M: rng.Intn(50) - 5}
		a.RowPtr = make([]int, rng.Intn(20))
		a.ColInd = make([]int, rng.Intn(60))
		for i := range a.RowPtr {
			a.RowPtr[i] = int(rng.Int63()) - 1<<62
		}
		for i := range a.ColInd {
			a.ColInd[i] = rng.Intn(1000)
		}
		h := fnv.New64a()
		for _, x := range append(append([]int{a.N, a.M}, a.RowPtr...), a.ColInd...) {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
		}
		if got, want := patternHash(a), h.Sum64(); got != want {
			t.Fatalf("trial %d: patternHash = %#x, hash/fnv gives %#x", trial, got, want)
		}
	}
}

// TestStructureKeyGolden pins StructureKey's values: it is the analysis
// cache key, so a change to it silently empties every cache keyed by it.
func TestStructureKeyGolden(t *testing.T) {
	for _, c := range []struct {
		a    *Matrix
		o    Options
		want uint64
	}{
		{GenGrid2D(10, 10, false, GenOptions{Seed: 21}), DefaultOptions(), 0x3e7b12cd12892480},
		{bench.ByName("sherman5").Gen(1), DefaultOptions(), 0x313c6e8e34997bb5},
		{bench.ByName("lnsp3937").Gen(0.5), PaperOptions(), 0xd2f4489b2212e63c},
	} {
		if got := StructureKey(c.a, c.o); got != c.want {
			t.Errorf("StructureKey(N=%d) = %#x, want %#x", c.a.N, got, c.want)
		}
	}
	if got := patternHash(&Matrix{}); got != 0x88201fb960ff6465 {
		t.Errorf("patternHash(empty) = %#x, want 0x88201fb960ff6465", got)
	}
}
