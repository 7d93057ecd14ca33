package sstar

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"sstar/internal/sparse"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	a := GenGrid2D(10, 10, false, GenOptions{Seed: 75, WeakDiagFraction: 0.15})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 76)
	x1, _ := f.Solve(b)
	x2, err := g.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("loaded factorization solves differently at %d", i)
		}
	}
	// The multi-RHS solve and refactorize must work on the loaded object
	// too; SolveMany's first column is bitwise the original's Solve.
	bm := append(append([]float64(nil), b...), rhs(a.N, 77)...)
	xm, err := g.SolveMany(bm, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if xm[i] != x1[i] {
			t.Fatalf("loaded SolveMany column 0 differs from Solve at %d", i)
		}
	}
	if r := Residual(a, xm[a.N:], bm[a.N:]); r > 1e-9 {
		t.Fatalf("loaded SolveMany residual %g", r)
	}
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 2
	}
	if err := g.Refactorize(a2); err != nil {
		t.Fatal(err)
	}
	x3, _ := g.Solve(b)
	if r := Residual(a2, x3, b); r > 1e-9 {
		t.Fatalf("loaded refactorize residual %g", r)
	}
	// Sanity: halving all values doubles the solution.
	for i := range x3 {
		if math.Abs(2*x3[i]-x1[i]) > 1e-8*(1+math.Abs(x1[i])) {
			t.Fatalf("scaled refactorization inconsistent at %d", i)
		}
	}
}

func TestLoadedFactorizationKeepsPatternCheck(t *testing.T) {
	a := GenGrid2D(8, 8, false, GenOptions{Seed: 31})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A different-structure matrix of the same order must still be rejected
	// after the round trip: the pattern fingerprint travels with the stream.
	if err := g.Refactorize(GenGrid2D(8, 8, true, GenOptions{Seed: 31})); err == nil {
		t.Fatal("loaded factorization accepted a different pattern")
	}
}

// TestLoadNeverPanicsOnCorruption is the corruption fuzz of the wire format:
// truncate the stream at every length and flip bits across the stream; Load
// must return an error every time and may never panic or succeed.
func TestLoadNeverPanicsOnCorruption(t *testing.T) {
	a := GenGrid2D(6, 6, false, GenOptions{Seed: 32})
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	load := func(what string, data []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Load panicked on %s: %v", what, p)
			}
		}()
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("Load accepted %s", what)
		}
	}
	// Every truncation point (stride keeps the test fast on big streams).
	stride := len(full)/512 + 1
	for cut := 0; cut < len(full); cut += stride {
		load(fmt.Sprintf("truncation at %d/%d", cut, len(full)), full[:cut])
	}
	// Single-bit flips across the stream: the per-frame CRC must catch all
	// of them (a flip in a length field trips the checksum or size bound).
	for pos := 0; pos < len(full); pos += stride {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 1 << bit
			load(fmt.Sprintf("bit flip at byte %d bit %d", pos, bit), mut)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("this is not a factorization")); err == nil {
		t.Fatal("expected error for garbage stream")
	}
	var buf bytes.Buffer
	a := sparse.Dense(8, 77)
	f, _ := Factorize(a, DefaultOptions())
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Truncate: must fail cleanly.
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// TestAnalysisSaveLoadRoundTrip: a saved symbolic analysis reloads into an
// equivalent object — same key, same options, matching pattern — and
// FactorizeWith on the loaded analysis produces bit-identical factors. This
// is the contract cluster analysis replication rides on: a shard that
// receives the blob factorizes exactly as the shard that analyzed.
func TestAnalysisSaveLoadRoundTrip(t *testing.T) {
	a := GenGrid2D(11, 9, true, GenOptions{Seed: 78, Convection: 0.25})
	opts := DefaultOptions()
	an, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Save(&buf); err != nil {
		t.Fatal(err)
	}
	an2, err := LoadAnalysis(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if an2.Key() != an.Key() {
		t.Fatalf("loaded key %#x, want %#x", an2.Key(), an.Key())
	}
	if an2.Options() != an.Options() {
		t.Fatalf("loaded options %+v, want %+v", an2.Options(), an.Options())
	}
	if !an2.Matches(a) {
		t.Fatal("loaded analysis does not match its own pattern")
	}
	f1, err := an.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := an2.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 79)
	x1, err := f1.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := f2.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatalf("loaded-analysis factorization solves differently at %d", i)
		}
	}
	// An observer never travels: Save strips it so the blob is stable and the
	// receiver's cache equality check is not poisoned by a foreign pointer.
	opts2 := opts
	opts2.Observer = newRecordingObserver()
	an3, err := Analyze(a, opts2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := an3.Save(&buf); err != nil {
		t.Fatal(err)
	}
	an4, err := LoadAnalysis(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if an4.Options().Observer != nil {
		t.Fatal("observer survived the analysis round trip")
	}
}

// TestLoadAnalysisNeverPanicsOnCorruption: truncations and bit flips across
// an analysis stream must fail with an error, never panic or load.
func TestLoadAnalysisNeverPanicsOnCorruption(t *testing.T) {
	a := GenGrid2D(7, 6, false, GenOptions{Seed: 80})
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	load := func(what string, data []byte) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("LoadAnalysis panicked on %s: %v", what, p)
			}
		}()
		if _, err := LoadAnalysis(bytes.NewReader(data)); err == nil {
			t.Fatalf("LoadAnalysis accepted %s", what)
		}
	}
	stride := len(full)/512 + 1
	for cut := 0; cut < len(full); cut += stride {
		load(fmt.Sprintf("truncation at %d/%d", cut, len(full)), full[:cut])
	}
	for pos := 0; pos < len(full); pos += stride {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), full...)
			mut[pos] ^= 1 << bit
			load(fmt.Sprintf("bit flip at byte %d bit %d", pos, bit), mut)
		}
	}
	load("garbage", []byte("this is not an analysis"))
	// A factorization stream is not an analysis stream and vice versa.
	f, err := Factorize(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load("a factorization stream", buf.Bytes())
}
