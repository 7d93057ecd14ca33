package sstar

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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

// TestAnalysisOfLoadedFactorization: the analysis rebuilt from a saved and
// reloaded factorization is equivalent to a freshly computed one — same key,
// same options, matching pattern — and FactorizeWith on it produces
// bit-identical factors. This is the contract cluster replication rides on: a
// shard that receives a handle push factorizes that structure exactly as the
// shard that analyzed. A pattern other than the factorization's, or a key the
// pattern and options do not reproduce, is refused.
func TestAnalysisOfLoadedFactorization(t *testing.T) {
	a := GenGrid2D(11, 9, true, GenOptions{Seed: 78, Convection: 0.25})
	opts := PaperOptions()
	an, err := Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := an.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pattern := &Matrix{N: a.N, M: a.M, RowPtr: a.RowPtr, ColInd: a.ColInd}
	an2, err := AnalysisOf(loaded, pattern, opts, an.Key())
	if err != nil {
		t.Fatal(err)
	}
	if an2.Key() != an.Key() {
		t.Fatalf("rebuilt key %#x, want %#x", an2.Key(), an.Key())
	}
	if an2.Options() != an.Options() {
		t.Fatalf("rebuilt options %+v, want %+v", an2.Options(), an.Options())
	}
	if !an2.Matches(a) {
		t.Fatal("rebuilt analysis does not match its own pattern")
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
			t.Fatalf("rebuilt-analysis factorization solves differently at %d", i)
		}
	}

	other := GenGrid2D(11, 9, false, GenOptions{Seed: 78})
	if _, err := AnalysisOf(loaded, other, opts, StructureKey(other, opts)); err == nil {
		t.Error("AnalysisOf accepted a pattern other than the factorization's")
	}
	if _, err := AnalysisOf(loaded, pattern, opts, an.Key()+1); err == nil {
		t.Error("AnalysisOf accepted a key its pattern and options do not reproduce")
	}
	if _, err := AnalysisOf(loaded, pattern, DefaultOptions(), an.Key()); err == nil {
		t.Error("AnalysisOf accepted options the key was not computed with")
	}
	if _, err := AnalysisOf(loaded, nil, opts, an.Key()); err == nil {
		t.Error("AnalysisOf accepted a nil pattern")
	}
}

// TestSaveIsDeterministic: two analyses of one pattern save byte-equal
// streams. The analyze-phase timings are wall-clock readings, so Save leaves
// them out of the symbolic section; it leaves the held analysis as it was,
// and every other exported field reaches the stream.
func TestSaveIsDeterministic(t *testing.T) {
	a := GenGrid2D(12, 10, true, GenOptions{Seed: 81, Convection: 0.3})
	for _, o := range []Options{DefaultOptions(), PaperOptions()} {
		var saved [2][]byte
		for i := range saved {
			f, err := Factorize(a, o)
			if err != nil {
				t.Fatal(err)
			}
			phases, times := f.sym.Phases, f.sym.Partition.Times
			var buf bytes.Buffer
			if err := f.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if f.sym.Phases != phases || f.sym.Partition.Times != times {
				t.Fatal("Save changed the held analysis's timings")
			}
			saved[i] = buf.Bytes()
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Fatalf("%+v: two analyses of one pattern saved different bytes", o)
		}
	}
	f, err := Factorize(a, PaperOptions())
	if err != nil {
		t.Fatal(err)
	}
	same := func(got, want any, skip ...string) {
		g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	fields:
		for i := 0; i < w.NumField(); i++ {
			name := w.Type().Field(i).Name
			for _, s := range skip {
				if name == s {
					continue fields
				}
			}
			if w.Type().Field(i).IsExported() && !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
				t.Errorf("the saved symbolic section drops %s.%s", w.Type().Name(), name)
			}
		}
	}
	u := untimed(f.sym)
	same(u, f.sym, "Phases", "Partition")
	same(u.Partition, f.sym.Partition, "Times")
}
