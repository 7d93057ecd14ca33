package sstar

import (
	"strings"
	"testing"
)

// malformed lists CSR storage that lies about itself, each case made from a
// fresh well-formed matrix.
var malformed = []struct {
	name string
	make func(a *Matrix) *Matrix
}{
	{"nil", func(*Matrix) *Matrix { return nil }},
	{"rowptr-short", func(a *Matrix) *Matrix { a.RowPtr = a.RowPtr[:a.N]; return a }},
	{"rowptr-long", func(a *Matrix) *Matrix { a.RowPtr = append(a.RowPtr, a.RowPtr[a.N]); return a }},
	{"rowptr-start", func(a *Matrix) *Matrix { a.RowPtr[0] = 1; return a }},
	{"rowptr-decreasing", func(a *Matrix) *Matrix { a.RowPtr[2] = a.RowPtr[1] - 1; return a }},
	{"rowptr-end", func(a *Matrix) *Matrix { a.RowPtr[a.N]--; return a }},
	{"rowptr-past-end", func(a *Matrix) *Matrix { a.RowPtr[a.N-1] = a.RowPtr[a.N] + 3; return a }},
	{"column-negative", func(a *Matrix) *Matrix { a.ColInd[0] = -1; return a }},
	{"column-past-m", func(a *Matrix) *Matrix { a.ColInd[len(a.ColInd)-1] = a.M; return a }},
	{"val-short", func(a *Matrix) *Matrix { a.Val = a.Val[:len(a.Val)-1]; return a }},
	{"val-long", func(a *Matrix) *Matrix { a.Val = append(a.Val, 1); return a }},
	{"negative-shape", func(a *Matrix) *Matrix { a.N, a.M = -1, -1; a.RowPtr = a.RowPtr[:0]; return a }},
}

func wellFormed() *Matrix { return GenGrid2D(4, 4, false, GenOptions{Seed: 3}) }

// TestMalformedMatrixIsAnError: every entrypoint that takes a matrix from the
// caller answers nil or malformed storage with an error, on the host path
// and the virtual machine's, instead of indexing past its slices.
func TestMalformedMatrixIsAnError(t *testing.T) {
	for _, c := range malformed {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Analyze(c.make(wellFormed()), DefaultOptions()); err == nil {
				t.Error("Analyze accepted it")
			}
			if _, err := Factorize(c.make(wellFormed()), DefaultOptions()); err == nil {
				t.Error("Factorize accepted it")
			}
			if _, err := Factorize(c.make(wellFormed()), Options{Procs: 4}); err == nil {
				t.Error("Factorize with Procs accepted it")
			}
			an, err := Analyze(wellFormed(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := an.Patch(c.make(wellFormed())); err == nil {
				t.Error("Patch accepted it")
			}
			if _, err := an.FactorizeWith(c.make(wellFormed())); err == nil {
				t.Error("FactorizeWith accepted it")
			}
			f, err := an.FactorizeWith(wellFormed())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Refactorize(c.make(wellFormed())); err == nil {
				t.Error("Refactorize accepted it")
			}
		})
	}
}

// TestShortValuesKeepFactors: a matrix with the analyzed pattern but one
// value short is refused by FactorizeWith and Refactorize, and a refused
// Refactorize leaves the previous factors answering.
func TestShortValuesKeepFactors(t *testing.T) {
	a := wellFormed()
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	short := a.Clone()
	short.Val = short.Val[:len(short.Val)-1]
	if _, err := an.FactorizeWith(short); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("FactorizeWith of a short Val: err %v", err)
	}
	f, err := an.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	b := rhs(a.N, 5)
	before, _ := f.Solve(b)
	if err := f.Refactorize(short); err == nil || !strings.Contains(err.Error(), "values") {
		t.Fatalf("Refactorize of a short Val: err %v", err)
	}
	after, _ := f.Solve(b)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("refused Refactorize changed the factors (x[%d])", i)
		}
	}
}

// TestDuplicateEntryIsAnError: a row naming one column twice is refused. The
// factorization would keep one of the two values where the matrix's own
// MulVec sums them, so the answer would solve a different system.
func TestDuplicateEntryIsAnError(t *testing.T) {
	a := wellFormed()
	a.ColInd[1] = a.ColInd[0]
	if _, err := Factorize(a, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("Factorize of a duplicate entry: err %v", err)
	}
}
