package sstar

import (
	"runtime"
	"testing"
)

// TestAdaptiveGoldenBitIdentical is the facade-level golden test of
// structure-adaptive blocking: on the standard test matrices the adaptive
// default must (a) factor and solve to the usual residual, (b) produce
// bit-identical solutions sequentially and at HostWorkers=4 (the executor's
// determinism contract is blocking-independent), and (c) agree with the
// fixed paper configuration to roundoff — panel boundaries change the
// floating-point grouping, so bitwise equality with fixed-25 is not
// expected, but both are LU factorizations of the same matrix.
func TestAdaptiveGoldenBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mats := []*Matrix{
		GenGrid2D(10, 10, false, GenOptions{Seed: 1, Convection: 0.3}),
		GenGrid2D(8, 8, true, GenOptions{Seed: 2, DOF: 2}),
		GenCircuit(400, 3, GenOptions{Seed: 3, StructuralDrop: 0.2}),
		coarseMatrix(),
	}
	const coarse = 3 // the one whose task grain admits the executor
	for mi, a := range mats {
		b := rhs(a.N, int64(100+mi))

		seq, err := Factorize(a, Options{HostWorkers: 1})
		if err != nil {
			t.Fatalf("matrix %d seq: %v", mi, err)
		}
		if bc := seq.Blocking(); !bc.Adaptive || bc.MaxBlock <= 0 || bc.Amalgamate < 0 {
			t.Fatalf("matrix %d: default factorize not adaptive: %+v", mi, bc)
		}
		xSeq, err := seq.Solve(b)
		if err != nil {
			t.Fatalf("matrix %d seq solve: %v", mi, err)
		}
		if r := Residual(a, xSeq, b); r > 1e-10 {
			t.Fatalf("matrix %d: adaptive residual %g", mi, r)
		}

		po := DefaultOptions()
		po.HostWorkers = 4
		par, err := Factorize(a, po)
		if err != nil {
			t.Fatalf("matrix %d par: %v", mi, err)
		}
		if mi == coarse {
			onExecutor(t, "4-worker adaptive run", par)
		}
		xPar, err := par.Solve(b)
		if err != nil {
			t.Fatalf("matrix %d par solve: %v", mi, err)
		}
		for i := range xSeq {
			if xSeq[i] != xPar[i] {
				t.Fatalf("matrix %d: x[%d] differs between sequential and 4-worker adaptive runs: %v vs %v",
					mi, i, xSeq[i], xPar[i])
			}
		}

		fixed, err := Factorize(a, PaperOptions())
		if err != nil {
			t.Fatalf("matrix %d fixed: %v", mi, err)
		}
		if fixed.Blocking().Adaptive {
			t.Fatalf("matrix %d: PaperOptions reported adaptive", mi)
		}
		xFixed, err := fixed.Solve(b)
		if err != nil {
			t.Fatalf("matrix %d fixed solve: %v", mi, err)
		}
		for i := range xSeq {
			d := xSeq[i] - xFixed[i]
			if d > 1e-8 || d < -1e-8 {
				t.Fatalf("matrix %d: adaptive and fixed solutions diverge at %d: %v vs %v",
					mi, i, xSeq[i], xFixed[i])
			}
		}
	}
}

// TestAdaptiveAnalysisCarriesBlocking: the blocking choice rides with the
// Analysis (it is pattern-pure), so a reused analysis reports the same plan
// the factorization was built with, and explicit overrides win.
func TestAdaptiveAnalysisCarriesBlocking(t *testing.T) {
	a := GenGrid2D(9, 9, false, GenOptions{Seed: 7, Convection: 0.2})
	an, err := Analyze(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bc := an.Blocking()
	if !bc.Adaptive || bc.Panels != an.Blocks() {
		t.Fatalf("analysis blocking inconsistent: %+v vs %d blocks", bc, an.Blocks())
	}
	f, err := an.FactorizeWith(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocking() != bc {
		t.Fatalf("factorization blocking %+v != analysis blocking %+v", f.Blocking(), bc)
	}

	o := DefaultOptions()
	o.BlockSize = 7
	o.Amalgamate = 2
	an2, err := Analyze(a, o)
	if err != nil {
		t.Fatal(err)
	}
	bc2 := an2.Blocking()
	if bc2.Adaptive || bc2.MaxBlock != 7 || bc2.Amalgamate != 2 {
		t.Fatalf("explicit override not honored: %+v", bc2)
	}

	// Adaptive and fixed options key differently: the cache must never
	// serve one configuration's analysis for the other.
	if StructureKey(a, DefaultOptions()) == StructureKey(a, o) {
		t.Fatal("adaptive and fixed options share a structure key")
	}
}
