package sstar

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"sstar/internal/bench"
)

// factsBitIdentical compares two facade factorizations bit for bit: pivot
// sequence and every packed factor block.
func factsBitIdentical(t *testing.T, label string, a, b *Factorization) {
	t.Helper()
	for m := range a.fact.Piv {
		if a.fact.Piv[m] != b.fact.Piv[m] {
			t.Fatalf("%s: pivot %d differs", label, m)
		}
	}
	bm, bn := a.fact.BM, b.fact.BM
	for k := range bm.Diag {
		for i, v := range bm.Diag[k].Data {
			if bn.Diag[k].Data[i] != v {
				t.Fatalf("%s: diag block %d differs at %d", label, k, i)
			}
		}
		for j := range bm.LCol[k] {
			for i, v := range bm.LCol[k][j].Data {
				if bn.LCol[k][j].Data[i] != v {
					t.Fatalf("%s: L block (%d,%d) differs at %d", label, k, j, i)
				}
			}
		}
		for j := range bm.URow[k] {
			for i, v := range bm.URow[k][j].Data {
				if bn.URow[k][j].Data[i] != v {
					t.Fatalf("%s: U block (%d,%d) differs at %d", label, k, j, i)
				}
			}
		}
	}
}

// coarseMatrix is a matrix whose task grain admits the executor (ex11 at
// half size: 500 unknowns, 287 tasks of ~44k flops). The facade's
// host-parallel tests factor it so the grain gate cannot quietly run them on
// the sequential driver; onExecutor checks that it does not.
func coarseMatrix() *Matrix { return bench.ByName("ex11").Gen(0.5) }

// onExecutor fails the test unless f's numeric phase runs the task-DAG
// executor on more than one worker.
func onExecutor(t *testing.T, label string, f *Factorization) {
	t.Helper()
	if w := f.HostWorkers(); w < 2 {
		t.Fatalf("%s: the numeric phase runs on %d worker, want the host executor", label, w)
	}
}

func TestFactorizeHostParallelBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	a := coarseMatrix()
	seq, err := Factorize(a, Options{HostWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 4, 8} {
		o := DefaultOptions()
		o.HostWorkers = w
		par, err := Factorize(a, o)
		if err != nil {
			t.Fatalf("HostWorkers=%d: %v", w, err)
		}
		if w != 1 {
			onExecutor(t, fmt.Sprintf("HostWorkers=%d", w), par)
		}
		factsBitIdentical(t, "HostWorkers Factorize vs sequential", seq, par)
		b := rhs(a.N, int64(82+w))
		x, err := par.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := Residual(a, x, b); r > 1e-10 {
			t.Fatalf("HostWorkers=%d: residual %g", w, r)
		}
	}
}

// TestRefactorizeKeepsParallelPath: a handle built with HostWorkers > 1 on a
// matrix whose task grain admits the executor must refactorize through the
// parallel driver and still produce factors bit-identical to a fresh
// sequential factorization of the new values.
func TestRefactorizeKeepsParallelPath(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := coarseMatrix()
	o := DefaultOptions()
	o.HostWorkers = 4
	par, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if par.hostWorkers != 4 {
		t.Fatalf("handle lost its worker count: %d", par.hostWorkers)
	}
	if w := par.HostWorkers(); w != 4 {
		t.Fatalf("the handle refactorizes on %d workers, want 4", w)
	}
	a2 := a.Clone()
	for i := range a2.Val {
		a2.Val[i] *= 0.7
	}
	if err := par.Refactorize(a2); err != nil {
		t.Fatal(err)
	}
	seq, err := Factorize(a2, Options{HostWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	factsBitIdentical(t, "parallel refactorize vs fresh sequential", seq, par)
}

// TestHostWorkersGateBitIdentical: under the default options the numeric
// phase takes the executor where the task grain admits it (ex11, lnsp3937)
// and the sequential driver where it does not (a circuit), at GOMAXPROCS 1
// and whenever HostWorkers is 1; without a cap it runs at most the measured
// default of 2 workers — and the factors, fresh and refactorized, are the
// same bits on every path.
func TestHostWorkersGateBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		name string
		a    *Matrix
		par  bool // whether the grain admits the executor
	}{
		{"ex11", coarseMatrix(), true},
		{"lnsp3937", bench.ByName("lnsp3937").Gen(1), true},
		{"circuit", GenCircuit(5000, 3, GenOptions{Seed: 7}), false},
	} {
		seq, err := Factorize(c.a, Options{HostWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		v := valueSet(c.a, 1)
		seqV, err := Factorize(v, Options{HostWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			procs, cap, want int // want: the workers where the grain admits the executor
		}{{2, 0, 2}, {4, 0, 2}, {4, 3, 3}, {1, 0, 1}, {2, 1, 1}} {
			if !c.par {
				run.want = 1
			}
			runtime.GOMAXPROCS(run.procs)
			label := fmt.Sprintf("%s GOMAXPROCS=%d HostWorkers=%d", c.name, run.procs, run.cap)
			f, err := Factorize(c.a, Options{HostWorkers: run.cap})
			if err != nil {
				t.Fatal(err)
			}
			if w := f.HostWorkers(); w != run.want {
				t.Fatalf("%s: %d workers, want %d", label, w, run.want)
			}
			factsBitIdentical(t, label, seq, f)
			if err := f.Refactorize(v); err != nil {
				t.Fatal(err)
			}
			factsBitIdentical(t, label+" refactorized", seqV, f)
		}
	}
}

// TestStructureKeyIgnoresHostWorkers: the worker count never changes the
// analysis or the factors, so it must not fragment structure-keyed caches.
func TestStructureKeyIgnoresHostWorkers(t *testing.T) {
	a := GenGrid2D(9, 9, false, GenOptions{Seed: 84})
	base := DefaultOptions()
	k0 := StructureKey(a, base)
	for _, w := range []int{1, 2, 8, 64} {
		o := base
		o.HostWorkers = w
		if k := StructureKey(a, o); k != k0 {
			t.Fatalf("HostWorkers=%d changed the structure key: %x vs %x", w, k, k0)
		}
	}
	// The virtual-machine routing knobs are execution strategy, not
	// structure: they never change factors, so they must not fragment
	// structure-keyed caches either.
	vm := base
	vm.Procs, vm.Machine, vm.Mapping, vm.TraceParallel = 4, T3D, Map1DCA, true
	if k := StructureKey(a, vm); k != k0 {
		t.Fatalf("Procs/Machine/Mapping changed the structure key: %x vs %x", k, k0)
	}
	// Sanity: options that do change results still change the key.
	o := base
	o.BlockSize = base.BlockSize + 5
	if StructureKey(a, o) == k0 {
		t.Fatal("BlockSize change did not change the structure key")
	}
	// HostWorkers caps the numeric phase only: the analysis it comes with is
	// the same at every setting (Partition compared without its Times).
	c := GenCircuit(1200, 3, GenOptions{Seed: 85})
	var ref *Analysis
	for _, w := range []int{0, 1, 4} {
		o := base
		o.HostWorkers = w
		an, err := Analyze(c, o)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = an
			continue
		}
		p, q := an.sym.Partition, ref.sym.Partition
		if an.key != ref.key || !reflect.DeepEqual(an.sym.Static, ref.sym.Static) ||
			p.Choice != q.Choice || !reflect.DeepEqual(p.Start, q.Start) ||
			!reflect.DeepEqual(p.UCols, q.UCols) || !reflect.DeepEqual(p.LRows, q.LRows) ||
			!reflect.DeepEqual(p.UBlocks, q.UBlocks) || !reflect.DeepEqual(p.LBlocks, q.LBlocks) {
			t.Fatalf("HostWorkers=%d analysis differs from HostWorkers=0", w)
		}
	}
}
