package sstar

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// valueSet returns a copy of a with every value rescaled by a smooth,
// set-specific factor: same pattern, different numbers, still well
// conditioned.
func valueSet(a *Matrix, set int) *Matrix {
	b := a.Clone()
	for q := range b.Val {
		b.Val[q] *= 1 + 0.2*math.Sin(float64(5*set+q))
	}
	return b
}

// singularLike returns a copy of a, same pattern, whose last-eliminated
// column is all zeros: the factorization runs through every earlier panel
// (overwriting whatever storage it was given) and only then fails.
func singularLike(a *Matrix, f *Factorization) *Matrix {
	last := 0
	for j, pj := range f.sym.ColPerm {
		if pj == a.N-1 {
			last = j
		}
	}
	b := a.Clone()
	for q, j := range b.ColInd {
		if j == last {
			b.Val[q] = 0
		}
	}
	return b
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// TestRefactorizeFailureIsAtomic pins the contract the in-place Refactorize
// must keep: a singular refactorization returns ErrSingular and leaves the
// previous factors live — Solve answers bitwise as before — whether it is
// the first refactorization of the handle (the second value buffer is
// allocated by it) or a later one, sequential or task-parallel; and the
// handle keeps working afterwards. A non-finite value fails the same way.
func TestRefactorizeFailureIsAtomic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		a       *Matrix
		workers int
	}{
		{GenGrid3D(7, 6, 5, GenOptions{Seed: 41, Convection: 0.4}), 1},
		{coarseMatrix(), 3},
	} {
		a, workers := c.a, c.workers
		b := rhs(a.N, 42)
		o := DefaultOptions()
		o.HostWorkers = workers
		f, err := Factorize(a, o)
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 {
			onExecutor(t, "parallel handle", f)
		}
		// Two ways to fail: an all-zero column, and one NaN value — which used
		// to come back as NaN factors with a nil error.
		nan := a.Clone()
		nan.Val[len(nan.Val)/2] = math.NaN()
		bads := []*Matrix{singularLike(a, f), nan, singularLike(a, f)}
		for round, bad := range bads {
			before, _ := f.Solve(b)
			if err := f.Refactorize(bad); !errors.Is(err, ErrSingular) {
				t.Fatalf("workers=%d round %d: singular refactorize returned %v, want ErrSingular", workers, round, err)
			}
			after, err := f.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(before, after) {
				t.Fatalf("workers=%d round %d: Solve changed after a failed Refactorize", workers, round)
			}
			good := valueSet(a, round)
			if err := f.Refactorize(good); err != nil {
				t.Fatalf("workers=%d round %d: refactorize after a failure: %v", workers, round, err)
			}
			fresh, err := Factorize(good, Options{HostWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			factsBitIdentical(t, "refactorize after a failed one vs fresh", fresh, f)
		}
	}
}

// TestRefactorizeRepeatedMatchesFresh: many refactorizations of one handle,
// cycling through value sets, each bit-identical to a fresh FactorizeWith on
// the same Analysis — nothing of one set's factors survives into the next.
// The grid has supernodes wide enough that the sequential executor keeps each
// panel's L blocks packed across its updates: a packed panel left over from
// the previous values would show here.
func TestRefactorizeRepeatedMatchesFresh(t *testing.T) {
	for _, a := range []*Matrix{
		GenCircuit(400, 3, GenOptions{Seed: 43}),
		GenGrid3D(9, 8, 7, GenOptions{Seed: 44, Convection: 0.3}),
	} {
		an, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		f, err := an.FactorizeWith(a)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 9; round++ {
			v := valueSet(a, round%4)
			if err := f.Refactorize(v); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			fresh, err := an.FactorizeWith(v)
			if err != nil {
				t.Fatal(err)
			}
			factsBitIdentical(t, "Refactorize vs fresh FactorizeWith", fresh, f)
		}
	}
}

// TestLoadThenRefactorize: a loaded factorization has no assembly map and no
// second value buffer; its first Refactorize must build both and still match
// a fresh factorization bit for bit, stay atomic on failure, and keep going.
func TestLoadThenRefactorize(t *testing.T) {
	a := GenGrid2D(14, 11, true, GenOptions{Seed: 44, Convection: 0.3})
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
	factsBitIdentical(t, "loaded vs saved", f, g)
	b := rhs(a.N, 45)
	before, _ := g.Solve(b)
	if err := g.Refactorize(singularLike(a, f)); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular refactorize of a loaded handle returned %v", err)
	}
	if after, _ := g.Solve(b); !sameBits(before, after) {
		t.Fatal("loaded handle: Solve changed after a failed Refactorize")
	}
	for round := 0; round < 3; round++ {
		v := valueSet(a, round)
		if err := g.Refactorize(v); err != nil {
			t.Fatal(err)
		}
		fresh, err := Factorize(v, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		factsBitIdentical(t, "loaded then refactorized vs fresh", fresh, g)
	}
}

// TestConcurrentFactorizeWithSharedAnalysis: the block skeleton and the
// update plan hang off the analysis and are built lazily by whichever
// factorization gets there first. Many goroutines starting at once on a
// never-used Analysis must all get the same factors (run under -race: the
// lazy builds — the executor's task graph among them — are the shared state).
func TestConcurrentFactorizeWithSharedAnalysis(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := coarseMatrix()
	want, err := Factorize(a, Options{HostWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		o := DefaultOptions()
		o.HostWorkers = trial % 3 // 0, 1, 2: task-parallel and sequential
		an, err := Analyze(a, o)
		if err != nil {
			t.Fatal(err)
		}
		const n = 8
		facts := make([]*Factorization, n)
		errs := make([]error, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if facts[g], errs[g] = an.FactorizeWith(a); errs[g] == nil {
					errs[g] = facts[g].Refactorize(a)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range facts {
			if errs[g] != nil {
				t.Fatalf("trial %d goroutine %d: %v", trial, g, errs[g])
			}
			if o.HostWorkers != 1 {
				onExecutor(t, "concurrent FactorizeWith", facts[g])
			}
			factsBitIdentical(t, "concurrent FactorizeWith on a shared Analysis", want, facts[g])
		}
	}
}

// TestRefactorizeSteadyStateAllocs is the allocation guard: once a handle has
// been refactorized (so its second value buffer exists), a Refactorize
// allocates a constant handful of objects — the pattern hash state — whatever
// the matrix size. Before the numeric phase ran over persistent storage it
// allocated several objects per block.
func TestRefactorizeSteadyStateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries under the race detector; the kernels' pooled buffers then reallocate")
	}
	const budget = 8
	for _, nx := range []int{12, 36} { // 144 and 1296 unknowns: hundreds vs thousands of blocks
		a := GenGrid2D(nx, nx, false, GenOptions{Seed: 47, Convection: 0.4})
		f, err := Factorize(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		v := valueSet(a, 1)
		if err := f.Refactorize(v); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := f.Refactorize(v); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("n=%d (%d blocks): steady-state Refactorize allocates %.0f objects, budget %d", a.N, f.Blocks(), allocs, budget)
		}
	}
}

// TestLoadBalance2DIsExact: every modelled number of a virtual-machine run is
// a pure function of its inputs. The 2D load-balance factor used to be summed
// in map-iteration order and differed in the last bit between runs.
func TestLoadBalance2DIsExact(t *testing.T) {
	a := GenGrid3D(8, 7, 6, GenOptions{Seed: 48, Convection: 0.3})
	for _, mapping := range []Mapping{Map2D, Map2DSync} {
		var first *RunStats
		for run := 0; run < 2; run++ {
			o := PaperOptions()
			o.Procs, o.Machine, o.Mapping = 8, T3E, mapping
			f, err := Factorize(a, o)
			if err != nil {
				t.Fatal(err)
			}
			st := f.RunStats()
			if first == nil {
				first = st
				continue
			}
			if math.Float64bits(st.LoadBalance) != math.Float64bits(first.LoadBalance) {
				t.Errorf("%s: LoadBalance %x then %x", mapping, math.Float64bits(first.LoadBalance), math.Float64bits(st.LoadBalance))
			}
			if math.Float64bits(st.ParallelTime) != math.Float64bits(first.ParallelTime) || st.SentBytes != first.SentBytes || st.SentMessages != first.SentMessages {
				t.Errorf("%s: modelled run statistics differ between two runs", mapping)
			}
		}
	}
}

// TestNonFiniteValuesRefused: a NaN or an infinity anywhere in the matrix is
// refused by every entry point — Factorize on the host (sequential and
// task-DAG) and on the virtual machine, FactorizeWith, and Refactorize on
// either driver — with an error wrapping ErrSingular that names the entry.
// A refused Refactorize leaves the previous factors answering. An entry off
// the pivot path used to fail only sometimes.
func TestNonFiniteValuesRefused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := coarseMatrix()
	// An entry of the last row left of the diagonal: a subdiagonal value
	// the pivot search need not meet.
	i := a.N - 1
	q := a.RowPtr[i]
	j := a.ColInd[q]
	want := fmt.Sprintf("at row %d, column %d is not finite", i, j)
	check := func(label string, err error) {
		t.Helper()
		if !errors.Is(err, ErrSingular) || !strings.Contains(fmt.Sprint(err), want) {
			t.Fatalf("%s: error %v, want one wrapping ErrSingular that says %q", label, err, want)
		}
	}
	b := rhs(a.N, 44)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := a.Clone()
		bad.Val[q] = v
		for _, o := range []Options{{HostWorkers: 1}, {HostWorkers: 2}, {Procs: 4, Mapping: Map2D}, {Procs: 4, Mapping: Map1DCA}} {
			_, err := Factorize(bad, o)
			check(fmt.Sprintf("Factorize %v %+v", v, o), err)
		}
		an, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		_, err = an.FactorizeWith(bad)
		check(fmt.Sprintf("FactorizeWith %v", v), err)
		for _, workers := range []int{1, 2} {
			f, err := Factorize(a, Options{HostWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 {
				onExecutor(t, "parallel handle", f)
			}
			before, _ := f.Solve(b)
			check(fmt.Sprintf("Refactorize %v on %d workers", v, workers), f.Refactorize(bad))
			after, err := f.Solve(b)
			if err != nil || !sameBits(before, after) {
				t.Fatalf("Refactorize %v on %d workers: Solve changed after the refusal (err %v)", v, workers, err)
			}
		}
	}
}
