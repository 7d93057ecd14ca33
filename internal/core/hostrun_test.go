package core_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/sparse"
)

// revalued returns a copy of a with every value rescaled by a smooth,
// set-specific factor: same pattern, different numbers.
func revalued(a *sparse.CSR, set int) *sparse.CSR {
	b := a.Clone()
	for q := range b.Val {
		b.Val[q] *= 1 + 0.2*math.Sin(float64(5*set+q))
	}
	return b
}

// TestHostRefactorizeSequence: a handle keeps its workspaces and executor
// state from one Refactorize to the next, the sequential driver running on
// the executor's first workspace. On panels wide enough to be packed,
// Refactorize(A) then Refactorize(B), on either path in any alternation,
// must still give FactorizeSeq(B) bit for bit, and so must a good
// Refactorize after a singular one that aborted mid-DAG.
func TestHostRefactorizeSequence(t *testing.T) {
	a := bench.ByName("ex11").Gen(0.5)
	sym := core.Analyze(a, core.AnalyzeOptions{})
	f, err := core.FactorizeHost(a, sym, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A column of zeros stays zero through every update into it, so the
	// pivot search fails there, in the middle of the elimination, after the
	// executor has already run part of the DAG.
	bad := a.Clone()
	mid := slices.Index(sym.ColPerm, a.N/2)
	for q, j := range bad.ColInd {
		if j == mid {
			bad.Val[q] = 0
		}
	}
	for round, r := range []struct {
		m       *sparse.CSR
		workers int
	}{
		{revalued(a, 1), 2}, {revalued(a, 2), 1}, {bad, 2}, {revalued(a, 3), 2},
		{revalued(a, 4), 1}, {bad, 1}, {revalued(a, 5), 2}, {revalued(a, 6), 3},
	} {
		m := r.m
		err := f.Refactorize(m, r.workers, nil)
		if m == bad {
			if want := fmt.Sprintf("zero pivot at column %d", a.N/2); !errors.Is(err, core.ErrSingular) || !strings.Contains(err.Error(), want) {
				t.Fatalf("round %d: singular refactorize returned %v, want %q", round, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		fresh, err := core.FactorizeSeq(m, sym)
		if err != nil {
			t.Fatal(err)
		}
		sameFactors(t, fmt.Sprintf("round %d", round), f, fresh.BM, fresh.Piv)
		if f.Fl != fresh.Fl {
			t.Fatalf("round %d: flop tally %+v, fresh %+v", round, f.Fl, fresh.Fl)
		}
	}
}

// TestHostRefactorizeSteadyStateAllocs pins what a parallel Refactorize
// allocates once its executor state exists: its goroutine launches and a
// constant besides, whatever the matrix size — not the task graph.
func TestHostRefactorizeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector; the kernels' pooled buffers then reallocate")
	}
	const budget = 4
	for _, c := range []struct {
		name  string
		scale float64
	}{{"lnsp3937", 0.5}, {"ex11", 0.5}} {
		a := bench.ByName(c.name).Gen(c.scale)
		f, err := core.FactorizeHost(a, core.Analyze(a, core.AnalyzeOptions{}), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Refactorize(a, 2, nil); err != nil { // allocates the second slab
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := f.Refactorize(a, 2, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > budget {
			t.Errorf("%s (%d blocks): 2-worker Refactorize allocates %.0f objects, budget %d", c.name, f.Sym.Partition.NB, allocs, budget)
		}
	}
}

// TestHostWorkersGate: the numeric phase goes parallel exactly where the
// task grain says it wins — on ex11's big supernodes and lnsp3937's small
// ones, not on a circuit's tiny ones — never beyond GOMAXPROCS or the cap (by
// default the measured DefaultHostWorkers), and never with a cap of 1.
func TestHostWorkersGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	analyze := func(a *sparse.CSR) *core.Symbolic { return core.Analyze(a, core.AnalyzeOptions{}) }
	ex11 := analyze(bench.ByName("ex11").Gen(0.5))
	if _, g := ex11.Grain(); g < 3*core.ParallelGrain {
		t.Fatalf("ex11 grain %.0f flops/task, want well above G=%d", g, core.ParallelGrain)
	}
	for _, c := range []struct {
		name  string
		sym   *core.Symbolic
		limit int
		want  int
	}{
		{"ex11", ex11, 0, 2},
		{"ex11 cap 8", ex11, 8, 2},
		{"ex11 cap 1", ex11, 1, 1},
		{"lnsp3937", analyze(bench.ByName("lnsp3937").Gen(1)), 0, 2},
		{"circuit", analyze(sparse.Circuit(5000, 3, sparse.GenOptions{Seed: 7})), 0, 1},
	} {
		if got := c.sym.HostWorkers(c.limit); got != c.want {
			_, g := c.sym.Grain()
			t.Errorf("%s: %d workers at GOMAXPROCS 2 (grain %.0f flops/task), want %d", c.name, got, g, c.want)
		}
	}
	runtime.GOMAXPROCS(4)
	if got := ex11.HostWorkers(0); got != core.DefaultHostWorkers {
		t.Errorf("ex11 at GOMAXPROCS 4: %d workers, want the default cap %d", got, core.DefaultHostWorkers)
	}
	if got := ex11.HostWorkers(8); got != 4 {
		t.Errorf("ex11 at GOMAXPROCS 4, cap 8: %d workers, want 4", got)
	}
	runtime.GOMAXPROCS(1)
	if got := ex11.HostWorkers(0); got != 1 {
		t.Errorf("ex11 at GOMAXPROCS 1: %d workers, want 1", got)
	}
}

// TestGrainIsTheGraphs: the gate's counts are the task graph's — tasks and
// mean Factor/Update flops — read without building it.
func TestGrainIsTheGraphs(t *testing.T) {
	a := bench.ByName("sherman5").Gen(0.5)
	sym := core.Analyze(a, core.AnalyzeOptions{})
	tasks, grain := sym.Grain()
	g := sym.TaskGraph()
	var flops int64
	for _, task := range g.Tasks {
		flops += task.B1 + task.B2 + task.B3
	}
	if tasks != len(g.Tasks) || grain != float64(flops)/float64(len(g.Tasks)) {
		t.Fatalf("Grain = (%d, %g), graph has %d tasks of mean %g flops", tasks, grain, len(g.Tasks), float64(flops)/float64(len(g.Tasks)))
	}
	if sym.TaskGraph() != g {
		t.Fatal("TaskGraph rebuilt the graph")
	}
}
