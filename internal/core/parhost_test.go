package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"sstar/internal/obs"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

var hostWorkerCounts = []int{1, 2, 4, 8}

// assertFactorsBitIdentical fails unless the two factorizations match bit
// for bit: pivot sequence, every block's packed data, flop tallies.
func assertFactorsBitIdentical(t *testing.T, label string, seq, par *Factorization) {
	t.Helper()
	if seq.Fl != par.Fl {
		t.Fatalf("%s: flop tallies differ: %+v vs %+v", label, seq.Fl, par.Fl)
	}
	for m := range seq.Piv {
		if seq.Piv[m] != par.Piv[m] {
			t.Fatalf("%s: pivot %d differs: %d vs %d", label, m, seq.Piv[m], par.Piv[m])
		}
	}
	checkData := func(kind string, k int, a, b []float64) {
		t.Helper()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s block %d differs at %d: %x vs %x", label, kind, k, i, a[i], b[i])
			}
		}
	}
	for k := range seq.BM.Diag {
		checkData("diag", k, seq.BM.Diag[k].Data, par.BM.Diag[k].Data)
		for i := range seq.BM.LCol[k] {
			checkData("L", k, seq.BM.LCol[k][i].Data, par.BM.LCol[k][i].Data)
		}
		for i := range seq.BM.URow[k] {
			checkData("U", k, seq.BM.URow[k][i].Data, par.BM.URow[k][i].Data)
		}
	}
}

func TestFactorizeHostBitIdentical(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"grid2d":  sparse.Grid2D(14, 13, false, sparse.GenOptions{Convection: 0.6, Seed: 61}),
		"grid3d":  sparse.Grid3D(6, 6, 6, sparse.GenOptions{DOF: 2, Convection: 0.3, Seed: 62}),
		"circuit": sparse.Circuit(300, 4, sparse.GenOptions{Convection: 0.5, Seed: 63}),
		"dense":   sparse.Dense(80, 64),
	}
	for name, a := range mats {
		sym := Analyze(a, AnalyzeOptions{Supernode: supernode.Options{MaxBlock: 8, Amalgamate: 4}})
		seq, err := FactorizeSeq(a, sym)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range hostWorkerCounts {
			par, err := FactorizeHost(a, sym, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			assertFactorsBitIdentical(t, name, seq, par)
			// The parallel factors must solve, not just match.
			b := randRHS(a.N, int64(70+w))
			if r := residual(a, par.Solve(b), b); r > 1e-8 {
				t.Fatalf("%s workers=%d: residual %g", name, w, r)
			}
		}
	}
}

func TestFactorizeHostBitIdenticalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		a := sparse.RandomSparse(n, 1+rng.Intn(3), seed)
		sym := Analyze(a, AnalyzeOptions{Supernode: supernode.Options{MaxBlock: 6, Amalgamate: 3}})
		seq, err := FactorizeSeq(a, sym)
		if err != nil {
			return true // singular instances are covered below
		}
		w := 2 + rng.Intn(7)
		par, err := FactorizeHost(a, sym, w)
		if err != nil {
			return false
		}
		if seq.Fl != par.Fl {
			return false
		}
		for m := range seq.Piv {
			if seq.Piv[m] != par.Piv[m] {
				return false
			}
		}
		for k := range seq.BM.Diag {
			for i, v := range seq.BM.Diag[k].Data {
				if par.BM.Diag[k].Data[i] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFactorizeHostSingular: a numerically singular matrix must come back as
// an error from the parallel driver too (workers abort cleanly), not a hang
// or a panic.
func TestFactorizeHostSingular(t *testing.T) {
	a := sparse.Dense(30, 9)
	// Zero out column 7's values: structurally full, numerically singular.
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for p, c := range cols {
			if c == 7 {
				vals[p] = 0
			}
		}
	}
	sym := Analyze(a, AnalyzeOptions{SkipOrdering: true, Supernode: supernode.Options{MaxBlock: 6}})
	if _, err := FactorizeSeq(a, sym); err == nil {
		t.Fatal("sequential driver accepted a singular matrix")
	}
	for _, w := range []int{2, 4} {
		_, err := FactorizeHost(a, sym, w)
		if err == nil {
			t.Fatalf("workers=%d: parallel driver accepted a singular matrix", w)
		}
		if !strings.Contains(err.Error(), "singular") {
			t.Fatalf("workers=%d: unexpected error %v", w, err)
		}
	}
}

// TestFactorizeHostWorkerClamp: more workers than tasks must not deadlock.
func TestFactorizeHostWorkerClamp(t *testing.T) {
	a := sparse.Grid2D(3, 3, false, sparse.GenOptions{Seed: 64})
	sym := Analyze(a, AnalyzeOptions{Supernode: supernode.Options{MaxBlock: 4}})
	par, err := FactorizeHost(a, sym, 64)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 65)
	if r := residual(a, par.Solve(b), b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

// parkSink holds the worker that reports task hold until another worker of
// run has parked, and records that one did.
type parkSink struct {
	run    **hostRun
	hold   int32 // K of the Update(K, J) to hold after
	holdJ  int32
	parked atomic.Bool
}

func (s *parkSink) Phase(string, int64) {}

func (s *parkSink) Task(ev obs.TaskEvent) {
	if ev.Kind != obs.KindUpdate || ev.K != s.hold || ev.J != s.holdJ {
		return
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if (*s.run).parked.Load() > 0 {
			s.parked.Store(true)
			return
		}
	}
}

// TestHostSingularLeavesNothingRunning: a column of zeros in the middle of
// the elimination fails its Factor task while another worker is parked on a
// panel that will now never be published. Refactorize must return
// ErrSingular with every worker joined, keep the previous factors live, and
// run the next good matrix to FactorizeSeq's factors bit for bit, at 2 and 4
// workers. The worker that owns the failing column is held, through the
// trace sink, after the last update into the column until a worker parks.
func TestHostSingularLeavesNothingRunning(t *testing.T) {
	a := replayMatrices()[0].a
	sym := Analyze(a, AnalyzeOptions{})
	g := sym.TaskGraph()
	col := a.N / 2 // after the column permutation
	mb := sym.Partition.BlockOf[col]
	chain := g.Updates(mb)
	if len(chain) == 0 {
		t.Fatalf("block %d has no updates into it", mb)
	}
	last := g.Tasks[chain[len(chain)-1]]
	bad, zero := a.Clone(), slices.Index(sym.ColPerm, col)
	for q, j := range bad.ColInd {
		if j == zero {
			bad.Val[q] = 0
		}
	}
	next := a.Clone()
	for q := range next.Val {
		next.Val[q] *= 1 + 0.1*math.Sin(float64(q))
	}
	want, err := FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	wantNext, err := FactorizeSeq(next, sym)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		f, err := FactorizeHost(a, sym, workers)
		if err != nil {
			t.Fatal(err)
		}
		sink := &parkSink{run: &f.host, hold: int32(last.K), holdJ: int32(mb)}
		base := runtime.NumGoroutine()
		err = f.Refactorize(bad, workers, sink)
		if !errors.Is(err, ErrSingular) || !strings.Contains(err.Error(), fmt.Sprintf("zero pivot at column %d", col)) {
			t.Fatalf("%d workers: singular refactorize returned %v", workers, err)
		}
		if !sink.parked.Load() {
			t.Fatalf("%d workers: no worker parked while column %d's owner was held", workers, col)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d workers: %d goroutines after the failed run, %d before", workers, runtime.NumGoroutine(), base)
			}
		}
		sameSlab(t, fmt.Sprintf("%d workers, factors after the failed run", workers), f, want)
		if err := f.Refactorize(next, workers, nil); err != nil {
			t.Fatal(err)
		}
		sameSlab(t, fmt.Sprintf("%d workers, the next good run", workers), f, wantNext)
	}
}
