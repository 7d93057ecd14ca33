package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/sparse"
)

// solveCase factors the named suite matrix at the given scale on the
// sequential driver and draws a right-hand side in [-1, 1] from seed.
func solveCase(tb testing.TB, name string, scale float64, seed int64) (*sparse.CSR, *core.Symbolic, *core.Factorization, []float64) {
	a := bench.ByName(name).Gen(scale)
	sym := core.Analyze(a, core.AnalyzeOptions{})
	f, err := core.FactorizeSeq(a, sym)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return a, sym, f, b
}

func hashBits(xs []float64) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(x))
		h.Write(w[:])
	}
	return h.Sum64()
}

// TestSolveGoldenBits pins the solutions of the single-RHS sweeps bit for
// bit: Solve on a wide-supernode matrix (ex11) and a narrow one (lnsp3937),
// and the distributed SolvePar under a 4-processor 1D CA mapping. A change
// to a sweep's kernels may reorganize the loops, never the per-row order of
// the floating-point operations. The constants were captured from the
// one-row-at-a-time sweeps, before the row-block kernels replaced them.
func TestSolveGoldenBits(t *testing.T) {
	for _, c := range []struct {
		name  string
		scale float64
		want  uint64
	}{
		{"ex11", 0.3, 0xd0d22c8f6e913a68},
		{"lnsp3937", 0.5, 0x2ff23149e3c4c182},
	} {
		_, _, f, b := solveCase(t, c.name, c.scale, 31)
		if got := hashBits(f.Solve(b)); got != c.want {
			t.Errorf("%s@%g: Solve x hash %#x, want %#x", c.name, c.scale, got, c.want)
		}
	}
	a, sym, _, b := solveCase(t, "ex11", 0.3, 31)
	s := core.ScheduleCA(sym, 4)
	res, err := core.Factorize1D(a, sym, machine.T3E(), s)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.SolvePar(res.Fact, s.P, func(_, j int) int { return s.Owner[j] }, machine.T3E(), b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hashBits(sr.X), uint64(0xd1e209fa34766969); got != want {
		t.Errorf("ex11@0.3 1d-ca(4): SolvePar x hash %#x, want %#x", got, want)
	}
}

// solveSink keeps the benchmarked solutions live.
var solveSink []float64

// BenchmarkSolve measures the single-RHS Solve on the benchmark's
// small-supernode (lnsp3937) and big-supernode (ex11) representatives at the
// sizes the benchmark runs them. GB/s is factor bytes streamed per second:
// every factor value is read once per solve.
func BenchmarkSolve(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"lnsp3937", 1}, {"ex11", 0.8}} {
		b.Run(c.name, func(b *testing.B) {
			_, _, f, rhs := solveCase(b, c.name, c.scale, 5)
			bytes := 8 * float64(len(f.BM.Values()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveSink = f.Solve(rhs)
			}
			b.ReportMetric(bytes*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
		})
	}
}

// TestSolveAllocs pins Solve to its two vectors, the working copy and the
// result: the row-block kernels take their scratch from the result.
func TestSolveAllocs(t *testing.T) {
	_, _, f, b := solveCase(t, "ex11", 0.3, 5)
	if got := testing.AllocsPerRun(20, func() { f.Solve(b) }); got != 2 {
		t.Fatalf("Solve allocates %v objects per call, want 2", got)
	}
}

// BenchmarkSolveMany measures SolveMany at a width below the lone-solve
// cutoff (w2, two Solves), the benchmark's batch width (w8) and a wide panel
// (w32) on the same two matrices as BenchmarkSolve.
func BenchmarkSolveMany(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"lnsp3937", 1}, {"ex11", 0.8}} {
		_, _, f, _ := solveCase(b, c.name, c.scale, 5)
		for _, w := range []int{2, 8, 32} {
			rhs := make([]float64, f.Sym.N*w)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range rhs {
				rhs[i] = 2*rng.Float64() - 1
			}
			b.Run(fmt.Sprintf("%s/w%d", c.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					solveSink, _ = f.SolveMany(rhs, w)
				}
			})
		}
	}
}

// TestSolveManyAllocs pins SolveMany above the lone-solve cutoff to two
// allocations: the result and one scratch slab (working panel, negated
// operand rows, accumulator).
func TestSolveManyAllocs(t *testing.T) {
	_, _, f, b := solveCase(t, "ex11", 0.3, 5)
	const w = 8
	rhs := make([]float64, 0, len(b)*w)
	for j := 0; j < w; j++ {
		rhs = append(rhs, b...)
	}
	if got := testing.AllocsPerRun(20, func() { f.SolveMany(rhs, w) }); got != 2 {
		t.Fatalf("SolveMany allocates %v objects per call, want 2", got)
	}
}
