package core_test

import (
	"fmt"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// densePanel builds the leading s-wide panel of a dense matrix of order r: an
// s-by-s diagonal block with r-s rows of L blocks below — the contiguous
// r-by-s panel core.FactorPanel sees in the factorization proper. It returns
// the storage, a workspace, a pivot vector and a copy of the panel's values.
func densePanel(tb testing.TB, r, s int) (*supernode.BlockMatrix, *core.Workspace, []int32, []float64) {
	a := sparse.Dense(r, int64(2000+s))
	sym := core.Analyze(a, core.AnalyzeOptions{
		SkipOrdering: true,
		Supernode:    supernode.Options{MaxBlock: s},
	})
	bm := supernode.NewBlockMatrix(sym.Partition, sym.PermutedMatrix(a))
	if got := len(bm.Panel(0)); got != r*s {
		tb.Fatalf("dense partition gave a leading panel of %d values, want %dx%d", got, r, s)
	}
	return bm, new(core.Workspace), make([]int32, r), append([]float64(nil), bm.Panel(0)...)
}

// BenchmarkFactorPanel runs Factor(k) on square-ish panels (2s-by-s) and on
// the tall shapes the benchmark matrices actually produce: 326x56 is ex11's
// flop-weighted mean panel, 74x33 and 74x1 are lnsp3937's (most of its
// panels are one column wide).
func BenchmarkFactorPanel(b *testing.B) {
	for _, d := range [][2]int{{16, 8}, {32, 16}, {50, 25}, {64, 32}, {128, 64}, {256, 128}, {326, 56}, {74, 33}, {74, 1}} {
		r, s := d[0], d[1]
		b.Run(fmt.Sprintf("%dx%d", r, s), func(b *testing.B) {
			bm, ws, piv, panel0 := densePanel(b, r, s)
			if err := core.FactorPanel(bm, 0, piv, ws); err != nil {
				b.Fatal(err)
			}
			flops := ws.Fl.Total()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(bm.Panel(0), panel0)
				if err := core.FactorPanel(bm, 0, piv, ws); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// BenchmarkUpdateBlockAligned measures the trailing update when the L/U
// packings match the target exactly (the direct Gemm path; dense matrices
// always align).
func BenchmarkUpdateBlockAligned(b *testing.B) {
	for _, s := range []int{8, 16, 25, 32, 64, 128} {
		b.Run(fmt.Sprintf("%dx%dx%d", s, s, s), func(b *testing.B) {
			// Dense 3s-order matrix with s-wide panels: diagonal block 2
			// receives the update L(2,0) * U(0,2).
			a := sparse.Dense(3*s, int64(3000+s))
			sym := core.Analyze(a, core.AnalyzeOptions{
				SkipOrdering: true,
				Supernode:    supernode.Options{MaxBlock: s},
			})
			bm := supernode.NewBlockMatrix(sym.Partition, sym.PermutedMatrix(a))
			ws := new(core.Workspace)
			if len(bm.LCol[0]) != 2 || len(bm.URow[0]) != 2 {
				b.Fatal("dense partition did not produce the expected blocks")
			}
			lb, ub := bm.LCol[0][1], bm.URow[0][1]
			flops := int64(2) * int64(len(lb.Rows)) * int64(len(ub.Cols)) * int64(len(lb.Cols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.UpdateBlock(bm, 0, 1, 1, ws)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

// BenchmarkUpdateBlockScatter measures the fused gather/scatter path on the
// largest misaligned block update a real sparse partition produces.
func BenchmarkUpdateBlockScatter(b *testing.B) {
	a := sparse.Grid3D(12, 12, 12, sparse.GenOptions{Convection: 0.3, Seed: 9})
	sym := core.Analyze(a, core.AnalyzeOptions{
		Supernode: supernode.Options{MaxBlock: 25, Amalgamate: 4},
	})
	bm := supernode.NewBlockMatrix(sym.Partition, sym.PermutedMatrix(a))
	ws := new(core.Workspace)
	plan := sym.Partition.UpdatePlan()
	bk, bui, bli := -1, 0, 0
	best := int64(0)
	for k := 0; k < sym.Partition.NB; k++ {
		for ui, ub := range bm.URow[k] {
			for li, lb := range bm.LCol[k] {
				if u := plan.Pair(k, ui, li); u.Target < 0 || u.Aligned {
					continue
				}
				vol := int64(len(lb.Rows)) * int64(len(ub.Cols)) * int64(len(lb.Cols))
				if vol > best {
					best, bk, bui, bli = vol, k, ui, li
				}
			}
		}
	}
	if bk < 0 {
		b.Skip("partition produced no misaligned update")
	}
	flops := 2 * best
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.UpdateBlock(bm, bk, bui, bli, ws)
	}
	b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
}

// BenchmarkRefactorize measures the numeric-only refactorization — clear the
// slab, scatter A through the assembly map, run the executor over the static
// update plan — on the benchmark's small-supernode (lnsp3937) and
// big-supernode (ex11) representatives, at the sizes the benchmark runs them,
// on the sequential driver (w1) and the host executor on two workers
// (w2). allocs/op is the steady-state guard: it must stay O(1) — 0 on w1,
// the goroutine launch on w2.
func BenchmarkRefactorize(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale float64
	}{{"lnsp3937", 1}, {"ex11", 0.8}} {
		a := bench.ByName(c.name).Gen(c.scale)
		sym := core.Analyze(a, core.AnalyzeOptions{})
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(b *testing.B) {
				f, err := core.FactorizeHost(a, sym, workers)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.Refactorize(a, workers, nil); err != nil { // allocates the second slab
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := f.Refactorize(a, workers, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(f.Fl.Total())*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}
