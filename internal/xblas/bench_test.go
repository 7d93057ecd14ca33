package xblas

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks at representative supernode block sizes (the
// paper's BSIZE=25 panels, amalgamated panels up to ~128). b.ReportMetric
// publishes GFLOP/s so `go test -bench` output doubles as a perf tracker
// while working on a kernel; the tracked numbers are the benchmark's
// xblas.*_gflops_* metrics (go run ./benchmark, traced run).

var gemmBenchSizes = []int{8, 16, 25, 32, 64, 128}

// BenchmarkGemm runs the square sizes at every kernel level the host runs,
// best level first.
func BenchmarkGemm(b *testing.B) {
	defer func(l int) { level = l }(level)
	for l := hostLevel; l >= levelPortable; l-- {
		level = l
		for _, n := range gemmBenchSizes {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", levelNames[l], n, n, n), func(b *testing.B) {
				benchGemmN(b, n)
			})
		}
	}
}

func benchGemmN(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, n, n)
	bb := randMat(rng, n, n)
	c := randMat(rng, n, n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(n, n, n, a, n, bb, n, c, n)
	}
	b.ReportMetric(gflops(2*int64(n)*int64(n)*int64(n), b), "GFLOP/s")
}

// BenchmarkGemmRect exercises the panel-update shape of the 1D/2D codes:
// a tall L block times a BSIZE-wide U block.
func BenchmarkGemmRect(b *testing.B) {
	for _, dims := range [][3]int{{128, 25, 25}, {256, 25, 25}, {64, 128, 25}} {
		m, n, k := dims[0], dims[1], dims[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			a := randMat(rng, m, k)
			bb := randMat(rng, k, n)
			c := randMat(rng, m, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(m, n, k, a, k, bb, n, c, n)
			}
			b.ReportMetric(gflops(2*int64(m)*int64(n)*int64(k), b), "GFLOP/s")
		})
	}
}

// BenchmarkTrsm solves square systems at the usual block sizes and the shapes
// ScaleU actually produces: a triangle as wide as a supernode (4, 16 and 56
// columns — under one diagonal block, exactly one, several) against U blocks
// of 8, 64 and 256 columns.
func BenchmarkTrsm(b *testing.B) {
	shapes := [][2]int{}
	for _, n := range gemmBenchSizes {
		shapes = append(shapes, [2]int{n, n})
	}
	for _, k := range []int{4, 16, 56} {
		for _, n := range []int{8, 64, 256} {
			shapes = append(shapes, [2]int{k, n})
		}
	}
	for _, d := range shapes {
		k, n := d[0], d[1]
		b.Run(fmt.Sprintf("%dx%d", k, n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			l := randMat(rng, k, k)
			for i := 0; i < k; i++ {
				l[i*k+i] = 1
			}
			x := randMat(rng, k, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TrsmLowerUnitLeft(k, n, l, k, x, n)
			}
			b.ReportMetric(gflops(int64(n)*int64(k)*int64(k-1), b), "GFLOP/s")
		})
	}
}

// BenchmarkMulSub runs the unfused kernel at the shapes its users give it: the
// trailing update of a panel block (tall, k = 8, operands inside one panel),
// the rectangle under a TRSM diagonal block, and a single row.
func BenchmarkMulSub(b *testing.B) {
	for _, dims := range [][3]int{{318, 48, 8}, {66, 24, 8}, {4, 64, 12}, {1, 64, 7}} {
		m, n, k := dims[0], dims[1], dims[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			ld := n + k
			p := randMat(rng, m+k, ld) // A = p[k:, :k], B = p[:k, k:], C = p[k:, k:]
			for i := range p {
				p[i] *= 1e-3 // keeps C bounded over many iterations
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulSub(m, n, k, p[k*ld:], ld, p[k:], ld, p[k*ld+k:], ld)
			}
			b.ReportMetric(gflops(2*int64(m)*int64(n)*int64(k), b), "GFLOP/s")
		})
	}
}

// gflops converts the per-iteration flop count into a GFLOP/s rate.
func gflops(flopsPerOp int64, b *testing.B) float64 {
	return float64(flopsPerOp) * float64(b.N) / b.Elapsed().Seconds() / 1e9
}
