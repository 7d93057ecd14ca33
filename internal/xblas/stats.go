package xblas

import "sync/atomic"

// Stats is a snapshot of the kernel-level counters: how many times each
// BLAS-3 entry point ran, the floating-point operations it performed and
// the operand bytes it touched (8 bytes per float64 of A, B and C, counted
// once each — the arithmetic-intensity denominator). Counting happens per
// kernel *call*, not per element, so the enabled overhead is a handful of
// atomic adds against thousands of flops.
//
// The blocked TRSM kernels drive their trailing updates through Gemm, so
// the Gemm counters include the GEMM portion of TRSM work; TrsmFlops counts
// the full triangular-solve operation count of each Trsm call.
type Stats struct {
	GemmCalls, GemmFlops, GemmBytes          int64
	ScatterCalls, ScatterFlops, ScatterBytes int64
	TrsmCalls, TrsmFlops, TrsmBytes          int64
}

// Flops returns the total counted floating-point operations. The Trsm tally
// is excluded because its GEMM portion is already inside GemmFlops.
func (s Stats) Flops() int64 { return s.GemmFlops + s.ScatterFlops }

// statCounters is the live atomic counter block; Stats is its snapshot.
type statCounters struct {
	gemmCalls, gemmFlops, gemmBytes          atomic.Int64
	scatterCalls, scatterFlops, scatterBytes atomic.Int64
	trsmCalls, trsmFlops, trsmBytes          atomic.Int64
}

// kstats is the installed counter block, nil when disabled (the default).
// The hot kernels do one atomic pointer load and a nil check per call —
// the disabled path costs nothing measurable and allocates nothing.
var kstats atomic.Pointer[statCounters]

// EnableStats installs a fresh zeroed counter block and starts counting.
// Safe to call at any time, including concurrently with running kernels
// (in-flight calls land in whichever block they loaded).
func EnableStats() { kstats.Store(new(statCounters)) }

// DisableStats stops counting and drops the counters.
func DisableStats() { kstats.Store(nil) }

// ReadStats returns a snapshot of the counters and whether counting is
// enabled.
func ReadStats() (Stats, bool) {
	s := kstats.Load()
	if s == nil {
		return Stats{}, false
	}
	return Stats{
		GemmCalls: s.gemmCalls.Load(), GemmFlops: s.gemmFlops.Load(), GemmBytes: s.gemmBytes.Load(),
		ScatterCalls: s.scatterCalls.Load(), ScatterFlops: s.scatterFlops.Load(), ScatterBytes: s.scatterBytes.Load(),
		TrsmCalls: s.trsmCalls.Load(), TrsmFlops: s.trsmFlops.Load(), TrsmBytes: s.trsmBytes.Load(),
	}, true
}

// noteGemm charges one unmapped product (GemmUpdate with the zero Dest,
// which is every Gemm call) of shape m x n x k.
func noteGemm(m, n, k int) {
	if s := kstats.Load(); s != nil {
		s.gemmCalls.Add(1)
		s.gemmFlops.Add(2 * int64(m) * int64(n) * int64(k))
		s.gemmBytes.Add(8 * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)))
	}
}

// noteScatter charges one mapped update (GemmUpdate with a non-zero Dest,
// GemmScatter) of the shape m x n x k that actually lands in C.
func noteScatter(m, n, k int) {
	if s := kstats.Load(); s != nil {
		s.scatterCalls.Add(1)
		s.scatterFlops.Add(2 * int64(m) * int64(n) * int64(k))
		s.scatterBytes.Add(8 * (int64(m)*int64(k) + int64(k)*int64(n) + int64(m)*int64(n)))
	}
}

// noteTrsm charges one blocked triangular solve with flop count fl over a
// k x k triangle and a k x n right-hand side.
func noteTrsm(k, n int, fl int64) {
	if s := kstats.Load(); s != nil {
		s.trsmCalls.Add(1)
		s.trsmFlops.Add(fl)
		s.trsmBytes.Add(8 * (int64(k)*int64(k)/2 + int64(k)*int64(n)))
	}
}
