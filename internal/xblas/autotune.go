// One-shot cache-block autotuning for the packed GEMM engine.
//
// The tiles (4-row A strips against 8-column B strips, alone, in pairs or
// three together) are fixed by the kernels, but the cache blocking — how
// many A rows and B columns are packed per panel — is a machine property:
// the right shape depends on cache sizes, SMT siblings and memory bandwidth,
// not on the matrix. Autotune measures the GEMM and TRSM kernels once, at
// supernode-update shapes, over a small candidate set and publishes the
// winner for the process lifetime. mc stays a multiple of 4; a multiple of 8
// keeps every strip of a full block paired in the AVX-512 tile.
//
// Correctness is unconditional: every element of C accumulates over the full
// k extent inside one tile whatever the cache blocking, so all candidates
// produce bitwise-identical results (pinned by
// TestTileShapeBitIdentical). Autotuning therefore never interacts with the
// repo's determinism guarantees — it only moves wall-clock.
package xblas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// tileShape is the published cache-block configuration of the engine.
type tileShape struct {
	mc int // A-panel rows per cache block (multiple of mr; of 2*mr to pair every strip)
	nc int // B-panel columns per cache block (multiple of nr)
}

// tileCfg is the live configuration; gemmEngine loads it once per call (one
// atomic pointer load against thousands of flops).
var tileCfg atomic.Pointer[tileShape]

func init() {
	tileCfg.Store(&tileShape{mc: defaultMCBlock, nc: defaultNCBlock})
}

// TileShape returns the cache-block shape currently in use.
func TileShape() (mc, nc int) {
	ts := tileCfg.Load()
	return ts.mc, ts.nc
}

// SetTileShape installs a cache-block shape directly, bypassing the
// autotuner — for tests and benchmarks that sweep shapes. mc must be a
// positive multiple of 4 and nc a positive multiple of 8. A multiple of 8
// for mc keeps every strip of a full block paired in the 8-row AVX-512 tile;
// other multiples of 4 end each block in a 12- or 4-row tile, with the same
// bits.
func SetTileShape(mc, nc int) error {
	if mc <= 0 || mc%mr != 0 {
		return fmt.Errorf("xblas: tile mc %d must be a positive multiple of %d", mc, mr)
	}
	if nc <= 0 || nc%nr != 0 {
		return fmt.Errorf("xblas: tile nc %d must be a positive multiple of %d", nc, nr)
	}
	tileCfg.Store(&tileShape{mc: mc, nc: nc})
	return nil
}

// TileChoice reports the outcome of Autotune.
type TileChoice struct {
	MC, NC    int     // the winning cache-block shape
	GemmNs    float64 // measured ns per probe GEMM at the winning shape
	TrsmNs    float64 // measured ns per probe TRSM at the winning shape
	Autotuned bool    // false when the measurement was skipped (defaults kept)
}

// tileCandidates is the shape set Autotune measures. The default sits in the
// middle; the others trade packed-A residency (mc, L1/L2 bound) against
// packed-B reuse (nc, L2/L3 bound) in both directions.
var tileCandidates = []tileShape{
	{mc: 64, nc: 128},
	{mc: 64, nc: 512},
	{mc: 96, nc: 256}, // default
	{mc: 128, nc: 256},
	{mc: 192, nc: 384},
}

var (
	autotuneOnce   sync.Once
	autotuneResult TileChoice
)

// Autotune measures the packed engine at every candidate cache-block shape
// and installs the fastest, once per process; later calls return the cached
// decision without re-measuring. The probe shapes mirror the hot supernode
// operations: a trailing update GEMM (m = n = 256 rows/columns of trailing
// structure, k = 32 panel width) and the panel TRSM (32-row triangle against
// 256 right-hand columns). Total budget is a few hundred milliseconds —
// intended for process startup (sstar-serve, sstar-bench), not per-request
// paths.
func Autotune() TileChoice {
	autotuneOnce.Do(func() {
		autotuneResult = runAutotune()
		tileCfg.Store(&tileShape{mc: autotuneResult.MC, nc: autotuneResult.NC})
	})
	return autotuneResult
}

// AutotuneResult returns the cached Autotune outcome without triggering a
// measurement. ok is false when Autotune has not run.
func AutotuneResult() (TileChoice, bool) {
	if !autotuneResult.Autotuned {
		return TileChoice{MC: defaultMCBlock, NC: defaultNCBlock}, false
	}
	return autotuneResult, true
}

// Probe problem shapes (see Autotune docs).
const (
	probeMN = 256
	probeK  = 32
)

// runAutotune does the actual sweep. It restores the configured shape while
// measuring so a concurrent caller never observes a half-tuned engine, then
// the caller publishes the winner.
func runAutotune() TileChoice {
	a := make([]float64, probeMN*probeK)
	b := make([]float64, probeK*probeMN)
	c := make([]float64, probeMN*probeMN)
	l := make([]float64, probeK*probeK)
	rhs := make([]float64, probeK*probeMN)
	fillSeq(a, 1)
	fillSeq(b, 2)
	fillSeq(l, 3)
	for i := 0; i < probeK; i++ {
		l[i*probeK+i] = 1
	}
	prev := tileCfg.Load()
	defer tileCfg.Store(prev)

	best := TileChoice{Autotuned: true}
	bestScore := 0.0
	for _, cand := range tileCandidates {
		tileCfg.Store(&tileShape{mc: cand.mc, nc: cand.nc})
		gemmNs := probeNs(func() {
			Gemm(probeMN, probeMN, probeK, a, probeK, b, probeMN, c, probeMN)
		})
		copy(rhs, b)
		trsmNs := probeNs(func() {
			TrsmLowerUnitLeft(probeK, probeMN, l, probeK, rhs, probeMN)
		})
		// Score by combined time; GEMM dominates real factorizations, and
		// the TRSM term (whose trailing updates run on the same engine)
		// keeps a shape that only wins on square-ish products from
		// regressing the triangular path.
		score := gemmNs + trsmNs
		if best.MC == 0 || score < bestScore {
			best.MC, best.NC = cand.mc, cand.nc
			best.GemmNs, best.TrsmNs = gemmNs, trsmNs
			bestScore = score
		}
	}
	return best
}

// probeNs times run with geometrically growing repetition counts until the
// batch is long enough to trust, then returns ns per call — a smaller,
// faster cousin of the bench harness's measurement loop (the autotuner runs
// at startup, so its budget is tens of milliseconds per candidate).
func probeNs(run func()) float64 {
	run() // warm cache-block buffers and branch predictors
	reps := 1
	for {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			run()
		}
		el := time.Since(t0)
		if el >= 20*time.Millisecond || reps >= 1<<20 {
			return float64(el.Nanoseconds()) / float64(reps)
		}
		if el <= 0 {
			reps *= 64
			continue
		}
		next := int(float64(reps) * float64(25*time.Millisecond) / float64(el))
		if next <= reps {
			next = reps * 2
		}
		reps = next
	}
}

// fillSeq fills x with a deterministic non-constant pattern (values in
// (-1, 1)) without pulling in math/rand.
func fillSeq(x []float64, seed uint64) {
	s := seed
	for i := range x {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		x[i] = float64(int64(s)) / float64(1<<63)
	}
}
