package xblas

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Property tests pinning the packed register-tiled kernels to a naive
// reference implementation.
//
// The engine accumulates every C element over the full k extent in ascending
// order with correctly-rounded fused multiply-adds and folds the result into
// C with a single rounding — exactly what the FMA triple loop below does. So
// Gemm, GemmAdd and GemmScatter must bit-match the reference EXACTLY, on
// every path (small direct, packed interior tiles, padded edge tiles, asm and
// portable micro-kernels alike). TrsmLowerUnitLeft reassociates the solve
// into blocked BLAS-3 form, so against the unblocked solve it gets a 1e-12
// relative tolerance instead.
//
// MulSub and ElimStep are defined per element as a sequence of separately
// rounded operations, so they — and the diagonal blocks of the TRSM, which
// run on MulSub — are pinned bitwise too: to naive loops, and to the blocked
// TRSM with scalar diagonal solves.

// refGemmSign computes C += sign*A*B the naive way, with the engine's
// rounding contract (FMA accumulation in ascending l, one fold per element).
func refGemmSign(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, sign float64) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for l := 0; l < k; l++ {
				acc = math.FMA(a[i*lda+l], b[l*ldb+j], acc)
			}
			c[i*ldc+j] = math.FMA(sign, acc, c[i*ldc+j])
		}
	}
}

// refGemmScatter is the naive gather/scatter update: C[dr[i], dc[j]] -=
// (A*B)[i, j], skipping -1 map entries.
func refGemmScatter(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, dstRow, dstCol []int) {
	for i := 0; i < m; i++ {
		if dstRow[i] < 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if dstCol[j] < 0 {
				continue
			}
			acc := 0.0
			for l := 0; l < k; l++ {
				acc = math.FMA(a[i*lda+l], b[l*ldb+j], acc)
			}
			c[dstRow[i]*ldc+dstCol[j]] -= acc
		}
	}
}

// refTrsmLowerUnitLeft is the unblocked forward solve.
func refTrsmLowerUnitLeft(k, n int, l []float64, ldl int, b []float64, ldb int) {
	for i := 1; i < k; i++ {
		for p := 0; p < i; p++ {
			lip := l[i*ldl+p]
			for j := 0; j < n; j++ {
				b[i*ldb+j] -= lip * b[p*ldb+j]
			}
		}
	}
}

// refTrsmBlocked is the blocked solve TrsmLowerUnitLeft implements, with the
// diagonal blocks as scalar loops: trsmBlock rows at a time, every element
// taking its updates in ascending p, unfused, and the blocks coupled through
// Gemm. The tiled diagonal solve must reproduce it bit for bit.
func refTrsmBlocked(k, n int, t []float64, ldt int, b []float64, ldb int) {
	for ib := 0; ib < k; ib += trsmBlock {
		tb := min(trsmBlock, k-ib)
		for i := ib + 1; i < ib+tb; i++ {
			for p := ib; p < i; p++ {
				for j := 0; j < n; j++ {
					b[i*ldb+j] -= float64(t[i*ldt+p] * b[p*ldb+j])
				}
			}
		}
		if rem := k - ib - tb; rem > 0 {
			Gemm(rem, n, tb, t[(ib+tb)*ldt+ib:], ldt, b[ib*ldb:], ldb, b[(ib+tb)*ldb:], ldb)
		}
	}
}

// TestTrsmBitMatchesBlockedReference: TrsmLowerUnitLeft against
// refTrsmBlocked for every k up to past four diagonal blocks and every n up
// to five tiles.
func TestTrsmBitMatchesBlockedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for k := 1; k <= 70; k++ {
		for n := 1; n <= 40; n++ {
			ldt, ldb := k+rng.Intn(3), n+rng.Intn(3)
			tri := randMat(rng, k, ldt)
			b := randMat(rng, k, ldb)
			want := append([]float64(nil), b...)
			refTrsmBlocked(k, n, tri, ldt, want, ldb)
			TrsmLowerUnitLeft(k, n, tri, ldt, b, ldb)
			if !bitEqual(b, want) {
				t.Fatalf("k=%d n=%d ldt=%d ldb=%d: not bit-identical to the scalar-diagonal blocked solve (max diff %g)",
					k, n, ldt, ldb, maxDiff(b, want))
			}
		}
	}
}

// refMulSub is the definition of MulSub as a naive triple loop: per element,
// ascending l, product and difference each rounded.
func refMulSub(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for l := 0; l < k; l++ {
				c[i*ldc+j] -= float64(a[i*lda+l] * b[l*ldb+j])
			}
		}
	}
}

// spiceMat is randMat with the values rounding bugs hide behind mixed in:
// signed zeros (a zero multiplier must not be skipped: -0 - (-0) is +0),
// subnormals and values whose products and differences round.
func spiceMat(rng *rand.Rand, m, n int) []float64 {
	a := randMat(rng, m, n)
	for i := range a {
		switch rng.Intn(8) {
		case 0:
			a[i] = 0
		case 1:
			a[i] = math.Copysign(0, -1)
		case 2:
			a[i] *= 5e-324 * float64(1+rng.Intn(1<<20))
		case 3:
			a[i] *= 1e-160
		}
	}
	return a
}

// TestMulSubBitMatchesReference pins the dispatched MulSub (vector strips on
// amd64) and its portable twin to the naive unfused loop on every shape up to
// past two tiles in each direction, with strides wider than the rows.
func TestMulSubBitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for m := 0; m <= 9; m++ {
		for n := 0; n <= 19; n++ {
			for k := 0; k <= 17; k++ {
				lda, ldb, ldc := k+rng.Intn(4), n+rng.Intn(4), n+rng.Intn(4)
				a, b, c := spiceMat(rng, m, lda), spiceMat(rng, k, ldb), spiceMat(rng, m, ldc)
				want := append([]float64(nil), c...)
				refMulSub(m, n, k, a, lda, b, ldb, want, ldc)
				twin := append([]float64(nil), c...)
				mulSubGo(m, n, k, a, lda, b, ldb, twin, ldc)
				MulSub(m, n, k, a, lda, b, ldb, c, ldc)
				if !bitEqual(c, want) || !bitEqual(twin, want) {
					t.Fatalf("MulSub m=%d n=%d k=%d lda=%d ldb=%d ldc=%d on %s: dispatched equal=%v, portable equal=%v",
						m, n, k, lda, ldb, ldc, runtime.GOARCH, bitEqual(c, want), bitEqual(twin, want))
				}
			}
		}
	}
}

// refElimStep is ElimStep as FactorPanel's column-at-a-time loop does it:
// divide, update the w columns, then a separate sweep for the next pivot.
func refElimStep(rows []float64, s, n, w int) (best float64, bestRow int) {
	for r := 1; r <= n; r++ {
		rows[r*s] /= rows[0]
		for j := 1; j <= w; j++ {
			rows[r*s+j] -= float64(rows[r*s] * rows[j])
		}
	}
	if w == 0 || n == 0 {
		return 0, 0
	}
	best, bestRow = math.Abs(rows[s+1]), 1
	for r := 2; r <= n; r++ {
		if v := math.Abs(rows[r*s+1]); v > best {
			best, bestRow = v, r
		}
	}
	return best, bestRow
}

// TestElimStepBitMatchesReference pins the dispatched ElimStep and its
// portable twin to the naive step for every width and row count, with exact
// ties in the searched column (first maximum wins), signed zeros, subnormals
// and NaNs (passed over below row 1, the answer in row 1).
func TestElimStepBitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	// Equal up to which NaN: the sign and payload of a propagated NaN are the
	// one thing the vector and scalar instructions need not agree on.
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
	}
	sameAll := func(x, y []float64) bool {
		for i := range x {
			if !same(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	for w := 0; w <= 7; w++ {
		for n := 0; n <= 21; n++ {
			for trial := 0; trial < 12; trial++ {
				s := w + 1 + rng.Intn(4)
				rows := spiceMat(rng, n+1, s)
				rows[0] = 0.5 + rng.Float64() // the pivot
				if trial%3 == 1 && w > 0 {    // ties: a few rows repeat one candidate
					for r := 1; r <= n; r += 1 + rng.Intn(3) {
						rows[r*s], rows[r*s+1] = 0, 7
					}
				}
				if trial%4 == 2 && w > 0 && n > 0 {
					rows[(1+rng.Intn(n))*s+1] = math.NaN()
				}
				want := append([]float64(nil), rows...)
				wb, wr := refElimStep(want, s, n, w)
				if w > 0 && n > 0 { // the portable kernel's domain
					twin := append([]float64(nil), rows...)
					if tb, tr := elimStepGo(twin, s, n, w); !sameAll(twin, want) || !same(tb, wb) || tr != wr {
						t.Fatalf("elimStepGo w=%d n=%d s=%d trial %d: got (%v, %d), want (%v, %d); rows equal %v",
							w, n, s, trial, tb, tr, wb, wr, sameAll(twin, want))
					}
				}
				if gb, gr := ElimStep(rows, s, n, w); !sameAll(rows, want) || !same(gb, wb) || gr != wr {
					t.Fatalf("ElimStep w=%d n=%d s=%d trial %d on %s: got (%v, %d), want (%v, %d); rows equal %v",
						w, n, s, trial, runtime.GOARCH, gb, gr, wb, wr, sameAll(rows, want))
				}
			}
		}
	}
}

// TestMulSubSignedZero is the zero-multiplier decision in one line: a zero
// multiplier is applied like any other, so -0 - (-0*u) gives +0 where a
// skipping loop would leave -0.
func TestMulSubSignedZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for n := 1; n <= 9; n++ {
		b := make([]float64, n)
		c := make([]float64, n)
		for j := range b {
			b[j], c[j] = 3, negZero
		}
		MulSub(1, n, 1, []float64{negZero}, 1, b, n, c, n)
		for j, v := range c {
			if math.Float64bits(v) != 0 {
				t.Fatalf("n=%d: c[%d] = %x after a -0 multiplier, want +0", n, j, math.Float64bits(v))
			}
		}
	}
}

// randDims draws a random shape: mostly general rectangles, with degenerate
// 1-by-n and m-by-1 shapes and micro-tile-boundary sizes mixed in.
func randDims(rng *rand.Rand) (m, n, k int) {
	switch rng.Intn(6) {
	case 0: // degenerate row
		return 1, 1 + rng.Intn(40), 1 + rng.Intn(40)
	case 1: // degenerate column
		return 1 + rng.Intn(40), 1, 1 + rng.Intn(40)
	case 2: // exact micro-tile multiples
		return 4 * (1 + rng.Intn(8)), 8 * (1 + rng.Intn(4)), 1 + rng.Intn(40)
	case 3: // one off the micro-tile boundary
		return 4*(1+rng.Intn(8)) + 1, 8*(1+rng.Intn(4)) - 1, 1 + rng.Intn(40)
	default:
		return 1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)
	}
}

func bitEqual(x, y []float64) bool {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func TestGemmBitMatchesReference(t *testing.T) { forEachLevel(t, testGemmBitMatchesReference) }

func testGemmBitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		m, n, k := randDims(rng)
		// Leading dimensions strictly greater than the row width half the
		// time, to exercise strided packing.
		lda := k + rng.Intn(7)
		ldb := n + rng.Intn(7)
		ldc := n + rng.Intn(7)
		a := randMat(rng, m, lda)
		b := randMat(rng, k, ldb)
		c := randMat(rng, m, ldc)
		want := append([]float64(nil), c...)
		sign := -1.0
		if trial%2 == 0 {
			sign = 1
		}
		refGemmSign(m, n, k, a, lda, b, ldb, want, ldc, sign)
		if sign < 0 {
			Gemm(m, n, k, a, lda, b, ldb, c, ldc)
		} else {
			GemmAdd(m, n, k, a, lda, b, ldb, c, ldc)
		}
		if !bitEqual(c, want) {
			t.Fatalf("trial %d: Gemm(sign=%v) m=%d n=%d k=%d lda=%d ldb=%d ldc=%d: not bit-identical to reference (max diff %g)",
				trial, sign, m, n, k, lda, ldb, ldc, maxDiff(c, want))
		}
	}
}

// TestTileShapeBitIdentical extends the GEMM property test to products larger
// than the cache blocks (mcBlock, ncBlock), which randDims never reaches:
// ragged dims cut them into several packed panels with a partial last block,
// and every element must still bit-match the unblocked reference at every
// kernel level the host runs.
func TestTileShapeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []struct{ m, n, k int }{
		{7, 5, 3},
		{65, 129, 33},
		{200, 300, 25},
		{257, 513, 64},
	} {
		a := randMat(rng, d.m, d.k)
		b := randMat(rng, d.k, d.n)
		c0 := randMat(rng, d.m, d.n)
		want := append([]float64(nil), c0...)
		refGemmSign(d.m, d.n, d.k, a, d.k, b, d.n, want, d.n, -1)
		forEachLevel(t, func(t *testing.T) {
			c := append([]float64(nil), c0...)
			Gemm(d.m, d.n, d.k, a, d.k, b, d.n, c, d.n)
			if !bitEqual(c, want) {
				t.Fatalf("m=%d n=%d k=%d: not bit-identical to reference (max diff %g)",
					d.m, d.n, d.k, maxDiff(c, want))
			}
		})
	}
}

func TestGemmScatterBitMatchesReference(t *testing.T) {
	forEachLevel(t, testGemmScatterBitMatchesReference)
}

func testGemmScatterBitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 300; trial++ {
		m, n, k := randDims(rng)
		lda := k + rng.Intn(5)
		ldb := n + rng.Intn(5)
		// Target with its own (larger) shape; maps send product rows/cols to
		// random distinct target slots, with ~1/4 of them dropped (-1).
		tm, tn := m+rng.Intn(4), n+rng.Intn(4)
		ldc := tn + rng.Intn(5)
		dstRow := scatterMap(rng, m, tm)
		dstCol := scatterMap(rng, n, tn)
		a := randMat(rng, m, lda)
		b := randMat(rng, k, ldb)
		c := randMat(rng, tm, ldc)
		want := append([]float64(nil), c...)
		refGemmScatter(m, n, k, a, lda, b, ldb, want, ldc, dstRow, dstCol)
		GemmScatter(m, n, k, a, lda, b, ldb, c, ldc, dstRow, dstCol)
		if !bitEqual(c, want) {
			t.Fatalf("trial %d: GemmScatter m=%d n=%d k=%d: not bit-identical to reference (max diff %g)",
				trial, m, n, k, maxDiff(c, want))
		}
	}
}

// forEachLevel runs f once per kernel level the host runs, with level set
// to it.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	defer func(l int) { level = l }(level)
	for l := levelPortable; l <= hostLevel; l++ {
		level = l
		t.Run(levelNames[l], f)
	}
}

// guarded returns a slice of n random values followed, in the same array, by
// a band of canaries, and a check that the band is intact: kernels that run
// unchecked must not write past the end of C.
func guarded(rng *rand.Rand, n int) ([]float64, func() bool) {
	const band = 16
	buf := randMat(rng, n+band, 1)
	for i := n; i < len(buf); i++ {
		buf[i] = 12345.5
	}
	return buf[:n], func() bool {
		for _, v := range buf[n:] {
			if v != 12345.5 {
				return false
			}
		}
		return true
	}
}

// TestGemmUpdateBitMatchesReference drives the planned-update engine, at
// every kernel level, through every Dest form the static update plan
// produces — no row map, row maps with consecutive runs and with dropped
// rows, contiguous destination columns at an offset, column maps that are
// runs with holes and arbitrary ones — at every m mod 8, and through the
// pack-once contract: several A operands against one B between two NewB
// calls, sharing one Packs, must each bit-match the naive mapped loop. Half
// the time C ends exactly at the last element the update writes, with
// canaries behind it, so a tile that reaches too far fails loudly.
func TestGemmUpdateBitMatchesReference(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		var pk Packs
		for trial := 0; trial < 300; trial++ {
			m, n, k := randDims(rng)
			switch trial % 10 {
			case 0:
				m += 100 // more rows than one A cache block
			case 5:
				m = 8*rng.Intn(4) + 1 + trial/10%7 // m mod 8 = 1..7 in turn
			}
			lda, ldb := k+rng.Intn(5), n+rng.Intn(5)
			b := randMat(rng, k, ldb)
			pk.NewB()
			for rep := 0; rep < 3; rep++ { // same B, fresh A and destination each time
				tm, tn := m+rng.Intn(4), n+rng.Intn(4)
				ldc := tn + rng.Intn(5)
				var d Dest
				dstRow, dstCol := make([]int, m), make([]int, n)
				for i := range dstRow {
					dstRow[i] = i
				}
				form := rng.Intn(4)
				switch form {
				case 1: // runs of consecutive rows with a gap, no drops
					gap := rng.Intn(m + 1)
					for i := gap; i < m; i++ {
						dstRow[i] = i + tm - m
					}
				case 2: // arbitrary injective map with drops
					dstRow = scatterMap(rng, m, tm)
				}
				if form != 0 { // form 0 leaves Rows nil: row i lands on row i
					d.Rows = toInt32(nil, dstRow)
				}
				switch rng.Intn(3) {
				case 0:
					d.Col0 = rng.Intn(tn - n + 1)
					for j := range dstCol {
						dstCol[j] = d.Col0 + j
					}
				case 1: // one run at an offset, about a quarter of it dropped
					off := rng.Intn(tn - n + 1)
					for j := range dstCol {
						if dstCol[j] = off + j; rng.Intn(4) == 0 {
							dstCol[j] = -1
						}
					}
					d.Cols = toInt32(nil, dstCol)
				default:
					dstCol = scatterMap(rng, n, tn)
					d.Cols = toInt32(nil, dstCol)
				}
				a := randMat(rng, m, lda)
				size := tm * ldc
				if rng.Intn(2) == 0 {
					size = 0 // just past the last element written
					for _, r := range dstRow {
						for _, cj := range dstCol {
							if r >= 0 && cj >= 0 {
								size = max(size, r*ldc+cj+1)
							}
						}
					}
				}
				c, intact := guarded(rng, size)
				want := append([]float64(nil), c...)
				refGemmScatter(m, n, k, a, lda, b, ldb, want, ldc, dstRow, dstCol)
				usePk := &pk
				if trial%4 == 3 {
					usePk = nil // pooled buffers, B packed per call
				}
				GemmUpdate(m, n, k, a, lda, b, ldb, c, ldc, d, usePk, nil)
				if !bitEqual(c, want) || !intact() {
					t.Fatalf("trial %d rep %d: GemmUpdate m=%d n=%d k=%d rows=%v cols=%v col0=%d len(c)=%d: not bit-identical to reference (max diff %g) or wrote past C",
						trial, rep, m, n, k, d.Rows != nil, d.Cols != nil, d.Col0, len(c), maxDiff(c, want))
				}
			}
		}
	})
}

// scatterMap draws an injective map of src positions onto t target slots with
// about a quarter of the positions unmapped (-1).
func scatterMap(rng *rand.Rand, src, t int) []int {
	perm := rng.Perm(t)
	out := make([]int, src)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = -1
			continue
		}
		out[i] = perm[i%t]
	}
	return out
}

func TestTrsmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		// Cross the trsmBlock boundaries (16, 32, 48...) and degenerate n=1.
		k := 1 + rng.Intn(70)
		n := 1 + rng.Intn(40)
		if trial%7 == 0 {
			n = 1
		}
		ldl := k + rng.Intn(5)
		ldb := n + rng.Intn(5)
		l := randMat(rng, k, ldl)
		for i := 0; i < k; i++ {
			l[i*ldl+i] = 1
			// Mild off-diagonal magnitudes keep the solve well conditioned,
			// so the 1e-12 relative tolerance is meaningful.
			for j := 0; j < i; j++ {
				l[i*ldl+j] *= 0.5
			}
		}
		b := randMat(rng, k, ldb)
		want := append([]float64(nil), b...)
		refTrsmLowerUnitLeft(k, n, l, ldl, want, ldb)
		TrsmLowerUnitLeft(k, n, l, ldl, b, ldb)
		scale := 1.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		if d := maxDiff(b, want); d > 1e-12*scale {
			t.Fatalf("trial %d: Trsm k=%d n=%d ldl=%d ldb=%d: rel diff %g", trial, k, n, ldl, ldb, d/scale)
		}
	}
}

// refTile is the naive definition of one tile of sweep: packed strips as
// (len(offs)/mr strips of kc*mr) against the packed B strip bs.
func refTile(kc int, as, bs, c []float64, offs []int, w *tileCols, sign float64) {
	for i, off := range offs {
		if off < 0 {
			continue
		}
		for j := 0; j < nr; j++ {
			if w.mask>>j&1 == 0 {
				continue
			}
			acc := 0.0
			for l := 0; l < kc; l++ {
				acc = math.FMA(as[i/mr*mr*kc+l*mr+i%mr], bs[l*nr+j], acc)
			}
			t := off + w.base + j
			if w.cols != nil {
				t = off + int(w.cols[j])
			}
			c[t] = math.FMA(sign, acc, c[t])
		}
	}
}

// TestKernelDispatchParity pins the dispatched kernels to the portable
// math.FMA ones bit for bit, at every level the host runs: the 4x8 kernel to
// kernel4x8go, and every tile — one, two and three strips — in every
// write-back form (contiguous, a column edge under a mask, rows without a
// slot, a run of columns with holes, a gathered column map) to the naive
// tile. C is sized to end at the last element written, with canaries behind.
func TestKernelDispatchParity(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for _, kc := range []int{1, 2, 7, 16, 33, 128} {
			a := randMat(rng, kc, 4)
			b := randMat(rng, kc, 8)
			for _, sign := range []float64{1, -1} {
				ldc := 8 + rng.Intn(4)
				c1 := randMat(rng, 4, ldc)
				c2 := append([]float64(nil), c1...)
				kernel4x8(kc, a, b, c1, ldc, sign)
				kernel4x8go(kc, a, b, c2, ldc, sign)
				if !bitEqual(c1, c2) {
					t.Fatalf("kc=%d sign=%v: 4x8 kernel differs from portable kernel on %s", kc, sign, runtime.GOARCH)
				}
				for _, rows := range []int{4, 8, 12} {
					for form := 0; form < 5; form++ {
						checkTile(t, rng, kc, rows, form, sign)
					}
				}
			}
		}
	})
}

// checkTile runs one tile of the given rows and write-back form against
// refTile.
func checkTile(t *testing.T, rng *rand.Rand, kc, rows, form int, sign float64) {
	const ldc = 21
	as, bs := randMat(rng, rows, kc), randMat(rng, nr, kc)
	offs := make([]int, rows)
	for i := range offs {
		offs[i] = (rows - 1 - i) * ldc // rows land in reverse order
	}
	w := tileCols{base: 3, mask: 1<<nr - 1}
	switch form {
	case 1: // column edge: 1..7 live lanes
		w.mask = 1<<(1+rng.Intn(nr-1)) - 1
	case 2: // rows without a slot
		for i := range offs {
			if rng.Intn(3) == 0 {
				offs[i] = -1
			}
		}
	case 3: // a run with holes
		w.mask = uint64(rng.Intn(1<<nr-1)) + 1
	case 4: // gathered columns, some without a slot
		w = tileCols{cols: make([]int32, nr)}
		for j, p := range rng.Perm(ldc)[:nr] {
			if w.cols[j] = int32(p); rng.Intn(4) == 0 {
				w.cols[j] = -1
			} else {
				w.mask |= 1 << j
			}
		}
	}
	size := 0 // just past the last element written
	for _, off := range offs {
		for j := 0; j < nr; j++ {
			if off >= 0 && w.mask>>j&1 != 0 {
				t := off + w.base + j
				if w.cols != nil {
					t = off + int(w.cols[j])
				}
				size = max(size, t+1)
			}
		}
	}
	if size == 0 {
		return
	}
	c, intact := guarded(rng, size)
	want := append([]float64(nil), c...)
	refTile(kc, as, bs, want, offs, &w, sign)
	tile(kc, as, bs, c, ldc, offs, &w, sign)
	if !bitEqual(c, want) || !intact() {
		t.Fatalf("kc=%d rows=%d form=%d sign=%v: tile differs from the naive tile or wrote past C", kc, rows, form, sign)
	}
}

// TestGemmSignedZeroUnderflow pins the fold on the one input where a scratch
// tile could change the sign of a zero: a product that underflows to -0 in
// every term gives acc = -0, and C = -0 minus it is +0 (C -= acc, the naive
// loop), at every level, for mapped and plain updates alike.
func TestGemmSignedZeroUnderflow(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		const m, n, k = 9, 11, 3
		a, b := make([]float64, m*k), make([]float64, k*n)
		for i := range a {
			a[i] = -1e-200
		}
		for i := range b {
			b[i] = 1e-200
		}
		negZero := math.Copysign(0, -1)
		cols := make([]int32, n)
		for j := range cols {
			cols[j] = int32(n - 1 - j)
		}
		for _, d := range []Dest{{}, {Cols: cols}} {
			c := make([]float64, m*n)
			for i := range c {
				c[i] = negZero
			}
			GemmUpdate(m, n, k, a, k, b, n, c, n, d, nil, nil)
			for i, v := range c {
				if math.Signbit(v) {
					t.Fatalf("cols=%v: c[%d] = -0, want +0", d.Cols != nil, i)
				}
			}
		}
	})
}

// TestGemmConcurrent hammers the shared pack-buffer pool from many
// goroutines; with -race this verifies the pool discipline, and the bitwise
// check verifies calls never observe each other's buffers.
func TestGemmConcurrent(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 50; trial++ {
				m, n, k := randDims(rng)
				a := randMat(rng, m, k)
				b := randMat(rng, k, n)
				c := randMat(rng, m, n)
				want := append([]float64(nil), c...)
				refGemmSign(m, n, k, a, k, b, n, want, n, -1)
				Gemm(m, n, k, a, k, b, n, c, n)
				if !bitEqual(c, want) {
					errs <- "concurrent Gemm diverged from reference"
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestGemmUpdateZeroColumns: B's pack leaves out the strips of nr columns
// that only zero columns fill, and the update must still be the naive mapped
// loop's bit for bit — C's signed zeros included — with zero columns leading,
// trailing, interleaved, in runs longer than a strip, everywhere and nowhere,
// under every map form, at every kernel level, and with one packed B shared
// by several products.
func TestGemmUpdateZeroColumns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	patterns := []struct {
		name string
		zero func(n int, rng *rand.Rand) []bool
	}{
		{"none", func(n int, _ *rand.Rand) []bool { return make([]bool, n) }},
		{"all", func(n int, _ *rand.Rand) []bool { return filled(n, func(int) bool { return true }) }},
		{"leading", func(n int, rng *rand.Rand) []bool {
			z := 1 + rng.Intn(n)
			return filled(n, func(j int) bool { return j < z })
		}},
		{"trailing", func(n int, rng *rand.Rand) []bool {
			z := rng.Intn(n)
			return filled(n, func(j int) bool { return j >= z })
		}},
		{"interleaved", func(n int, _ *rand.Rand) []bool { return filled(n, func(j int) bool { return j%2 == 1 }) }},
		{"runs", func(n int, rng *rand.Rand) []bool {
			z := make([]bool, n)
			for j := 0; j < n; {
				run := 1 + rng.Intn(2*nr)
				zero := rng.Intn(2) == 0
				for ; run > 0 && j < n; run, j = run-1, j+1 {
					z[j] = zero
				}
			}
			return z
		}},
	}
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		var pk Packs
		for _, p := range patterns {
			name := p.name
			for trial := 0; trial < 40; trial++ {
				m, n, k := 1+rng.Intn(30), 1+rng.Intn(60), 1+rng.Intn(24)
				zero := p.zero(n, rng)
				b := randMat(rng, k, n)
				for l := 0; l < k; l++ {
					for j := range zero {
						if zero[j] {
							b[l*n+j] = 0
							if rng.Intn(2) == 0 {
								b[l*n+j] = negZero
							}
						}
					}
				}
				tm, tn := m+rng.Intn(5), n+rng.Intn(9)
				dstRow, dstCol := make([]int, m), make([]int, n)
				var d Dest
				for i := range dstRow {
					dstRow[i] = i
				}
				if rng.Intn(2) == 0 {
					dstRow = scatterMap(rng, m, tm)
					d.Rows = toInt32(nil, dstRow)
				}
				if rng.Intn(2) == 0 {
					d.Col0 = rng.Intn(tn - n + 1)
					for j := range dstCol {
						dstCol[j] = d.Col0 + j
					}
				} else {
					dstCol = scatterMap(rng, n, tn)
					d.Cols = toInt32(nil, dstCol)
				}
				pk.NewB()
				for rep := 0; rep < 2; rep++ { // two products share the packed B
					a := randMat(rng, m, k)
					c := randMat(rng, tm, tn)
					for q := range c {
						switch rng.Intn(4) {
						case 0:
							c[q] = 0
						case 1:
							c[q] = negZero
						}
					}
					want := append([]float64(nil), c...)
					refGemmScatter(m, n, k, a, k, b, n, want, tn, dstRow, dstCol)
					var pa []float64
					if rep == 1 {
						pa = make([]float64, PackedALen(m, k))
						PackA(pa, m, k, a, k)
					}
					GemmUpdate(m, n, k, a, k, b, n, c, tn, d, &pk, pa)
					if !bitEqual(c, want) {
						t.Fatalf("%s trial %d rep %d: m=%d n=%d k=%d zero=%v rows=%v cols=%v: not bit-identical to the naive loop (max diff %g)",
							name, trial, rep, m, n, k, zero, d.Rows != nil, d.Cols != nil, maxDiff(c, want))
					}
				}
			}
		}
	})
}

func filled(n int, f func(int) bool) []bool {
	z := make([]bool, n)
	for j := range z {
		z[j] = f(j)
	}
	return z
}
