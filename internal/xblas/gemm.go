// Packed, register-tiled GEMM engine.
//
// Every product runs on one driver, GemmUpdate: the mapped block updates of
// the factorization, GemmScatter, and Gemm, which is GemmUpdate with the zero
// Dest (and through it the coupling between the diagonal blocks of the
// TRSM). Operand panels are packed into contiguous tiles and an unrolled
// mr-by-nr accumulator micro-kernel sweeps them, BLIS-style. It is not the
// only kernel of the package: the diagonal blocks of the TRSM and the panel
// factorization are defined as sequences of separately rounded
// multiply-subtracts and run on the unfused, unpacked kernels of mulsub.go.
//
//   - A panels are packed into strips of mr rows: strip element (l, i) sits at
//     offset l*mr+i, so each k-step of the micro-kernel reads mr contiguous
//     values.
//   - B panels are packed into strips of nr columns: strip element (l, j) sits
//     at offset l*nr+j.
//   - A tile of one, two or three A strips by one B strip stays in registers,
//     accumulating over the whole k extent with fused multiply-adds, and is
//     folded into C with a single rounding per element: C -= acc, at the
//     positions the caller's row and column maps name.
//
// Three kernel levels exist, the best the CPU runs picked once at startup
// (CPUID/XGETBV on amd64):
//
//   - amd64-avx512: 4-, 8- and 12-row zmm tiles (pairs of strips, the last
//     three or the only one together) that fold straight into C — masked
//     loads and stores for contiguous columns, per-row offsets for a row
//     map, gathers and scatters for a column map;
//   - amd64-avx2-fma: a 4x8 ymm kernel per strip, folding into C directly
//     when the strip covers four consecutive rows and eight contiguous
//     columns and through a scratch tile and Go write-back otherwise;
//   - portable-fma: the same strips on a math.FMA kernel.
//
// All accumulate in the same order with correctly-rounded fused multiply-adds
// and fold with one rounding, so the results are bitwise identical across
// levels and platforms — the property the repo's determinism guarantees rest
// on. For the same reason every element's accumulation order equals the naive
// triple loop's (ascending l, one final fold into C), so the packed kernels
// bit-match an FMA-based naive reference exactly.
//
// The k extent is deliberately NOT split into cache blocks: S*'s supernode
// panels keep k at or below the block size (≤ ~128), the packed panels stay
// cache-resident, and full-k accumulation is what makes the single-rounding
// write-back (and hence exact reproducibility) possible.
package xblas

import (
	"math"
	"sync"
)

// Tile constants of the engine. The strip widths mr and nr are the packed
// layout every kernel level reads (gemm_amd64.s and kernel4x8go alike), so
// changing them means changing all of them. The cache block mcBlock (rows of
// A per packed panel) only regroups packing and tile calls: every element of
// C is still accumulated over the full k extent inside a single tile and
// folded with one rounding, so it never changes results. It is fixed:
// measured at startup, the best shape moved between runs by more than the
// candidates differed (DESIGN.md, "Fixed cache blocks"). mcBlock is a
// multiple of 2*mr, so every strip of a full block pairs in the 8-row
// AVX-512 tile.
const (
	mr = 4 // A-panel strip width (rows)
	nr = 8 // B-panel strip width (columns)

	mcBlock = 96 // A-panel rows per cache block

	// ncBlock cuts nothing: GemmUpdate packs all of B at once. It stays only
	// because the benchmark's xblas.tile_nc reads it through TileShape; it
	// goes when that metric is retired.
	ncBlock = 256

	// smallUpdateFlops: at or below this many flops (2*m*n*k) the packing
	// overhead outweighs the micro-kernel win and the direct loop
	// smallUpdate runs instead. Both paths produce bitwise-identical
	// results, so the threshold is a pure tuning knob.
	smallUpdateFlops = 2 * 4 * 4 * 4
)

// Kernel levels, lowest first; every level gives the same bits.
const (
	levelPortable = iota
	levelAVX2
	levelAVX512
)

var levelNames = [...]string{"portable-fma", "amd64-avx2-fma", "amd64-avx512"}

// level is the kernel level in use: hostLevel, the best this CPU runs. Only
// tests lower it, to hold every level to the same bits on one host.
var level = hostLevel

// KernelName identifies the kernel level dispatched at startup, for
// benchmark reports.
func KernelName() string { return levelNames[level] }

// TileShape returns the engine's A cache block (rows per packed panel) and
// ncBlock, which cuts nothing, for benchmark reports.
func TileShape() (mc, nc int) { return mcBlock, ncBlock }

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func roundUp(n, q int) int { return (n + q - 1) / q * q }

// Gemm computes C = C - A*B (the update form used throughout sparse LU:
// A_ij -= L_ik * U_kj) for row-major A (m-by-k, stride lda), B (k-by-n,
// stride ldb) and C (m-by-n, stride ldc): GemmUpdate with the zero Dest.
// Flops: 2*m*n*k.
func Gemm(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	GemmUpdate(m, n, k, a, lda, b, ldb, c, ldc, Dest{}, nil, nil)
}

// packA packs rows [ic, ic+rows) of A (full k extent) into strips of mr rows;
// strip s holds element (l, i) at offset s*mr*k + l*mr + i. Rows past the end
// are zero-padded so the micro-kernel always runs full tiles.
func packA(dst, a []float64, lda, ic, k, rows int) {
	rowsPad := roundUp(rows, mr)
	for ir := 0; ir < rowsPad; ir += mr {
		strip := dst[ir*k : (ir+mr)*k]
		for ii := 0; ii < mr; ii++ {
			if ir+ii >= rows {
				for l := 0; l < k; l++ {
					strip[l*mr+ii] = 0
				}
				continue
			}
			arow := a[(ic+ir+ii)*lda : (ic+ir+ii)*lda+k]
			for l, v := range arow {
				strip[l*mr+ii] = v
			}
		}
	}
}

// rowOffsets fills offs with the offset in C of product rows ic..ic+n-1 —
// row r lands on row rows[r], or on row r when rows is nil; -1 is no slot —
// padded with -1 to whole strips of mr rows. It also returns the largest
// offset, -1 when no row has a slot.
func rowOffsets(offs []int, rows []int32, ic, n, ldc int) ([]int, int) {
	offs = grow(offs, roundUp(n, mr))
	maxOff := -1
	if rows == nil {
		for i := range offs[:n] {
			offs[i] = (ic + i) * ldc
		}
		maxOff = offs[n-1]
	} else {
		for i, t := range rows[ic : ic+n] {
			o := -1
			if t >= 0 {
				o = int(t) * ldc
				maxOff = max(maxOff, o)
			}
			offs[i] = o
		}
	}
	for i := n; i < len(offs); i++ {
		offs[i] = -1
	}
	return offs, maxOff
}

// tileCols says where the columns of one B strip land in C: lane j, if set
// in mask, lands on column base+j, or on column cols[j] when cols is not nil.
// reach is one past the farthest column a lane lands on.
type tileCols struct {
	base, reach int
	cols        []int32
	mask        uint64
}

// stripCols describes a strip of mapped columns (-1: no slot). A map that
// is one run with holes, cols[j] = base+j wherever it is set, is written
// like contiguous columns under the mask.
func stripCols(cols []int32) tileCols {
	var w tileCols
	run, seen := true, false
	for j, t := range cols {
		if t < 0 {
			continue
		}
		w.mask |= 1 << j
		w.reach = max(w.reach, int(t)+1)
		if !seen {
			w.base, seen = int(t)-j, true
		} else if int(t)-j != w.base {
			run = false
		}
	}
	if !run || w.base < 0 {
		w.base, w.cols = 0, cols
	}
	return w
}

// sweep folds the product of a packed A block and a packed B panel into C:
//
//	C[offs[i] + col(j)] -= acc(i, j)
//
// for every product row i with offs[i] >= 0 and column j < n with a slot,
// where acc(i, j) is the FMA sum over ascending l from +0 and col(j) is
// col0+j, or cols[j] when cols is not nil (-1: no slot). ap holds
// len(offs)/mr strips of mr rows, bp the n columns in strips of nr — strip q
// holding columns q*nr onward, or starts[q] onward when starts is not nil
// (packUpdateB's windows; the columns no strip holds are skipped). Each B strip
// goes to tile, the kernel level dispatched at startup.
func sweep(n, k int, ap, bp, c []float64, ldc int, offs []int, maxOff, col0 int, cols []int32, starts []int32) {
	if ldc < 0 || col0 < 0 {
		panic("xblas: negative ldc or column offset") // offsets < 0 would read as "no slot"
	}
	if maxOff < 0 {
		return
	}
	strips := (n + nr - 1) / nr
	if starts != nil {
		strips = len(starts)
	}
	for q := 0; q < strips; q++ {
		jr := q * nr
		if starts != nil {
			jr = int(starts[q])
		}
		nj := min(nr, n-jr)
		w := tileCols{base: col0 + jr, reach: col0 + jr + nj, mask: 1<<nj - 1}
		if cols != nil {
			if w = stripCols(cols[jr : jr+nj]); w.mask == 0 {
				continue
			}
		}
		// One bounds check per strip, on the farthest element its tiles
		// write, so the kernels may run unchecked.
		_ = c[maxOff+w.reach-1]
		tile(k, ap, bp[q*nr*k:(q+1)*nr*k], c, ldc, offs, &w, -1)
	}
}

// negZeroTile seeds tileStrips' scratch tile: FMA(1, acc, -0) is acc
// exactly, the sign of a zero included, so folding the scratch tile gives
// the bits of folding acc.
var negZeroTile = func() (t [mr * nr]float64) {
	for i := range t {
		t[i] = math.Copysign(0, -1)
	}
	return t
}()

// tileStrips runs the A strips against one B strip on the 4x8 kernel:
// straight into C when a strip's rows are consecutive and its eight columns
// contiguous, through a scratch tile otherwise. C += sign*v rounds once, as
// the fused fold does: the product by sign is exact.
func tileStrips(k int, as, bs, c []float64, ldc int, offs []int, w *tileCols, sign float64) {
	for s := 0; s < len(offs); s += mr {
		o, a := offs[s:s+mr], as[s*k:]
		if w.cols == nil && w.mask == 1<<nr-1 && o[0] >= 0 && o[1] == o[0]+ldc && o[2] == o[1]+ldc && o[3] == o[2]+ldc {
			kernel4x8(k, a, bs, c[o[0]+w.base:], ldc, sign)
			continue
		}
		tmp := negZeroTile
		kernel4x8(k, a, bs, tmp[:], nr, 1)
		for ii, off := range o {
			if off < 0 {
				continue
			}
			trow := tmp[ii*nr : ii*nr+nr]
			if w.cols == nil {
				crow := c[off+w.base:]
				for jj, v := range trow {
					if w.mask>>jj&1 != 0 {
						crow[jj] += float64(sign * v)
					}
				}
				continue
			}
			for jj, t := range w.cols {
				if t >= 0 {
					c[off+int(t)] += float64(sign * trow[jj])
				}
			}
		}
	}
}

// kernel4x8go is the portable micro-kernel: a 4x8 accumulator tile swept over
// packed strips with correctly-rounded fused multiply-adds (math.FMA), then
// folded into C with one rounding per element — bitwise identical to the
// amd64 vector kernel.
func kernel4x8go(kc int, a, b, c []float64, ldc int, sign float64) {
	var acc [mr * nr]float64
	for l := 0; l < kc; l++ {
		bl := b[l*nr : l*nr+nr]
		al := a[l*mr : l*mr+mr]
		for i, av := range al {
			row := acc[i*nr : i*nr+nr]
			for j, bv := range bl {
				row[j] = math.FMA(av, bv, row[j])
			}
		}
	}
	for i := 0; i < mr; i++ {
		crow := c[i*ldc : i*ldc+nr]
		arow := acc[i*nr : i*nr+nr]
		for j, v := range arow {
			crow[j] = math.FMA(sign, v, crow[j])
		}
	}
}

// Dest says where the rows and columns of a product land in C. The zero
// Dest is the plain update C[i, j] -= (A*B)[i, j].
type Dest struct {
	// Rows[i] is the row of C that product row i lands on; -1 marks a product
	// row with no slot in C. nil means row i lands on row i.
	Rows []int32
	// Cols[j] is the column of C that product column j lands on, -1 for none.
	// nil means the columns land on the contiguous run Col0, Col0+1, ...
	// No two product columns land on one column of C.
	Cols []int32
	Col0 int
}

// Packs holds the packing buffers of a caller that issues many GemmUpdate
// calls, so the hot path neither allocates nor touches a pool. It also lets
// one packed B panel serve several products: after NewB the first GemmUpdate
// that needs B packed packs it, and later calls reuse it until the next NewB.
// The caller owns that contract — every call between two NewB must pass the
// same, unchanged B. The zero value is ready to use; a Packs must not be
// shared between goroutines.
type Packs struct {
	a, b    []float64
	bPacked bool
	// After a pack that dropped zero columns (skip), strip q of the packed
	// panel holds B's columns starts[q] .. starts[q]+nr-1; otherwise strip q
	// holds columns q*nr onward.
	skip   bool
	starts []int32
	rows   []int32 // GemmScatter's converted maps
	cols   []int32
	offs   []int // sweep's row offsets into C
}

// NewB declares that the next GemmUpdate brings a new B operand.
func (pk *Packs) NewB() { pk.bPacked = false }

// PackedALen returns the length of the packed image of an m-by-k A operand.
func PackedALen(m, k int) int { return roundUp(m, mr) * k }

// PackA packs the m-by-k A operand (row-major, stride lda) into dst, which
// must hold PackedALen(m, k) values, for GemmUpdate calls that multiply the
// same A by several B. Packing moves values and rounds nothing, so results do
// not depend on who packed what, when.
func PackA(dst []float64, m, k int, a []float64, lda int) {
	packA(dst[:PackedALen(m, k)], a, lda, 0, k, m)
}

// PacksA reports whether GemmUpdate reads an m-by-k A packed when it
// multiplies it by a k-by-n B; smaller products run a direct loop over A in
// place.
func PacksA(m, n, k int) bool { return 2*m*n*k > smallUpdateFlops }

// packsPool backs the calls that bring no Packs of their own (Gemm and
// through it the blocked TRSM, GemmScatter, GemmUpdate with a nil pk).
var packsPool = sync.Pool{New: func() any { return new(Packs) }}

// GemmUpdate computes the mapped update
//
//	C[d.Rows[i], d.Cols[j]] -= (A*B)[i, j]
//
// for row-major A (m-by-k, stride lda) and B (k-by-n, stride ldb), writing
// directly into the mapped positions of C (stride ldc); see Dest for the map
// conventions. Product rows/columns without a slot contribute nothing (they
// are structural zeros in the S* update). This is the one driver behind every
// product of the package — the block updates of the factorization, whose
// maps come precomputed and compacted from the static update plan, and Gemm,
// the zero Dest: operand panels are packed without gathering, each tile
// accumulates in registers over the full k extent and is folded into C with
// a single rounding per element — bit-matching the naive mapped triple loop.
// On AVX-512 hosts every tile folds in registers, whatever the maps;
// elsewhere tiles on four consecutive rows and eight contiguous columns do,
// and the rest go through a scratch tile. B's pack notes its zero columns
// and leaves out the strips of nr columns it can (packUpdateB): with A
// finite, a zero column's sums are +0 and leave C's bits as they are.
//
// pk may be nil (buffers then come from a pool and B is packed for this call
// only); pa is A packed by PackA, or nil (A is then packed for this call
// only). Stats: the zero Dest counts as a Gemm call, anything else as a
// scatter call of the shape the map lands in C, zero columns included.
func GemmUpdate(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, d Dest, pk *Packs, pa []float64) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if kstats.Load() != nil {
		if d.Rows == nil && d.Cols == nil {
			noteGemm(m, n, k)
		} else if mv, nv := countSlots(d.Rows, m), countSlots(d.Cols, n); mv > 0 && nv > 0 {
			noteScatter(mv, nv, k)
		}
	}
	if 2*m*n*k <= smallUpdateFlops {
		smallUpdate(m, n, k, a, lda, b, ldb, c, ldc, d)
		return
	}
	pooled := pk == nil
	if pooled {
		pk = packsPool.Get().(*Packs)
		pk.bPacked = false
	}
	if !pk.bPacked {
		pk.packUpdateB(b, ldb, k, n)
	}
	var starts []int32
	if pk.skip {
		if starts = pk.starts; len(starts) == 0 {
			n = 0 // B is zero: every sum is +0, and C keeps its bits
		}
	}
	for ic := 0; ic < m; ic += mcBlock {
		mcb := min(mcBlock, m-ic)
		var ap []float64 // packed rows ic.. of A; strips of mr rows, so row ir starts at ir*k
		if pa != nil {
			ap = pa[ic*k:]
		} else {
			pk.a = grow(pk.a, roundUp(mcb, mr)*k)
			packA(pk.a, a, lda, ic, k, mcb)
			ap = pk.a
		}
		offs, maxOff := rowOffsets(pk.offs, d.Rows, ic, mcb, ldc)
		pk.offs = offs
		sweep(n, k, ap, pk.b, c, ldc, offs, maxOff, d.Col0, d.Cols, starts)
	}
	if pooled {
		packsPool.Put(pk)
	}
}

// packUpdateB packs the k-by-n B (stride ldb) into pk.b for GemmUpdate, noting
// in the same pass which columns hold a nonzero (a NaN or an infinity
// counts, a zero of either sign does not). Then it lays the panel out again
// as windows of nr consecutive columns, each opening at the first nonzero
// column past the last window, when that takes fewer strips: the zero
// columns no window reaches are never multiplied, and every strip still
// lands on a contiguous run of C's columns wherever B's columns do. Breaking
// that contiguity to drop every zero column (a composed column map) saved
// more flops but cost as much in gathered and scattered write-backs
// (DESIGN.md, "Zero U subcolumns").
func (pk *Packs) packUpdateB(b []float64, ldb, k, n int) {
	bp := grow(pk.b, roundUp(n, nr)*k)
	starts := pk.starts[:0]
	next := 0 // the first column past the last window
	for jr := 0; jr < n; jr += nr {
		strip := bp[jr*k : (jr+nr)*k]
		w := min(nr, n-jr)
		// One accumulator per lane, nr = 8 of them, kept in registers
		// (unrolledForEight fails to compile for any other nr); the lanes
		// past w hold the strip's zero padding.
		var o0, o1, o2, o3, o4, o5, o6, o7 uint64
		for l := 0; l < k; l++ {
			d := (*[nr]float64)(strip[l*nr:])
			if w == nr {
				*d = *(*[nr]float64)(b[l*ldb+jr:])
			} else {
				copy(d[:w], b[l*ldb+jr:l*ldb+jr+w])
				clear(d[w:])
			}
			o0 |= math.Float64bits(d[0])
			o1 |= math.Float64bits(d[1])
			o2 |= math.Float64bits(d[2])
			o3 |= math.Float64bits(d[3])
			o4 |= math.Float64bits(d[4])
			o5 |= math.Float64bits(d[5])
			o6 |= math.Float64bits(d[6])
			o7 |= math.Float64bits(d[7])
		}
		lanes := [nr]uint64{o0, o1, o2, o3, o4, o5, o6, o7}
		for jj, o := range lanes[:w] {
			if j := jr + jj; j >= next && o<<1 != 0 { // not ±0 throughout
				starts = append(starts, int32(j))
				next = j + nr
			}
		}
	}
	pk.b, pk.starts, pk.bPacked = bp, starts, true
	if pk.skip = len(starts) < (n+nr-1)/nr; !pk.skip {
		return
	}
	// Window q starts at column starts[q] >= q*nr, so it reads strips q and
	// above only, which no earlier window wrote, and within strip q it moves
	// each value to a lower lane or leaves it: the layout changes in place.
	for q, c := range starts {
		s0, o := int(c)/nr, int(c)%nr
		switch {
		case s0 == q && o == 0:
		case o == 0: // a whole strip, padding included
			copy(bp[q*nr*k:(q+1)*nr*k], bp[s0*nr*k:(s0+1)*nr*k])
		default: // lanes o.. of strip s0, then the first lanes of strip s0+1
			dst, src := bp[q*nr*k:(q+1)*nr*k], bp[s0*nr*k:]
			w := min(nr, n-int(c))
			w0 := min(w, nr-o)
			for l := 0; l < k; l++ {
				d := dst[l*nr : l*nr+nr]
				copy(d[:w0], src[l*nr+o:])
				if w > w0 {
					copy(d[w0:w], src[(k+l)*nr:])
				}
				clear(d[w:])
			}
		}
	}
}

// unrolledForEight holds packUpdateB's unrolled strip loop to nr = 8.
const unrolledForEight = uint(nr-8) + uint(8-nr)

// smallUpdate is the direct path for tiny products: the mapped FMA triple
// loop itself, with the same per-element accumulation order and
// single-rounding fold as the packed path.
func smallUpdate(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, d Dest) {
	for i := 0; i < m; i++ {
		ri := i
		if d.Rows != nil {
			if ri = int(d.Rows[i]); ri < 0 {
				continue
			}
		}
		arow := a[i*lda : i*lda+k]
		crow := c[ri*ldc:]
		for j := 0; j < n; j++ {
			cj := d.Col0 + j
			if d.Cols != nil {
				if cj = int(d.Cols[j]); cj < 0 {
					continue
				}
			}
			acc := 0.0
			for l, av := range arow {
				acc = math.FMA(av, b[l*ldb+j], acc)
			}
			crow[cj] -= acc
		}
	}
}

// countSlots returns how many of the n product rows (or columns) of a map
// have a slot in C.
func countSlots(m []int32, n int) int {
	if m == nil {
		return n
	}
	v := 0
	for _, t := range m[:n] {
		if t >= 0 {
			v++
		}
	}
	return v
}

// GemmScatter is GemmUpdate with the maps given as int slices: it computes
//
//	C[dstRow[i], dstCol[j]] -= (A*B)[i, j]
//
// with entries of dstRow / dstCol equal to -1 marking product rows/columns
// that have no slot in C, under Dest's conventions. A thin wrapper — the
// maps are converted into pooled scratch and the shared engine does the rest.
func GemmScatter(m, n, k int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int, dstRow, dstCol []int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	pk := packsPool.Get().(*Packs)
	pk.bPacked = false
	pk.rows, pk.cols = toInt32(pk.rows, dstRow[:m]), toInt32(pk.cols, dstCol[:n])
	GemmUpdate(m, n, k, a, lda, b, ldb, c, ldc, Dest{Rows: pk.rows, Cols: pk.cols}, pk, nil)
	packsPool.Put(pk)
}

func toInt32(dst []int32, src []int) []int32 {
	dst = dst[:0]
	for _, v := range src {
		dst = append(dst, int32(v))
	}
	return dst
}

// trsmBlock is the diagonal-block edge of the blocked triangular solve.
const trsmBlock = 16

// TrsmLowerUnitLeft solves L * X = B in place for a unit lower-triangular
// k-by-k L (row-major, stride ldl); B is k-by-n (row-major, stride ldb) and
// is overwritten with X. This is the "U_kj = L_kk^{-1} U_kj" operation of
// task Update (Fig. 8 line 05). The solve is blocked: forward eliminations on
// trsmBlock-row diagonal blocks, with the trailing rows updated by Gemm —
// true BLAS-3, leaving out the strips of B's all-zero columns like every
// product. Inside a diagonal block every element takes its updates one at a
// time in ascending p, unfused (the unblocked loop's sequence, which MulSub
// reproduces on register tiles): four rows at a time take the block's rows
// above them as one rectangle, then the 4-by-4 triangle row by row.
// trsmBlock and the fused GEMM coupling between blocks define the result's
// bits; the tiling inside a block does not. Flops: n*k*(k-1).
func TrsmLowerUnitLeft(k, n int, l []float64, ldl int, b []float64, ldb int) {
	if k == 0 || n == 0 {
		return
	}
	noteTrsm(k, n, int64(n)*int64(k)*int64(k-1))
	if k == 1 {
		return // a 1-by-1 unit triangle: X = B
	}
	for ib := 0; ib < k; ib += trsmBlock {
		tb := min(trsmBlock, k-ib)
		for i0 := ib; i0 < ib+tb; i0 += mr {
			mi := min(mr, ib+tb-i0)
			MulSub(mi, n, i0-ib, l[i0*ldl+ib:], ldl, b[ib*ldb:], ldb, b[i0*ldb:], ldb)
			for i := i0 + 1; i < i0+mi; i++ {
				MulSub(1, n, i-i0, l[i*ldl+i0:], ldl, b[i0*ldb:], ldb, b[i*ldb:], ldb)
			}
		}
		// Trailing-panel update B[ib+tb:] -= L[ib+tb:, ib:ib+tb] * B[ib:ib+tb].
		if rem := k - ib - tb; rem > 0 {
			Gemm(rem, n, tb, l[(ib+tb)*ldl+ib:], ldl, b[ib*ldb:], ldb, b[(ib+tb)*ldb:], ldb)
		}
	}
}
