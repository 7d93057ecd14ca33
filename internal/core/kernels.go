package core

import (
	"fmt"
	"math"

	"sstar/internal/supernode"
	"sstar/internal/xblas"
)

// Flops tallies floating-point work by BLAS level; the machine model charges
// each class at a different rate (DGEMM vs DGEMV vs vector ops), which is the
// distinction the paper's performance analysis is built on.
type Flops struct {
	B1 int64 // vector ops: scaling, pivot search comparisons are excluded
	B2 int64 // matrix-vector class: the within-panel eliminations of Factor()
	B3 int64 // matrix-matrix class: TRSM scalings and GEMM updates
	Sw int64 // row-interchange data movement, in elements
}

// Add accumulates other into f.
func (f *Flops) Add(other Flops) {
	f.B1 += other.B1
	f.B2 += other.B2
	f.B3 += other.B3
	f.Sw += other.Sw
}

// Total returns the total floating point operations (excluding swaps).
func (f Flops) Total() int64 { return f.B1 + f.B2 + f.B3 }

// Workspace holds per-worker scratch so the kernels allocate nothing on the
// hot path: the GEMM packing buffers (with the packed U panel an Update task
// shares across its block updates) and the worker's flop tally. Each
// (simulated) processor owns one; the zero value is ready to use.
type Workspace struct {
	packs xblas.Packs
	Fl    Flops
}

// panelBlock is the column-block width of FactorPanel: one cache line of a
// panel row, and the k extent of its trailing updates.
const panelBlock = 8

// FactorPanel performs task Factor(k) of Fig. 7 on the whole block column k,
// which the slab holds as one row-major R-by-s matrix (diagonal block, then
// the L rows): a right-looking blocked dense LU with partial pivoting. Within
// a block of panelBlock columns it eliminates column by column — pivot search
// over every storage row of the column, whole-row interchange, scaling, and
// the rank-1 update restricted to the block's columns, with the search of the
// next column fused into that update. The columns right of the block then
// take all of the block's updates at once through xblas.MulSub: first the
// block's own rows in ascending order, then everything below. Each element
// still receives c -= l*u for ascending l, product and difference each
// rounded, with no multiplier skipped — the operation sequence of eliminating
// one column at a time over the full panel width, so the factors and pivots
// are that loop's bit for bit. piv[m] receives the global storage row chosen
// as pivot for column m.
//
// Pivoting is classical partial pivoting: the column maximum wins, and ties
// go to the first maximum in panel row order — the diagonal first, so a
// diagonal that ties the maximum is kept. A column whose pivot is zero, NaN
// or infinite fails with an error wrapping ErrSingular.
func FactorPanel(bm *supernode.BlockMatrix, k int, piv []int32, ws *Workspace) error {
	p := bm.P
	start, s := p.Start[k], p.Size(k)
	lrows := p.LRows[k]
	pan := bm.Panel(k)
	nr := s + len(lrows) // panel rows
	// The first block takes the odd columns, so every trailing update is a
	// whole number of kernel tiles wide.
	for b0, b1 := 0, (s-1)%panelBlock+1; b0 < s; b0, b1 = b1, b1+panelBlock {
		// Pivot search down column b0; later columns of the block are
		// searched while the column before them is eliminated.
		best, bestRow := math.Abs(pan[b0*s+b0]), b0
		for r := b0 + 1; r < nr; r++ {
			if v := math.Abs(pan[r*s+b0]); v > best {
				best, bestRow = v, r
			}
		}
		for mc := b0; mc < b1; mc++ {
			m := start + mc
			if !(best > 0) || math.IsInf(best, 0) {
				if best == 0 {
					return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, m)
				}
				return fmt.Errorf("%w: non-finite pivot at column %d", ErrSingular, m)
			}
			piv[m] = int32(start + bestRow)
			if bestRow >= s {
				piv[m] = lrows[bestRow-s]
			}
			if bestRow != mc {
				ra, rb := pan[mc*s:mc*s+s], pan[bestRow*s:bestRow*s+s]
				for i, v := range ra {
					ra[i], rb[i] = rb[i], v
				}
				ws.Fl.Sw += int64(s)
			}
			best, bestRow = xblas.ElimStep(pan[mc*s+mc:], s, nr-mc-1, b1-mc-1)
			bestRow += mc
			ws.Fl.B1 += int64(nr - mc - 1)
			ws.Fl.B2 += 2 * int64(nr-mc-1) * int64(s-mc-1)
		}
		if b1 < s {
			for r := b0 + 1; r < b1; r++ {
				xblas.MulSub(1, s-b1, r-b0, pan[r*s+b0:], s, pan[b0*s+b1:], s, pan[r*s+b1:], s)
			}
			xblas.MulSub(nr-b1, s-b1, b1-b0, pan[b1*s+b0:], s, pan[b0*s+b1:], s, pan[b1*s+b1:], s)
		}
	}
	return nil
}

// ApplyPivots applies the panel-k pivot sequence to block column j > k (the
// delayed row interchange of Update / ScaleSwap, Fig. 8 line 02). Swapping is
// restricted to the storage slots the two rows share; values at asymmetric
// slots are structural zeros by the static-structure argument, so nothing is
// lost.
func ApplyPivots(bm *supernode.BlockMatrix, k, j int, piv []int32, ws *Workspace) {
	p := bm.P
	for m := p.Start[k]; m < p.Start[k+1]; m++ {
		t := int(piv[m])
		if t == m {
			continue
		}
		SwapRowsInBlockColumn(bm, j, m, t, ws)
	}
}

// SwapRowsInBlockColumn exchanges the common storage slots of global rows m
// and t within block column j.
func SwapRowsInBlockColumn(bm *supernode.BlockMatrix, j, m, t int, ws *Workspace) {
	bm1 := bm.BlockAt(bm.P.BlockOf[m], j)
	bm2 := bm.BlockAt(bm.P.BlockOf[t], j)
	if bm1 == nil || bm2 == nil {
		return // one of the rows has no structure in this block column
	}
	r1 := bm1.RowSlice(m)
	r2 := bm2.RowSlice(t)
	if r1 == nil || r2 == nil {
		return
	}
	if len(bm1.Cols) == len(bm2.Cols) && &bm1.Cols[0] == &bm2.Cols[0] { // one shared column list
		for i := range r1 {
			r1[i], r2[i] = r2[i], r1[i]
		}
		ws.Fl.Sw += int64(len(r1))
		return
	}
	// General case: walk the two sorted column lists and swap matches.
	c1, c2 := bm1.Cols, bm2.Cols
	i, q := 0, 0
	for i < len(c1) && q < len(c2) {
		switch {
		case c1[i] < c2[q]:
			i++
		case c1[i] > c2[q]:
			q++
		default:
			r1[i], r2[q] = r2[q], r1[i]
			ws.Fl.Sw++
			i++
			q++
		}
	}
}

// ScaleU computes U_kj = L_kk^{-1} U_kj (Fig. 8 line 05) with a BLAS-3
// triangular solve against the unit-lower part of the diagonal block.
func ScaleU(bm *supernode.BlockMatrix, k, j int, ws *Workspace) {
	if ui := bm.UIndex(k, j); ui >= 0 {
		scaleU(bm, k, bm.URow[k][ui], ws)
	}
}

func scaleU(bm *supernode.BlockMatrix, k int, ub *supernode.Block, ws *Workspace) {
	s := bm.P.Size(k)
	nc := len(ub.Cols)
	xblas.TrsmLowerUnitLeft(s, nc, bm.Diag[k].Data, s, ub.Data, nc)
	ws.Fl.B3 += int64(nc) * int64(s) * int64(s-1)
}

// UpdateBlock performs A_ij -= L_ik * U_kj (Fig. 8 lines 10-17) for the
// li-th L block and the ui-th U block of panel k: a dense multiply of the
// packed L rows by the packed U columns, landing in the target's packing
// through the maps of the partition's static update plan — a table lookup
// and one kernel call, no search.
func UpdateBlock(bm *supernode.BlockMatrix, k, ui, li int, ws *Workspace) {
	ws.packs.NewB()
	updateBlock(bm, bm.P.UpdatePlan(), k, ui, li, nil, ws)
}

// updateBlock is UpdateBlock for callers that run several block updates
// against one U_kj: they call ws.packs.NewB once and the packed U panel is
// shared by every update that needs it. pa is the L block packed by
// xblas.PackA, or nil to pack it for this call.
func updateBlock(bm *supernode.BlockMatrix, plan *supernode.UpdatePlan, k, ui, li int, pa []float64, ws *Workspace) {
	u := plan.Pair(k, ui, li)
	if u.Target < 0 {
		// No block (i, j) in the static structure: every contribution is an
		// exact zero (padding slots never acquire nonzero values).
		return
	}
	lb, ub, target := bm.LCol[k][li], bm.URow[k][ui], bm.Block(u.Target)
	m, kk, n := len(lb.Rows), len(lb.Cols), len(ub.Cols)
	ws.Fl.B3 += 2 * int64(m) * int64(n) * int64(kk)
	xblas.GemmUpdate(m, n, kk, lb.Data, kk, ub.Data, n, target.Data, len(target.Cols),
		xblas.Dest{Rows: u.Rows, Cols: u.Cols, Col0: u.Col0}, &ws.packs, pa)
}

// UpdatePanelPair runs the whole Update(k, j) task of Fig. 8 (pivot
// application, U scaling, then all block updates of column j below block k).
// It is the unit of work of the 1D codes.
func UpdatePanelPair(bm *supernode.BlockMatrix, k, j int, piv []int32, ws *Workspace) {
	updatePanelPair(bm, k, j, piv, packedPanel{}, ws)
}

// updatePanelPair is UpdatePanelPair multiplying panel k's L blocks from
// their packed images (the zero packedPanel packs each per call).
func updatePanelPair(bm *supernode.BlockMatrix, k, j int, piv []int32, panel packedPanel, ws *Workspace) {
	ApplyPivots(bm, k, j, piv, ws)
	ui := bm.UIndex(k, j)
	if ui < 0 {
		return
	}
	scaleU(bm, k, bm.URow[k][ui], ws)
	plan := bm.P.UpdatePlan()
	ws.packs.NewB()
	for li := range bm.LCol[k] {
		updateBlock(bm, plan, k, ui, li, panel.block(li), ws)
	}
}
