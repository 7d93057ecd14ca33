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

// FactorPanel performs task Factor(k) of Fig. 7 sequentially on the whole
// block column k: for each column of the panel it searches the pivot among
// every storage row of the column (diagonal block rows plus all L blocks),
// swaps the two panel rows, scales the subcolumn and rank-1-updates the rest
// of the panel (the BLAS-1/BLAS-2 part of the algorithm). piv[m] receives the
// global storage row chosen as pivot for column m.
//
// tol in (0,1] selects threshold pivoting: the diagonal candidate wins when
// its magnitude reaches tol times the column maximum; tol = 1 is classical
// partial pivoting.
func FactorPanel(bm *supernode.BlockMatrix, k int, piv []int32, tol float64, ws *Workspace) error {
	p := bm.P
	d := bm.Diag[k]
	s := p.Size(k)
	lblocks := bm.LCol[k]
	start := p.Start[k]
	for mc := 0; mc < s; mc++ {
		m := start + mc
		// Pivot search down column m.
		diagVal := math.Abs(d.Data[mc*s+mc])
		bestVal := diagVal
		bestRow := m
		for r := mc + 1; r < s; r++ {
			if v := math.Abs(d.Data[r*s+mc]); v > bestVal {
				bestVal, bestRow = v, start+r
			}
		}
		for _, lb := range lblocks {
			nc := len(lb.Cols)
			for r := range lb.Rows {
				if v := math.Abs(lb.Data[r*nc+mc]); v > bestVal {
					bestVal, bestRow = v, int(lb.Rows[r])
				}
			}
		}
		if bestVal == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, m)
		}
		if diagVal >= tol*bestVal {
			bestRow = m // threshold pivoting: keep the diagonal
		}
		piv[m] = int32(bestRow)
		if bestRow != m {
			swapPanelRows(bm, k, m, bestRow, ws)
		}
		// Scale the subcolumn and update the remaining panel columns.
		pivVal := d.Data[mc*s+mc]
		urow := d.Data[mc*s+mc+1 : mc*s+s] // pivot row, panel columns right of m
		for r := mc + 1; r < s; r++ {
			row := d.Data[r*s : r*s+s]
			row[mc] /= pivVal
			xblas.Axpy(-row[mc], urow, row[mc+1:s])
		}
		ws.Fl.B1 += int64(s - mc - 1)
		ws.Fl.B2 += 2 * int64(s-mc-1) * int64(s-mc-1)
		for _, lb := range lblocks {
			nc := len(lb.Cols)
			for r := range lb.Rows {
				row := lb.Data[r*nc : r*nc+nc]
				row[mc] /= pivVal
				xblas.Axpy(-row[mc], urow, row[mc+1:nc])
			}
			ws.Fl.B1 += int64(len(lb.Rows))
			ws.Fl.B2 += 2 * int64(len(lb.Rows)) * int64(s-mc-1)
		}
	}
	return nil
}

// swapPanelRows exchanges the full panel-k rows of global rows m and t
// (both must have storage in block column k; t may sit in the diagonal block
// or in any L block).
func swapPanelRows(bm *supernode.BlockMatrix, k, m, t int, ws *Workspace) {
	a := panelRow(bm, k, m)
	b := panelRow(bm, k, t)
	for i := range a {
		a[i], b[i] = b[i], a[i]
	}
	ws.Fl.Sw += int64(len(a))
}

// panelRow returns the storage slice of global row r within block column k.
func panelRow(bm *supernode.BlockMatrix, k, r int) []float64 {
	p := bm.P
	rb := p.BlockOf[r]
	if rb == k {
		return bm.Diag[k].RowSlice(r)
	}
	blk := bm.BlockAt(rb, k)
	if blk == nil {
		panic(fmt.Sprintf("core: row %d has no storage in block column %d", r, k))
	}
	rs := blk.RowSlice(r)
	if rs == nil {
		panic(fmt.Sprintf("core: row %d missing from block (%d,%d)", r, blk.I, blk.J))
	}
	return rs
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
	updateBlock(bm, bm.P.UpdatePlan(), k, ui, li, ws)
}

// updateBlock is UpdateBlock for callers that run several block updates
// against one U_kj: they call ws.packs.NewB once and the packed U panel is
// shared by every update that needs it.
func updateBlock(bm *supernode.BlockMatrix, plan *supernode.UpdatePlan, k, ui, li int, ws *Workspace) {
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
		xblas.Dest{Rows: u.Rows, Cols: u.Cols, Col0: u.Col0}, &ws.packs)
}

// UpdatePanelPair runs the whole Update(k, j) task of Fig. 8 (pivot
// application, U scaling, then all block updates of column j below block k).
// It is the unit of work of the 1D codes.
func UpdatePanelPair(bm *supernode.BlockMatrix, k, j int, piv []int32, ws *Workspace) {
	ApplyPivots(bm, k, j, piv, ws)
	ui := bm.UIndex(k, j)
	if ui < 0 {
		return
	}
	scaleU(bm, k, bm.URow[k][ui], ws)
	plan := bm.P.UpdatePlan()
	ws.packs.NewB()
	for li := range bm.LCol[k] {
		updateBlock(bm, plan, k, ui, li, ws)
	}
}
