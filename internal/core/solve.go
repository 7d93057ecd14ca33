package core

import (
	"fmt"
	"math"

	"sstar/internal/xblas"
)

// solveManyPanel is the RHS panel width of the blocked SolveMany: wide
// enough to keep the GEMM micro-kernel busy, narrow enough that the
// row-major working panel (n × solveManyPanel) stays cache-friendly.
const solveManyPanel = 32

// SolveMany solves A X = B for nrhs right-hand sides stored column-major in
// b (b[j*n:(j+1)*n] is the j-th column). The right-hand sides are processed
// in panels of up to solveManyPanel columns through the packed BLAS-3 path:
// each factor block is applied to the whole panel at once (TRSM on the
// diagonal blocks, GEMM/GemmScatter for the off-diagonal couplings), so the
// factor traversal and the kernel-launch overheads amortize across columns
// instead of re-running the BLAS-2 single-vector sweep per RHS.
func (f *Factorization) SolveMany(b []float64, nrhs int) ([]float64, error) {
	n := f.Sym.N
	if len(b) != n*nrhs {
		return nil, fmt.Errorf("core: SolveMany rhs length %d, want %d", len(b), n*nrhs)
	}
	if nrhs == 1 {
		// Single column: the vector sweep has less overhead (and keeps
		// SolveMany(b, 1) bit-identical to Solve(b)).
		x := make([]float64, n)
		copy(x, f.Solve(b))
		return x, nil
	}
	x := make([]float64, n*nrhs)
	ws := newSolvePanelScratch(f, min(nrhs, solveManyPanel))
	for j0 := 0; j0 < nrhs; j0 += solveManyPanel {
		w := min(solveManyPanel, nrhs-j0)
		f.solvePanel(b[j0*n:(j0+w)*n], x[j0*n:(j0+w)*n], w, ws)
	}
	return x, nil
}

// solvePanelScratch holds the reusable buffers of one SolveMany call: the
// row-major working panel, the gather buffer of the backward sweep, and the
// scatter maps of the forward GEMM updates.
type solvePanelScratch struct {
	y        []float64 // n × w working panel, row-major
	gat      []float64 // gathered U-block rows, maxUCols × w
	rowPos   []int     // L-block row scatter map
	colIdent []int     // identity column map (the panel is dense in RHS)
}

func newSolvePanelScratch(f *Factorization, w int) *solvePanelScratch {
	maxLRows, maxUCols := 0, 0
	for _, row := range f.BM.URow {
		for _, ub := range row {
			maxUCols = max(maxUCols, len(ub.Cols))
		}
	}
	for _, col := range f.BM.LCol {
		for _, lb := range col {
			maxLRows = max(maxLRows, len(lb.Rows))
		}
	}
	ws := &solvePanelScratch{
		y:        make([]float64, f.Sym.N*w),
		gat:      make([]float64, maxUCols*w),
		rowPos:   make([]int, maxLRows),
		colIdent: make([]int, w),
	}
	for q := range ws.colIdent {
		ws.colIdent[q] = q
	}
	return ws
}

// solvePanel runs the blocked forward/backward sweeps on one w-wide RHS
// panel: bpanel and xpanel are column-major n × w (slices of the caller's B
// and X), the working panel is row-major so every panel operation is a
// contiguous BLAS-3 call.
func (f *Factorization) solvePanel(bpanel, xpanel []float64, w int, ws *solvePanelScratch) {
	n := f.Sym.N
	p := f.Sym.Partition
	bm := f.BM
	y := ws.y[:n*w]
	// Transpose in, applying the analyze-phase row permutation: row i of A
	// is row RowPerm[i] of the working matrix.
	for i := 0; i < n; i++ {
		dst := y[f.Sym.RowPerm[i]*w:]
		for q := 0; q < w; q++ {
			dst[q] = bpanel[q*n+i]
		}
	}
	// Forward sweep: replay the panel interchanges on all w columns, solve
	// against the unit-lower diagonal block, then eliminate the L blocks
	// below through the fused scatter GEMM (the L rows land on scattered
	// global rows; the RHS dimension is dense, hence the identity map).
	cols := ws.colIdent[:w]
	for k := 0; k < p.NB; k++ {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		for m := start; m < end; m++ {
			if t := int(f.Piv[m]); t != m {
				a, b := y[m*w:m*w+w], y[t*w:t*w+w]
				for q := range a {
					a[q], b[q] = b[q], a[q]
				}
			}
		}
		xblas.TrsmLowerUnitLeft(s, w, bm.Diag[k].Data, s, y[start*w:], w)
		for _, lb := range bm.LCol[k] {
			m := len(lb.Rows)
			rp := ws.rowPos[:m]
			for r, gr := range lb.Rows {
				rp[r] = int(gr)
			}
			xblas.GemmScatter(m, w, s, lb.Data, len(lb.Cols), y[start*w:], w, y, w, rp, cols)
		}
	}
	// Backward sweep: gather each U block's solved rows into a contiguous
	// panel, subtract with one GEMM, then the upper-triangular TRSM on the
	// diagonal block.
	for k := p.NB - 1; k >= 0; k-- {
		start := p.Start[k]
		s := p.Start[k+1] - start
		for _, ub := range bm.URow[k] {
			nc := len(ub.Cols)
			g := ws.gat[:nc*w]
			for t, c := range ub.Cols {
				copy(g[t*w:t*w+w], y[int(c)*w:int(c)*w+w])
			}
			xblas.Gemm(s, w, nc, ub.Data, nc, g, w, y[start*w:], w)
		}
		xblas.TrsmUpperLeft(s, w, bm.Diag[k].Data, s, y[start*w:], w)
	}
	// Transpose out, undoing the column permutation: working column
	// ColPerm[j] is variable j.
	for j := 0; j < n; j++ {
		src := y[f.Sym.ColPerm[j]*w:]
		for q := 0; q < w; q++ {
			xpanel[q*n+j] = src[q]
		}
	}
}

// SolveTranspose solves Aᵀ x = b using the same factors.
//
// The numeric phase computes U = M · (P_c A_w) with M the composition of
// per-panel interchanges and eliminations (A_w the ordered working matrix),
// so Aᵀ x = b unravels as: solve Uᵀ w = b' (a forward sweep over the U rows
// transposed), then apply Mᵀ = P_1ᵀ L_1⁻ᵀ … P_NBᵀ L_NB⁻ᵀ from the last panel
// backwards, undoing each panel's elimination (transposed) and then its
// interchanges in reverse order.
func (f *Factorization) SolveTranspose(b []float64) []float64 {
	n := f.Sym.N
	p := f.Sym.Partition
	bm := f.BM
	y := make([]float64, n)
	// Aᵀ's row space is A's column space: apply the column permutation.
	for j := 0; j < n; j++ {
		y[f.Sym.ColPerm[j]] = b[j]
	}
	// Forward: solve Uᵀ w = y, panel by panel. Row-block k of U couples
	// panel k (diagonal) with later column blocks; transposed, panel k's
	// result feeds forward into those blocks' positions.
	for k := 0; k < p.NB; k++ {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		d := bm.Diag[k]
		// wₖ = U_kkᵀ⁻¹ yₖ : lower-triangular solve with the transpose of
		// the upper part of the diagonal block.
		for i := 0; i < s; i++ {
			sum := y[start+i]
			for r := 0; r < i; r++ {
				sum -= float64(d.Data[r*s+i] * y[start+r])
			}
			y[start+i] = sum / d.Data[i*s+i]
		}
		// Propagate through the transposed U blocks of row k.
		for _, ub := range bm.URow[k] {
			nc := len(ub.Cols)
			for q, c := range ub.Cols {
				sum := 0.0
				for r := 0; r < s; r++ {
					sum += float64(ub.Data[r*nc+q] * y[start+r])
				}
				y[c] -= sum
			}
		}
	}
	// Backward: apply Mᵀ from panel NB-1 down to 0. For each panel:
	// zₚ := L_dᵀ⁻¹ (zₚ − L_bᵀ z_below), then undo the interchanges in
	// reverse column order.
	for k := p.NB - 1; k >= 0; k-- {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		// zₚ -= L_bᵀ z_below (the L blocks of column k, transposed).
		for _, lb := range bm.LCol[k] {
			nc := len(lb.Cols)
			for r, gr := range lb.Rows {
				zr := y[gr]
				if zr == 0 {
					continue
				}
				row := lb.Data[r*nc : (r+1)*nc]
				for q := range row {
					y[start+q] -= float64(row[q] * zr)
				}
			}
		}
		// zₚ := L_dᵀ⁻¹ zₚ with the unit-lower part of the diagonal block
		// transposed (a unit *upper* triangular solve).
		d := bm.Diag[k]
		for i := s - 1; i >= 0; i-- {
			sum := y[start+i]
			for r := i + 1; r < s; r++ {
				sum -= float64(d.Data[r*s+i] * y[start+r])
			}
			y[start+i] = sum
		}
		// Undo the panel's interchanges in reverse order.
		for m := end - 1; m >= start; m-- {
			if t := int(f.Piv[m]); t != m {
				y[m], y[t] = y[t], y[m]
			}
		}
	}
	// Undo the row permutation: Aᵀ's column space is A's row space.
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = y[f.Sym.RowPerm[i]]
	}
	return x
}

// Stats summarizes a completed numeric factorization.
type FactStats struct {
	// Interchanges counts the columns whose pivot differed from the
	// diagonal.
	Interchanges int
	// GrowthFactor is max |U| / max |A_w|, the classical GEPP stability
	// monitor (small is good; 2^k worst case).
	GrowthFactor float64
	// Blas3Fraction is the share of floating-point work executed by the
	// BLAS-3 kernels (the paper measures ~0.64 for S*).
	Blas3Fraction float64
	// StorageEntries is the allocated factor storage.
	StorageEntries int64
}

// Stats computes summary statistics of the factorization. maxA must be the
// largest absolute value of the *original* matrix (callers have it from
// assembly; pass 0 to report a growth factor of 0).
func (f *Factorization) Stats(maxA float64) FactStats {
	st := FactStats{StorageEntries: f.BM.StorageEntries()}
	for m, t := range f.Piv {
		if int(t) != m {
			st.Interchanges++
		}
	}
	if total := f.Fl.Total(); total > 0 {
		st.Blas3Fraction = float64(f.Fl.B3) / float64(total)
	}
	if maxA > 0 {
		maxU := 0.0
		p := f.Sym.Partition
		for k := 0; k < p.NB; k++ {
			d := f.BM.Diag[k]
			s := p.Size(k)
			for i := 0; i < s; i++ {
				for j := i; j < s; j++ {
					maxU = math.Max(maxU, math.Abs(d.Data[i*s+j]))
				}
			}
			for _, ub := range f.BM.URow[k] {
				for _, v := range ub.Data {
					maxU = math.Max(maxU, math.Abs(v))
				}
			}
		}
		st.GrowthFactor = maxU / maxA
	}
	return st
}

// MaxAbs returns the largest absolute value of the matrix — the growth-factor
// reference.
func MaxAbs(vals []float64) float64 {
	m := 0.0
	for _, v := range vals {
		m = math.Max(m, math.Abs(v))
	}
	return m
}
