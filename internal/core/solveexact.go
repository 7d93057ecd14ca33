package core

import "fmt"

// SolveManyExact solves A X = B for nrhs right-hand sides stored column-major
// in b, with a guarantee the blocked SolveMany does not make: every solution
// column is bitwise identical to Solve on that column alone.
//
// SolveMany reaches the BLAS-3 kernels by reorganizing the sweeps into panel
// TRSM/GEMM calls, whose register-tiled accumulation order differs from the
// single-vector sweep — numerically equivalent, not bit-equal. SolveManyExact
// instead replays Solve's exact per-column operation sequence on all columns
// in lockstep: the loop structure (panels, interchanges, L/U blocks, dot
// accumulation order) is copied from Solve with the column dimension added as
// the innermost stride-1 loop. Per column the floating-point operations are
// the same ops in the same order, hence the same bits; across columns the
// factor blocks are streamed through the cache once per batch instead of once
// per right-hand side, which is where the batch throughput comes from (the
// triangular solves are memory-bound).
//
// This is the kernel behind the server's solve coalescing: merging concurrent
// single-RHS solve requests into one batched call must be invisible to every
// client, bit for bit.
func (f *Factorization) SolveManyExact(b []float64, nrhs int) ([]float64, error) {
	n := f.Sym.N
	if nrhs < 1 {
		return nil, fmt.Errorf("core: SolveManyExact needs nrhs >= 1, got %d", nrhs)
	}
	if len(b) != n*nrhs {
		return nil, fmt.Errorf("core: SolveManyExact rhs length %d, want %d", len(b), n*nrhs)
	}
	if nrhs == 1 {
		x := make([]float64, n)
		copy(x, f.Solve(b))
		return x, nil
	}
	p := f.Sym.Partition
	bm := f.BM
	w := nrhs
	// Row-major n × w working panel; row i holds all w columns' entry i, so
	// the innermost per-column loops below run stride-1.
	y := make([]float64, n*w)
	for i := 0; i < n; i++ {
		dst := y[f.Sym.RowPerm[i]*w : f.Sym.RowPerm[i]*w+w]
		for q := 0; q < w; q++ {
			dst[q] = b[q*n+i]
		}
	}
	acc := make([]float64, w)
	// Forward sweep — Solve's loop with the column dimension innermost.
	for k := 0; k < p.NB; k++ {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		for m := start; m < end; m++ {
			if t := int(f.Piv[m]); t != m {
				ym, yt := y[m*w:m*w+w], y[t*w:t*w+w]
				for q := range ym {
					ym[q], yt[q] = yt[q], ym[q]
				}
			}
		}
		d := bm.Diag[k]
		// TrsvLowerUnit on the panel: b[i] -= L[i][p]*b[p] in p order.
		for i := 1; i < s; i++ {
			row := d.Data[i*s : i*s+i]
			yi := y[(start+i)*w : (start+i)*w+w]
			copy(acc, yi)
			for pc, v := range row {
				yp := y[(start+pc)*w : (start+pc)*w+w]
				for q := 0; q < w; q++ {
					acc[q] -= float64(v * yp[q])
				}
			}
			copy(yi, acc)
		}
		// L-block elimination: y[gr] -= Dot(row, y[start:end]), dot
		// accumulated left to right exactly like xblas.Dot.
		for _, lb := range bm.LCol[k] {
			nc := len(lb.Cols)
			for r, gr := range lb.Rows {
				row := lb.Data[r*nc : (r+1)*nc]
				for q := 0; q < w; q++ {
					acc[q] = 0
				}
				for pc, v := range row {
					yp := y[(start+pc)*w : (start+pc)*w+w]
					for q := 0; q < w; q++ {
						acc[q] += float64(v * yp[q])
					}
				}
				dst := y[int(gr)*w : int(gr)*w+w]
				for q := 0; q < w; q++ {
					dst[q] -= acc[q]
				}
			}
		}
	}
	// Backward sweep.
	for k := p.NB - 1; k >= 0; k-- {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		for _, ub := range bm.URow[k] {
			nc := len(ub.Cols)
			for r := 0; r < s; r++ {
				row := ub.Data[r*nc : (r+1)*nc]
				for q := 0; q < w; q++ {
					acc[q] = 0
				}
				for t, c := range ub.Cols {
					yc := y[int(c)*w : int(c)*w+w]
					v := row[t]
					for q := 0; q < w; q++ {
						acc[q] += float64(v * yc[q])
					}
				}
				dst := y[(start+r)*w : (start+r)*w+w]
				for q := 0; q < w; q++ {
					dst[q] -= acc[q]
				}
			}
		}
		// TrsvUpper on the panel: b[i] = (b[i] - Σ U[i][p]*b[p]) / U[i][i].
		d := bm.Diag[k]
		for i := s - 1; i >= 0; i-- {
			row := d.Data[i*s : i*s+s]
			yi := y[(start+i)*w : (start+i)*w+w]
			copy(acc, yi)
			for pc := i + 1; pc < s; pc++ {
				v := row[pc]
				yp := y[(start+pc)*w : (start+pc)*w+w]
				for q := 0; q < w; q++ {
					acc[q] -= float64(v * yp[q])
				}
			}
			div := row[i]
			for q := 0; q < w; q++ {
				yi[q] = acc[q] / div
			}
		}
	}
	// Transpose out, undoing the column permutation.
	x := make([]float64, n*w)
	for j := 0; j < n; j++ {
		src := y[f.Sym.ColPerm[j]*w : f.Sym.ColPerm[j]*w+w]
		for q := 0; q < w; q++ {
			x[q*n+j] = src[q]
		}
	}
	return x, nil
}
