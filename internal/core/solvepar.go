package core

import (
	"sstar/internal/machine"
	"sstar/internal/xblas"
)

// Tag kinds of the distributed triangular solver.
const (
	tagFwdY uint8 = iota + 48
	tagFwdContrib
	tagFwdSwap
	tagBwdX
	tagBwdContrib
)

// SolveResult is the outcome of a distributed solve.
type SolveResult struct {
	X            []float64
	ParallelTime float64
	SentBytes    int64
	SentMessages int64
}

// SolvePar solves A x = b on the virtual machine with the factors distributed
// by the ownership rule at: block (i, j) lives at processor at(i, j), solution
// segment k at the owner of diagonal block k. The 1D column-block codes leave
// the factors at at(i, j) = owner[j] (the owner map of the schedule that
// produced the factorization), the 2D codes at (i mod pr)*pc + j mod pc.
//
// Forward sweep per panel k: the pivot interchanges exchange scalars between
// the diagonal owners involved, interleaved with the eliminations exactly as
// the sequential solve does; the diagonal owner solves against L_kk and
// multicasts the segment to the other holders of column k's L blocks (none
// under a column rule); each holder of an L block (i, k) computes its
// contribution and ships it to the diagonal owner of panel i. The backward
// sweep mirrors this through the U blocks. The returned parallel time
// demonstrates the paper's remark that the triangular solvers are much
// cheaper than the factorization.
func SolvePar(f *Factorization, nproc int, at func(i, j int) int, model machine.Model, b []float64) (*SolveResult, error) {
	sym := f.Sym
	p := sym.Partition
	bm := f.BM
	n := sym.N
	mach := machine.New(nproc, model)

	// Shared solution vector; ownership discipline follows the messages.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[sym.RowPerm[i]] = b[i]
	}
	// Static per-column structure: the holders of column k's L and U blocks
	// (the multicast targets of segment k) and uRows[k], the row blocks i of
	// its U blocks in ascending order — the transpose of p.UBlocks, built
	// once so that no processor scans BlockAt(i, k) over every i < k.
	lHolders := make([][]int, p.NB)
	uHolders := make([][]int, p.NB)
	uRows := make([][]int, p.NB)
	for k := 0; k < p.NB; k++ {
		for _, ib := range p.LBlocks[k] {
			lHolders[k] = appendUniqueInt(lHolders[k], at(int(ib), k))
		}
		for _, jb := range p.UBlocks[k] {
			j := int(jb)
			uRows[j] = append(uRows[j], k)
			uHolders[j] = appendUniqueInt(uHolders[j], at(k, j))
		}
	}

	pt, err := runMachine(mach, func(proc *machine.Proc) {
		me := proc.ID()
		// A contribution this processor applies itself is computed into its
		// scratch; one it sends travels in a slice of its own.
		var scratch []float64
		contrib := func(m, dst int) []float64 {
			if dst != me {
				return make([]float64, m)
			}
			if cap(scratch) < m {
				scratch = make([]float64, m)
			}
			return scratch[:m]
		}
		// ---- Forward sweep: L y' = P b, panel by panel. ----
		for k := 0; k < p.NB; k++ {
			start, end := p.Start[k], p.Start[k+1]
			s := end - start
			dk := at(k, k)
			// Pivot exchanges of panel k between the diagonal owners involved
			// (they precede the panel solve).
			for m := start; m < end; m++ {
				t := int(f.Piv[m])
				if t == m {
					continue
				}
				bt := p.BlockOf[t]
				dt := at(bt, bt)
				switch {
				case me == dk && me == dt:
					y[m], y[t] = y[t], y[m]
				case me == dk:
					proc.Send(dt, machine.Tag{Kind: tagFwdSwap, K: k, Aux: m}, 8, y[m])
					y[m] = proc.Recv(machine.Tag{Src: dt, Kind: tagFwdSwap, K: k, Aux: m}).(float64)
				case me == dt:
					proc.Send(dk, machine.Tag{Kind: tagFwdSwap, K: k, Aux: m}, 8, y[t])
					y[t] = proc.Recv(machine.Tag{Src: dk, Kind: tagFwdSwap, K: k, Aux: m}).(float64)
				}
			}
			// Diagonal solve against the unit-lower part, then the multicast
			// of the segment (Multicast skips the sender itself).
			if me == dk {
				d := bm.Diag[k]
				xblas.TrsvLowerUnit(s, d.Data, s, y[start:end])
				proc.ChargeFlops(0, int64(s)*int64(s-1), 0, 0)
				proc.Multicast(lHolders[k], machine.Tag{Kind: tagFwdY, K: k}, 8*s, nil)
			}
			// L-block holders: compute each contribution and deliver it
			// (locally or by message) to the target panel's diagonal owner.
			received := me == dk
			for _, lb := range bm.LCol[k] {
				if at(lb.I, k) != me {
					continue
				}
				if !received {
					proc.Recv(machine.Tag{Src: dk, Kind: tagFwdY, K: k})
					received = true
				}
				nc := len(lb.Cols)
				dst := at(lb.I, lb.I)
				vals := contrib(len(lb.Rows), dst)
				xblas.DotRows(len(lb.Rows), nc, lb.Data, nc, y[start:end], vals)
				proc.ChargeFlops(0, 2*int64(len(lb.Rows))*int64(s), 0, 0)
				if dst == me {
					for r, gr := range lb.Rows {
						y[gr] -= vals[r]
					}
				} else {
					proc.Send(dst, machine.Tag{Kind: tagFwdContrib, K: k, Aux: lb.I}, 8*len(vals), vals)
				}
			}
			// Diagonal owners of later panels: absorb the contributions of
			// panel k that target them (event order = panel order).
			for _, ib := range p.LBlocks[k] {
				i := int(ib)
				if at(i, i) != me {
					continue
				}
				src := at(i, k)
				if src == me {
					continue // applied locally above
				}
				lb := bm.BlockAt(i, k)
				vals := proc.Recv(machine.Tag{Src: src, Kind: tagFwdContrib, K: k, Aux: i}).([]float64)
				for r, gr := range lb.Rows {
					y[gr] -= vals[r]
				}
				proc.ChargeFlops(int64(len(vals)), 0, 0, 0)
			}
		}
		// ---- Backward sweep: U x = y', panels in reverse. ----
		for k := p.NB - 1; k >= 0; k-- {
			start, end := p.Start[k], p.Start[k+1]
			s := end - start
			dk := at(k, k)
			if me == dk {
				// Absorb contributions from later panels, fixed source order
				// for determinism.
				for _, jb := range p.UBlocks[k] {
					j := int(jb)
					src := at(k, j)
					if src == me {
						continue // applied locally below, when panel j ran
					}
					vals := proc.Recv(machine.Tag{Src: src, Kind: tagBwdContrib, K: j, Aux: k}).([]float64)
					for i := 0; i < s; i++ {
						y[start+i] -= vals[i]
					}
					proc.ChargeFlops(int64(s), 0, 0, 0)
				}
				// Solve against the upper-triangular diagonal part.
				d := bm.Diag[k]
				xblas.TrsvUpper(s, d.Data, s, y[start:end])
				proc.ChargeFlops(0, int64(s)*int64(s), 0, 0)
				proc.Multicast(uHolders[k], machine.Tag{Kind: tagBwdX, K: k}, 8*s, nil)
			}
			// U-block holders of block column k: compute the contributions to
			// the earlier row panels i < k, last first, and deliver them to
			// those panels' diagonal owners.
			received := me == dk
			for ri := len(uRows[k]) - 1; ri >= 0; ri-- {
				i := uRows[k][ri]
				if at(i, k) != me {
					continue
				}
				if !received {
					proc.Recv(machine.Tag{Src: dk, Kind: tagBwdX, K: k})
					received = true
				}
				ub := bm.BlockAt(i, k)
				si := p.Size(i)
				nc := len(ub.Cols)
				dst := at(i, i)
				vals := contrib(si, dst)
				xblas.DotRowsGather(si, ub.Data, nc, ub.Cols, y, vals)
				proc.ChargeFlops(0, 2*int64(si)*int64(nc), 0, 0)
				if dst == me {
					for r := 0; r < si; r++ {
						y[p.Start[i]+r] -= vals[r]
					}
				} else {
					proc.Send(dst, machine.Tag{Kind: tagBwdContrib, K: k, Aux: i}, 8*si, vals)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = y[sym.ColPerm[j]]
	}
	var bytes, msgs int64
	for i := 0; i < nproc; i++ {
		bytes += mach.Proc(i).SentBytes
		msgs += mach.Proc(i).SentMessages
	}
	return &SolveResult{X: x, ParallelTime: pt, SentBytes: bytes, SentMessages: msgs}, nil
}

func appendUniqueInt(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
