package core

import (
	"fmt"
	"math"

	"sstar/internal/machine"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// GridShape picks the processor grid p = pr x pc for the 2D codes. The paper
// sets pc/pr = 2 in practice; for processor counts where that is not exact we
// take the divisor of p closest to sqrt(p/2), preferring the smaller.
//
// A prime p > 3 has only the degenerate divisors 1 and p, and a 1 x p grid
// collapses the 2D codes into a bad 1D mapping (every block row on one
// processor row). Rather than accept that cliff, GridShape falls back to the
// best grid of p-1 processors — one processor idles, which costs 1/p of the
// machine instead of the grid's whole row dimension. pr*pc may therefore be
// p-1; callers must use the returned shape, not assume pr*pc == p. Tiny
// counts (p <= 3) keep their natural 1 x p row, where 1D and 2D coincide.
func GridShape(p int) (pr, pc int) {
	if p > 3 && smallestFactor(p) == p {
		return GridShape(p - 1)
	}
	target := math.Sqrt(float64(p) / 2)
	best, bestDist := 1, math.Abs(1-target)
	for d := 2; d <= p; d++ {
		if p%d != 0 {
			continue
		}
		if dist := math.Abs(float64(d) - target); dist < bestDist {
			best, bestDist = d, dist
		}
	}
	return best, p / best
}

// smallestFactor returns the least factor >= 2 of p (p itself when prime).
func smallestFactor(p int) int {
	for d := 2; d*d <= p; d++ {
		if p%d == 0 {
			return d
		}
	}
	return p
}

// pivCand is the per-column pivot candidate a processor reports to the owner
// of the diagonal block (Fig. 13 line 05).
type pivCand struct {
	val float64   // |value| of the local maximum, -1 when no local rows
	row int       // global row index
	sub []float64 // copy of the candidate subrow (panel width)
}

// pivChoice is the owner's broadcast (Fig. 13 line 08): the selected pivot
// row, its subrow, and the displaced subrow m for the pivot's owner to store.
type pivChoice struct {
	t    int
	rowT []float64
	oldM []float64
}

// swapPayload carries one side of a pairwise row-interchange exchange in
// ScaleSwap (Fig. 14 line 05).
type swapPayload struct{ vals []float64 }

// proc2d bundles the per-processor state of a 2D run.
type proc2d struct {
	proc   *machine.Proc
	bm     *supernode.BlockMatrix
	p      *supernode.Partition
	pr, pc int
	r, c   int
	piv    []int32
	ws     *Workspace
	prev   Flops
}

func (x *proc2d) id(r, c int) int      { return r*x.pc + c }
func (x *proc2d) rowOfBlock(b int) int { return b % x.pr }
func (x *proc2d) colOfBlock(b int) int { return b % x.pc }

func (x *proc2d) charge() {
	x.prev = chargeDelta(x.proc, x.ws, x.prev)
}

// Factorize2D runs the 2D block-cyclic parallel factorization on a pr x pc
// grid. async selects the asynchronous pipelined execution of Fig. 12
// (compute-ahead Factor, no global synchronization); otherwise a global
// barrier closes every elimination step (the synchronous code of Table 7).
func Factorize2D(a *sparse.CSR, sym *Symbolic, model machine.Model, pr, pc int, async bool, opts ...RunOption) (*ParResult, error) {
	if err := errNB(sym.Partition); err != nil {
		return nil, err
	}
	cfg := applyRunOptions(opts)
	bm, asm, err := assemble(a, sym)
	if err != nil {
		return nil, err
	}
	p := sym.Partition
	nproc := pr * pc
	mach := machine.New(nproc, model)
	if cfg.trace {
		mach.EnableTracing()
	}
	barrier := mach.NewBarrier()
	piv := make([]int32, sym.N)
	workspaces := make([]Workspace, nproc)
	pt, err := runMachine(mach, func(proc *machine.Proc) {
		x := &proc2d{
			proc: proc, bm: bm, p: p, pr: pr, pc: pc,
			r: proc.ID() / pc, c: proc.ID() % pc,
			piv: piv, ws: &workspaces[proc.ID()],
		}
		nb := p.NB
		// span records a task's trace span; its label is formatted only
		// when the run is traced (j < 0: a one-index task).
		span := func(kind string, k, j int, start float64) {
			if cfg.trace {
				proc.TraceSpan(spanLabel(kind, k, j), start)
			}
		}
		if async {
			if x.c == x.colOfBlock(0) {
				st := proc.Clock()
				x.factor2D(0)
				span("F", 0, -1, st)
			}
			for k := 0; k+1 < nb; k++ {
				st := proc.Clock()
				x.scaleSwap(k)
				span("S", k, -1, st)
				next := k + 1
				if x.c == x.colOfBlock(next) {
					st = proc.Clock()
					x.update2D(k, next)
					span("U", k, next, st)
					st = proc.Clock()
					x.factor2D(next)
					span("F", next, -1, st)
				}
				for j := k + 2; j < nb; j++ {
					if x.c == x.colOfBlock(j) {
						st = proc.Clock()
						x.update2D(k, j)
						span("U", k, j, st)
					}
				}
			}
		} else {
			for k := 0; k < nb; k++ {
				if x.c == x.colOfBlock(k) {
					st := proc.Clock()
					x.factor2D(k)
					span("F", k, -1, st)
				}
				if k+1 < nb {
					st := proc.Clock()
					x.scaleSwap(k)
					span("S", k, -1, st)
					for j := k + 1; j < nb; j++ {
						if x.c == x.colOfBlock(j) {
							st = proc.Clock()
							x.update2D(k, j)
							span("U", k, j, st)
						}
					}
				}
				barrier.Wait(proc)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var fl Flops
	var bytes, msgs int64
	for i := 0; i < nproc; i++ {
		fl.Add(workspaces[i].Fl)
		bytes += mach.Proc(i).SentBytes
		msgs += mach.Proc(i).SentMessages
	}
	lb := loadBalance2D(p, pr, pc, model)
	busy := make([]float64, nproc)
	for i := range busy {
		busy[i] = mach.Proc(i).BusySeconds()
	}
	res := &ParResult{
		Fact:         &Factorization{Sym: sym, BM: bm, Piv: piv, Fl: fl, asm: asm},
		ParallelTime: pt,
		SentBytes:    bytes,
		SentMessages: msgs,
		BufferHigh:   mach.BufferHighWater(),
		LoadBalance:  lb,
		BusySeconds:  busy,
	}
	if cfg.trace {
		res.Traces = mach.Traces()
	}
	return res, nil
}

// factor2D is the distributed Factor(k) of Fig. 13: the processors of the
// pivot column cooperate on each panel column — local maxima flow to the
// diagonal owner, the chosen pivot subrow is broadcast back down the column,
// every participant eliminates its own rows, and finally the pivot sequence
// and local L blocks are multicast along each processor row.
func (x *proc2d) factor2D(k int) {
	p, bm := x.p, x.bm
	krow, kcol := x.rowOfBlock(k), x.colOfBlock(k)
	diagProc := x.id(krow, kcol)
	isDiag := x.proc.ID() == diagProc
	start, s := p.Start[k], p.Size(k)
	d := bm.Diag[k]
	// My L blocks of this panel.
	var lblocks []*supernode.Block
	for _, lb := range bm.LCol[k] {
		if x.rowOfBlock(lb.I) == x.r {
			lblocks = append(lblocks, lb)
		}
	}
	for mc := 0; mc < s; mc++ {
		m := start + mc
		// Local maximum.
		cand := pivCand{val: -1, row: -1}
		if isDiag {
			for rr := mc; rr < s; rr++ {
				if v := math.Abs(d.Data[rr*s+mc]); v > cand.val || (v == cand.val && start+rr < cand.row) {
					cand.val, cand.row = v, start+rr
				}
			}
		}
		for _, lb := range lblocks {
			nc := len(lb.Cols)
			for rr := range lb.Rows {
				if v := math.Abs(lb.Data[rr*nc+mc]); v > cand.val || (v == cand.val && int(lb.Rows[rr]) < cand.row) {
					cand.val, cand.row = v, int(lb.Rows[rr])
				}
			}
		}
		nlocal := int64(len(lblocks))
		if isDiag {
			nlocal += int64(s - mc)
		}
		x.ws.Fl.B1 += nlocal // comparison sweep
		var choice pivChoice
		if !isDiag {
			if cand.row >= 0 {
				cand.sub = append([]float64(nil), panelRow(bm, k, cand.row)...)
			}
			x.proc.Send(diagProc, machine.Tag{Kind: tagPivCand2D, K: k, Aux: m}, 8*(s+2), cand)
			msg := x.proc.Recv(machine.Tag{Src: diagProc, Kind: tagPivBcast2D, K: k, Aux: m})
			choice = msg.(pivChoice)
			// If I own the pivot row, store the displaced subrow m.
			if x.ownsRow(choice.t, k) {
				copy(panelRow(bm, k, choice.t), choice.oldM)
				x.ws.Fl.Sw += int64(s)
			}
		} else {
			// Collect candidates from the other processors of the column.
			best := cand
			bestSub := []float64(nil) // nil means "local row, read in place"
			for rr := 0; rr < x.pr; rr++ {
				if rr == x.r {
					continue
				}
				msg := x.proc.Recv(machine.Tag{Src: x.id(rr, kcol), Kind: tagPivCand2D, K: k, Aux: m})
				c := msg.(pivCand)
				if c.val > best.val || (c.val == best.val && c.row >= 0 && (best.row < 0 || c.row < best.row)) {
					best = c
					bestSub = c.sub
				}
			}
			// FactorPanel's test: its search opens with the diagonal
			// candidate, so a NaN there fails the column, while the maxima
			// above pass over every NaN.
			diagVal := math.Abs(d.Data[mc*s+mc])
			if math.IsNaN(diagVal) || math.IsInf(best.val, 0) {
				panic(singularErr{fmt.Errorf("%w: non-finite pivot at column %d", ErrSingular, m)})
			}
			if best.row < 0 || best.val == 0 {
				panic(singularErr{fmt.Errorf("%w: zero pivot at column %d", ErrSingular, m)})
			}
			t := best.row
			x.piv[m] = int32(t)
			rowM := panelRow(bm, k, m)
			oldM := append([]float64(nil), rowM...)
			var rowT []float64
			if bestSub == nil {
				// Pivot row is local: swap in place.
				if t != m {
					swapPanelRows(bm, k, m, t, x.ws)
				}
				rowT = append([]float64(nil), rowM...)
			} else {
				// Remote pivot: its owner will store oldM; row m takes
				// the pivot subrow.
				copy(rowM, bestSub)
				rowT = append([]float64(nil), bestSub...)
				x.ws.Fl.Sw += int64(s)
			}
			choice = pivChoice{t: t, rowT: rowT, oldM: oldM}
			dsts := make([]int, 0, x.pr-1)
			for rr := 0; rr < x.pr; rr++ {
				if rr != x.r {
					dsts = append(dsts, x.id(rr, kcol))
				}
			}
			x.proc.Multicast(dsts, machine.Tag{Kind: tagPivBcast2D, K: k, Aux: m}, 8*(2*s+2), choice)
		}
		// Eliminate my rows below the pivot.
		pivVal := choice.rowT[mc]
		if isDiag {
			pivVal = d.Data[mc*s+mc]
		}
		urow := choice.rowT
		if isDiag {
			urow = d.Data[mc*s : mc*s+s]
		}
		if isDiag {
			for rr := mc + 1; rr < s; rr++ {
				row := d.Data[rr*s : rr*s+s]
				row[mc] /= pivVal
				axpyNeg(row[mc], urow[mc+1:s], row[mc+1:s])
			}
			x.ws.Fl.B1 += int64(s - mc - 1)
			x.ws.Fl.B2 += 2 * int64(s-mc-1) * int64(s-mc-1)
		}
		for _, lb := range lblocks {
			nc := len(lb.Cols)
			for rr := range lb.Rows {
				row := lb.Data[rr*nc : rr*nc+nc]
				row[mc] /= pivVal
				axpyNeg(row[mc], urow[mc+1:s], row[mc+1:nc])
			}
			x.ws.Fl.B1 += int64(len(lb.Rows))
			x.ws.Fl.B2 += 2 * int64(len(lb.Rows)) * int64(s-mc-1)
		}
		x.charge()
	}
	// Multicast the pivot sequence, the diagonal block (from its owner) and
	// my local L blocks along my processor row (Fig. 13 lines 12-14).
	if k+1 < x.p.NB && x.pc > 1 {
		bytes := 8 * s // pivot sequence
		if isDiag {
			bytes += 8 * s * s
		}
		for _, lb := range lblocks {
			bytes += 8 * len(lb.Data)
		}
		dsts := make([]int, 0, x.pc-1)
		for cc := 0; cc < x.pc; cc++ {
			if cc != x.c {
				dsts = append(dsts, x.id(x.r, cc))
			}
		}
		x.proc.Multicast(dsts, machine.Tag{Kind: tagPanelRow2D, K: k}, bytes, nil)
	}
	x.charge()
}

// ownsRow reports whether this processor holds the panel-k storage of global
// row t (t below the diagonal block).
func (x *proc2d) ownsRow(t, k int) bool {
	bt := x.p.BlockOf[t]
	if bt == k {
		return x.proc.ID() == x.id(x.rowOfBlock(k), x.colOfBlock(k))
	}
	return x.rowOfBlock(bt) == x.r && x.colOfBlock(k) == x.c && x.bm.BlockAt(bt, k) != nil
}

// axpyNeg is one row of the elimination step, ys -= alpha*xs, as FactorPanel
// defines it: product rounded before the subtraction (explicitly, so that no
// architecture fuses them), no zero multiplier skipped.
func axpyNeg(alpha float64, xs, ys []float64) {
	ys = ys[:len(xs)]
	for i, v := range xs {
		ys[i] -= float64(alpha * v)
	}
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

// scaleSwap is task ScaleSwap(k) of Fig. 14: obtain the pivot sequence (via
// the row multicast), perform the delayed row interchanges of the trailing
// block columns this processor owns (pairwise exchanges across processor
// rows when the two rows live apart), scale the U row by the diagonal owner
// row, and multicast the scaled U blocks down each processor column.
func (x *proc2d) scaleSwap(k int) {
	p, bm := x.p, x.bm
	krow, kcol := x.rowOfBlock(k), x.colOfBlock(k)
	if x.c != kcol && x.pc > 1 {
		x.proc.Recv(machine.Tag{Src: x.id(x.r, kcol), Kind: tagPanelRow2D, K: k})
	}
	// My trailing block columns with U structure in row k.
	var myJs []int
	for _, jb := range p.UBlocks[k] {
		if x.colOfBlock(int(jb)) == x.c {
			myJs = append(myJs, int(jb))
		}
	}
	// Delayed row interchanges.
	for m := p.Start[k]; m < p.Start[k+1]; m++ {
		t := int(x.piv[m])
		if t == m {
			continue
		}
		bt := p.BlockOf[t]
		trow := x.rowOfBlock(bt)
		if bt == k {
			trow = krow
		}
		switch {
		case x.r == krow && trow == krow:
			for _, j := range myJs {
				SwapRowsInBlockColumn(bm, j, m, t, x.ws)
			}
		case x.r == krow:
			x.exchangeSwap(k, m, t, myJs, m, x.id(trow, x.c))
		case x.r == trow:
			x.exchangeSwap(k, m, t, myJs, t, x.id(krow, x.c))
		}
	}
	x.charge()
	// Scaling of the U row and the column multicast.
	if x.r == krow {
		bytes := 0
		for _, j := range myJs {
			ScaleU(bm, k, j, x.ws)
			bytes += bm.BlockAt(k, j).Bytes()
		}
		x.charge()
		if x.pr > 1 && len(myJs) > 0 {
			dsts := make([]int, 0, x.pr-1)
			for rr := 0; rr < x.pr; rr++ {
				if rr != x.r {
					dsts = append(dsts, x.id(rr, x.c))
				}
			}
			x.proc.Multicast(dsts, machine.Tag{Kind: tagPanelCol2D, K: k}, bytes, nil)
		}
	} else if len(myJs) > 0 && x.pr > 1 {
		x.proc.Recv(machine.Tag{Src: x.id(krow, x.c), Kind: tagPanelCol2D, K: k})
	}
}

// exchangeSwap performs one side of the pairwise interchange of rows m and t
// across this processor's block columns myJs: it ships the local side's
// values at the commonly-stored columns to the partner and overwrites them
// with the partner's. mine selects which of the two rows is local.
func (x *proc2d) exchangeSwap(k, m, t int, myJs []int, mine int, partner int) {
	var vals []float64
	var slots []rowSlot
	for _, j := range myJs {
		cs := commonSlots(x.bm, j, m, t)
		for _, slot := range cs {
			var local rowSlot
			if mine == m {
				local = slot.a
			} else {
				local = slot.b
			}
			vals = append(vals, local.data[local.pos])
			slots = append(slots, local)
		}
	}
	tag := machine.Tag{Kind: tagSwap2D, K: k, Aux: m}
	x.proc.Send(partner, tag, 8*len(vals), swapPayload{vals: vals})
	in := x.proc.Recv(machine.Tag{Src: partner, Kind: tagSwap2D, K: k, Aux: m}).(swapPayload)
	if len(in.vals) != len(slots) {
		panic(fmt.Sprintf("core: swap exchange size mismatch %d vs %d", len(in.vals), len(slots)))
	}
	for i, slot := range slots {
		slot.data[slot.pos] = in.vals[i]
	}
	x.ws.Fl.Sw += int64(len(slots))
}

// rowSlot addresses one storage cell of a packed block row.
type rowSlot struct {
	data []float64
	pos  int
}

type slotPair struct{ a, b rowSlot }

// commonSlots lists, in ascending column order, the storage cells of global
// rows m and t within block column j at the columns both rows store (the
// interchange set; values at asymmetric slots are structural zeros).
func commonSlots(bm *supernode.BlockMatrix, j, m, t int) []slotPair {
	p := bm.P
	blkM := bm.BlockAt(p.BlockOf[m], j)
	blkT := bm.BlockAt(p.BlockOf[t], j)
	if blkM == nil || blkT == nil {
		return nil
	}
	rm := blkM.RowSlice(m)
	rt := blkT.RowSlice(t)
	if rm == nil || rt == nil {
		return nil
	}
	var out []slotPair
	c1, c2 := blkM.Cols, blkT.Cols
	i, q := 0, 0
	for i < len(c1) && q < len(c2) {
		switch {
		case c1[i] < c2[q]:
			i++
		case c1[i] > c2[q]:
			q++
		default:
			out = append(out, slotPair{a: rowSlot{rm, i}, b: rowSlot{rt, q}})
			i++
			q++
		}
	}
	return out
}

// spanLabel names a 2D task's trace span: kind(k), or kind(k,j) when j >= 0.
func spanLabel(kind string, k, j int) string {
	if j < 0 {
		return fmt.Sprintf("%s(%d)", kind, k)
	}
	return fmt.Sprintf("%s(%d,%d)", kind, k, j)
}

// update2D is task Update_2D(k, j) of Fig. 15: this processor updates the
// blocks A_ij it owns using L_ik (from the row multicast) and U_kj (from the
// column multicast).
func (x *proc2d) update2D(k, j int) {
	bm := x.bm
	ui := bm.UIndex(k, j)
	if ui < 0 {
		return
	}
	plan := x.p.UpdatePlan()
	x.ws.packs.NewB()
	for li, lb := range bm.LCol[k] {
		if x.rowOfBlock(lb.I) != x.r {
			continue
		}
		updateBlock(bm, plan, k, ui, li, nil, x.ws)
	}
	x.charge()
	x.proc.ChargeTask()
}

// loadBalance2D computes the Fig. 18 load-balance factor of the 2D mapping:
// the update work of target block (i, j) belongs to processor
// (i mod pr, j mod pc). Every sum runs in index order (panel, then U block,
// then L block ascending), so the result is a pure function of its arguments
// down to the last bit.
func loadBalance2D(p *supernode.Partition, pr, pc int, model machine.Model) float64 {
	per := make([]float64, pr*pc)
	total := 0.0
	type rowGroup struct{ block, rows int }
	var groups []rowGroup
	for k := 0; k < p.NB; k++ {
		s := p.Size(k)
		// Group L rows by block; LRows is sorted, so the groups come out in
		// ascending block order.
		groups = groups[:0]
		for _, r := range p.LRows[k] {
			if b := p.BlockOf[r]; len(groups) > 0 && groups[len(groups)-1].block == b {
				groups[len(groups)-1].rows++
			} else {
				groups = append(groups, rowGroup{block: b, rows: 1})
			}
		}
		for _, jb := range p.UBlocks[k] {
			j := int(jb)
			nc := 0
			for _, c := range p.UCols[k] {
				if p.BlockOf[c] == j {
					nc++
				}
			}
			for _, g := range groups {
				w := model.ComputeSeconds(0, 0, 2*int64(g.rows)*int64(nc)*int64(s), 0)
				per[(g.block%pr)*pc+j%pc] += w
				total += w
			}
		}
	}
	max := 0.0
	for _, v := range per {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 1
	}
	return total / (float64(len(per)) * max)
}
