package core_test

import (
	"fmt"
	"math"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// The numeric phase executes a static update plan (supernode.UpdatePlan)
// through one mapped-GEMM engine. These tests keep what it replaced as the
// reference: the search-based block update, which finds the target block and
// derives both index maps by binary search on every call and multiplies with
// the naive FMA triple loop (ascending l, one fold per element — the engine's
// rounding contract). Every executor must reproduce the reference factors bit
// for bit.

// refUpdateBlock performs A_ij -= L_ik * U_kj by search.
func refUpdateBlock(bm *supernode.BlockMatrix, lb, ub *supernode.Block) {
	target := bm.BlockAt(lb.I, ub.J)
	if target == nil {
		return
	}
	kk, n, ldc := len(lb.Cols), len(ub.Cols), len(target.Cols)
	for r, gr := range lb.Rows {
		tr := target.RowPos(int(gr))
		if tr < 0 {
			continue
		}
		for q, gc := range ub.Cols {
			tc := target.ColPos(int(gc))
			if tc < 0 {
				continue
			}
			acc := 0.0
			for l := 0; l < kk; l++ {
				acc = math.FMA(lb.Data[r*kk+l], ub.Data[l*n+q], acc)
			}
			target.Data[tr*ldc+tc] -= acc
		}
	}
}

// refFactorize is FactorizeSeq with the search-based update, over storage
// filled the pre-plan way: permute A, then scatter entry by entry.
func refFactorize(t testing.TB, a *sparse.CSR, sym *core.Symbolic) (*supernode.BlockMatrix, []int32) {
	t.Helper()
	p := sym.Partition
	bm := supernode.NewBlockMatrix(p, sym.PermutedMatrix(a))
	piv := make([]int32, sym.N)
	ws := new(core.Workspace)
	for k := 0; k < p.NB; k++ {
		if err := core.FactorPanel(bm, k, piv, ws); err != nil {
			t.Fatalf("reference factorization: %v", err)
		}
		for _, jb := range p.UBlocks[k] {
			j := int(jb)
			core.ApplyPivots(bm, k, j, piv, ws)
			core.ScaleU(bm, k, j, ws)
			ub := bm.BlockAt(k, j)
			for _, lb := range bm.LCol[k] {
				refUpdateBlock(bm, lb, ub)
			}
		}
	}
	return bm, piv
}

func sameFactors(t *testing.T, what string, f *core.Factorization, wantBM *supernode.BlockMatrix, wantPiv []int32) {
	t.Helper()
	got, want := f.BM.Values(), wantBM.Values()
	if len(got) != len(want) {
		t.Fatalf("%s: %d factor entries, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: factor entry %d is %x, reference %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	for m := range wantPiv {
		if f.Piv[m] != wantPiv[m] {
			t.Fatalf("%s: pivot %d is row %d, reference %d", what, m, f.Piv[m], wantPiv[m])
		}
	}
}

// checkExecutors compares every executor's factors with the reference.
func checkExecutors(t *testing.T, a *sparse.CSR, sym *core.Symbolic) {
	t.Helper()
	wantBM, wantPiv := refFactorize(t, a, sym)
	for _, w := range []int{1, 2, 4} {
		f, err := core.FactorizeHost(a, sym, w)
		if err != nil {
			t.Fatalf("host workers=%d: %v", w, err)
		}
		sameFactors(t, fmt.Sprintf("host workers=%d", w), f, wantBM, wantPiv)
	}
	model := machine.T3E()
	r1, err := core.Factorize1D(a, sym, model, core.ScheduleCA(sym, 4))
	if err != nil {
		t.Fatalf("1d-ca: %v", err)
	}
	sameFactors(t, "1d-ca", r1.Fact, wantBM, wantPiv)
	if r1, err = core.Factorize1D(a, sym, model, core.ScheduleRAPID(sym, 4, model)); err != nil {
		t.Fatalf("1d-rapid: %v", err)
	}
	sameFactors(t, "1d-rapid", r1.Fact, wantBM, wantPiv)
	r2, err := core.Factorize2D(a, sym, model, 2, 2, true)
	if err != nil {
		t.Fatalf("2d: %v", err)
	}
	sameFactors(t, "2d", r2.Fact, wantBM, wantPiv)
}

// TestPlanMatchesSearchOnSuite: all 14 suite matrices, default (adaptive)
// blocking, every executor.
func TestPlanMatchesSearchOnSuite(t *testing.T) {
	scale := 0.5
	if testing.Short() {
		scale = 0.2
	}
	for _, spec := range bench.Suite() {
		t.Run(spec.Name, func(t *testing.T) {
			a := spec.Gen(scale)
			checkExecutors(t, a, core.Analyze(a, core.AnalyzeOptions{}))
		})
	}
}

// TestPlanMatchesSearchWithPadding: random patterns under aggressive
// amalgamation, where the plan's special cases actually occur — (L, U) pairs
// with no target block, and product rows or columns the target does not
// store. The test insists that both were exercised.
func TestPlanMatchesSearchWithPadding(t *testing.T) {
	var none, dropped int
	for seed := int64(1); seed <= 6; seed++ {
		a := sparse.RandomSparse(150+20*int(seed), 3, seed)
		for _, o := range []supernode.Options{
			{MaxBlock: 6, Amalgamate: 8},
			{MaxBlock: 16, Amalgamate: 12},
			{Amalgamate: 6}, // adaptive widths, pinned r
		} {
			sym := core.Analyze(a, core.AnalyzeOptions{Supernode: o})
			n, d := planSpecialCases(sym.Partition)
			none, dropped = none+n, dropped+d
			checkExecutors(t, a, sym)
		}
	}
	if none == 0 || dropped == 0 {
		t.Fatalf("padding cases not exercised: %d pairs without target, %d with dropped rows/columns", none, dropped)
	}
}

// planSpecialCases counts the plan's pairs without a target block and the
// pairs whose maps drop at least one product row or column.
func planSpecialCases(p *supernode.Partition) (none, dropped int) {
	plan := p.UpdatePlan()
	bm := supernode.NewEmptyBlockMatrix(p)
	for k := 0; k < p.NB; k++ {
		for ui := range bm.URow[k] {
			for li := range bm.LCol[k] {
				u := plan.Pair(k, ui, li)
				if u.Target < 0 {
					none++
					continue
				}
				for _, m := range [][]int32{u.Rows, u.Cols} {
					for _, x := range m {
						if x < 0 {
							dropped++
							break
						}
					}
				}
			}
		}
	}
	return none, dropped
}

// TestRefactorizeMatchesFresh: N numeric-only refactorizations on one
// Factorization, cycling through value sets (ping-ponging its two slabs),
// each equal bit for bit to a fresh factorization of the same values — on the
// sequential and the task-DAG executor.
func TestRefactorizeMatchesFresh(t *testing.T) {
	a := bench.ByName("orsreg1").Gen(0.4)
	sym := core.Analyze(a, core.AnalyzeOptions{})
	sets := make([]*sparse.CSR, 3)
	for s := range sets {
		b := a.Clone()
		for q := range b.Val {
			b.Val[q] *= 1 + 0.1*math.Sin(float64(7*s+q))
		}
		sets[s] = b
	}
	for _, workers := range []int{1, 3} {
		f, err := core.FactorizeHost(a, sym, workers)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 7; round++ {
			b := sets[round%len(sets)]
			if err := f.Refactorize(b, workers, nil); err != nil {
				t.Fatalf("workers=%d round %d: %v", workers, round, err)
			}
			fresh, err := core.FactorizeSeq(b, sym)
			if err != nil {
				t.Fatal(err)
			}
			sameFactors(t, fmt.Sprintf("workers=%d round %d", workers, round), f, fresh.BM, fresh.Piv)
			if f.Fl != fresh.Fl {
				t.Fatalf("workers=%d round %d: flop tally %+v, fresh %+v", workers, round, f.Fl, fresh.Fl)
			}
		}
	}
}
