package supernode

import (
	"math/rand"
	"slices"
	"testing"

	"sstar/internal/sparse"
	"sstar/internal/symbolic"
)

// randomPartitions yields partitions of random patterns under blockings that
// range from strict single-column supernodes to aggressive amalgamation (the
// regime where (L, U) pairs lose their target block or part of its packing).
func randomPartitions(t *testing.T, visit func(a *sparse.CSR, p *Partition)) {
	t.Helper()
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := sparse.RandomSparse(60+rng.Intn(120), 2+rng.Intn(3), seed)
		st := symbolic.Factorize(sparse.PatternOf(a))
		for _, o := range []Options{
			{MaxBlock: 1},
			{MaxBlock: 7, Amalgamate: 4},
			{MaxBlock: 5 + rng.Intn(12), Amalgamate: 8 + rng.Intn(8)},
			{}, // adaptive
		} {
			visit(a, NewPartition(st, o))
		}
	}
}

// TestUpdatePlanMatchesSearch checks every pair record of the static update
// plan against what the numeric phase used to derive per call: the target
// found by block lookup, each product row/column placed by binary search in
// the target's packing, alignment decided by comparing the index lists.
func TestUpdatePlanMatchesSearch(t *testing.T) {
	var pairs, none, aligned, dropped, runs int
	randomPartitions(t, func(a *sparse.CSR, p *Partition) {
		plan := p.UpdatePlan()
		if plan != p.UpdatePlan() {
			t.Fatal("UpdatePlan is not cached")
		}
		bm := NewEmptyBlockMatrix(p)
		for k := 0; k < p.NB; k++ {
			for ui, ub := range bm.URow[k] {
				for li, lb := range bm.LCol[k] {
					pairs++
					u := plan.Pair(k, ui, li)
					target := bm.BlockAt(lb.I, ub.J)
					if target == nil {
						none++
						if u.Target >= 0 {
							t.Fatalf("pair (%d; U%d, L%d): plan has target %d, structure has none", k, ui, li, u.Target)
						}
						continue
					}
					if u.Target < 0 || bm.Block(u.Target) != target {
						t.Fatalf("pair (%d; U%d, L%d): plan target %d is not block (%d,%d)", k, ui, li, u.Target, lb.I, ub.J)
					}
					wantAligned := slices.Equal(lb.Rows, target.Rows) && slices.Equal(ub.Cols, target.Cols)
					if u.Aligned != wantAligned {
						t.Fatalf("pair (%d; U%d, L%d): aligned=%v, index lists say %v", k, ui, li, u.Aligned, wantAligned)
					}
					if u.Aligned {
						aligned++
						continue
					}
					if len(u.Rows) != len(lb.Rows) {
						t.Fatalf("pair (%d; U%d, L%d): row map has %d entries for %d rows", k, ui, li, len(u.Rows), len(lb.Rows))
					}
					for r, gr := range lb.Rows {
						if want := target.RowPos(int(gr)); int(u.Rows[r]) != want {
							t.Fatalf("pair (%d; U%d, L%d): row %d lands on %d, search says %d", k, ui, li, gr, u.Rows[r], want)
						}
						if u.Rows[r] < 0 {
							dropped++
						}
					}
					if u.Cols == nil {
						runs++
					} else if len(u.Cols) != len(ub.Cols) {
						t.Fatalf("pair (%d; U%d, L%d): column map has %d entries for %d columns", k, ui, li, len(u.Cols), len(ub.Cols))
					}
					for q, gc := range ub.Cols {
						got := u.Col0 + q
						if u.Cols != nil {
							got = int(u.Cols[q])
						}
						if want := target.ColPos(int(gc)); got != want {
							t.Fatalf("pair (%d; U%d, L%d): column %d lands on %d, search says %d", k, ui, li, gc, got, want)
						}
						if got < 0 {
							dropped++
						}
					}
				}
			}
		}
	})
	if none == 0 || aligned == 0 || dropped == 0 || runs == 0 {
		t.Fatalf("cases not all exercised over %d pairs: %d without target, %d aligned, %d dropped indices, %d contiguous column runs",
			pairs, none, aligned, dropped, runs)
	}
}

// TestAssemblyMapFoldsPermutations: scattering A through the assembly map
// computed with the permutations folded in equals permuting A first and
// scattering entry by entry — and replaying the map with new values leaves no
// trace of the old ones.
func TestAssemblyMapFoldsPermutations(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// a's rows are scrambled (no zero-free diagonal); rowPerm undoes the
		// scramble and applies colPerm's relabeling on top, so the two
		// permutations differ and the permuted matrix has its diagonal back.
		base := sparse.RandomSparse(50+rng.Intn(80), 3, seed)
		scramble, colPerm := rng.Perm(base.N), rng.Perm(base.N)
		a := base.PermuteRows(scramble)
		rowPerm := make([]int, a.N)
		for i, s := range scramble {
			rowPerm[s] = colPerm[i]
		}
		work := a.Permute(rowPerm, colPerm)
		p := NewPartition(symbolic.Factorize(sparse.PatternOf(work)), Options{MaxBlock: 6, Amalgamate: 4})
		want := NewBlockMatrix(p, work)
		asm := p.AssemblyMap(a, rowPerm, colPerm)
		got := NewEmptyBlockMatrix(p)
		junk := make([]float64, len(a.Val))
		for q := range junk {
			junk[q] = 1e300
		}
		got.Assemble(asm, junk)
		got.Assemble(asm, a.Val)
		if !slices.Equal(got.Values(), want.Values()) {
			t.Fatalf("seed %d: folded assembly map differs from permute-then-scatter", seed)
		}
	}
}

// TestSwapValuesRebindsBlocks: after SwapValues every block reads and writes
// the new slab, and the old slab comes back untouched.
func TestSwapValuesRebindsBlocks(t *testing.T) {
	a := sparse.Grid2D(7, 6, false, sparse.GenOptions{Seed: 12})
	p := NewPartition(symbolic.Factorize(sparse.PatternOf(a)), Options{MaxBlock: 4, Amalgamate: 2})
	bm := NewBlockMatrix(p, a)
	first := bm.Values()
	keep := slices.Clone(first)
	second := make([]float64, len(first))
	if old := bm.SwapValues(second); &old[0] != &first[0] {
		t.Fatal("SwapValues did not return the slab it replaced")
	}
	for b := 0; b < p.NB; b++ {
		for i := range bm.Diag[b].Data {
			bm.Diag[b].Data[i] = 7
		}
	}
	if !slices.Equal(first, keep) {
		t.Fatal("writing through the blocks after SwapValues changed the old slab")
	}
	if bm.At(0, 0) != 7 || second[0] != 7 {
		t.Fatal("blocks do not address the new slab")
	}
	bm.SwapValues(first)
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for q, j := range cols {
			if bm.At(i, j) != vals[q] {
				t.Fatalf("after swapping back, At(%d,%d) = %v, want %v", i, j, bm.At(i, j), vals[q])
			}
		}
	}
}

// TestLoadBlockMatrixRejectsBadInput: the deserialization path takes both the
// partition and the slab from outside the program; inconsistent input is an
// error, never a panic or a silently mis-shaped matrix.
func TestLoadBlockMatrixRejectsBadInput(t *testing.T) {
	a := sparse.Grid2D(6, 5, false, sparse.GenOptions{Seed: 13})
	st := symbolic.Factorize(sparse.PatternOf(a))
	fresh := func() *Partition { return NewPartition(st, Options{MaxBlock: 4, Amalgamate: 2}) }
	good := NewBlockMatrix(fresh(), a)
	bm, err := LoadBlockMatrix(fresh(), slices.Clone(good.Values()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N; i++ {
		for _, j := range a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]] {
			if bm.At(i, j) != good.At(i, j) {
				t.Fatalf("loaded At(%d,%d) = %v, want %v", i, j, bm.At(i, j), good.At(i, j))
			}
		}
	}
	if _, err := LoadBlockMatrix(fresh(), good.Values()[1:]); err == nil {
		t.Error("short slab accepted")
	}
	for name, corrupt := range map[string]func(p *Partition){
		"index past n":      func(p *Partition) { p.LRows[0] = append(slices.Clone(p.LRows[0]), int32(p.N)) },
		"index inside":      func(p *Partition) { p.UCols[0] = append([]int32{0}, p.UCols[0]...) },
		"unsorted list":     func(p *Partition) { p.UCols[0] = append(slices.Clone(p.UCols[0]), p.UCols[0][0]) },
		"missing boundary":  func(p *Partition) { p.Start = p.Start[:p.NB] },
		"reversed boundary": func(p *Partition) { p.Start = slices.Clone(p.Start); p.Start[1] = 0 },
		"wrong BlockOf":     func(p *Partition) { p.BlockOf = slices.Clone(p.BlockOf); p.BlockOf[0] = p.NB - 1 },
		"short lists":       func(p *Partition) { p.LRows = p.LRows[:p.NB-1] },
	} {
		p := fresh()
		corrupt(p)
		if _, err := LoadBlockMatrix(p, good.Values()); err == nil {
			t.Errorf("%s: corrupt partition accepted", name)
		}
	}
}
