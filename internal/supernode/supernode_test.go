package supernode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sstar/internal/sparse"
	"sstar/internal/symbolic"
)

func tridiag(n int) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	return coo.ToCSR()
}

func TestPartitionCoversMatrix(t *testing.T) {
	a := sparse.Grid2D(9, 9, false, sparse.GenOptions{Seed: 1})
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := NewPartition(st, Options{MaxBlock: 8, Amalgamate: 4})
	if p.Start[0] != 0 || p.Start[p.NB] != a.N {
		t.Fatalf("partition bounds [%d,%d], want [0,%d]", p.Start[0], p.Start[p.NB], a.N)
	}
	for b := 0; b < p.NB; b++ {
		if p.Size(b) <= 0 || p.Size(b) > 8 {
			t.Fatalf("block %d size %d out of (0,8]", b, p.Size(b))
		}
		for c := p.Start[b]; c < p.Start[b+1]; c++ {
			if p.BlockOf[c] != b {
				t.Fatalf("BlockOf[%d] = %d, want %d", c, p.BlockOf[c], b)
			}
		}
	}
}

func TestPartitionTimesPopulated(t *testing.T) {
	a := sparse.Grid2D(16, 16, false, sparse.GenOptions{Seed: 2})
	st := symbolic.Factorize(sparse.PatternOf(a))
	for _, o := range []Options{{}, {MaxBlock: 16, Amalgamate: 4}} {
		p := NewPartition(st, o)
		if p.Times.DetectNs <= 0 || p.Times.BuildNs <= 0 {
			t.Fatalf("partition times not recorded: %+v", p.Times)
		}
	}
}

func TestPartitionDenseSingleSupernode(t *testing.T) {
	n := 30
	st := symbolic.Factorize(sparse.PatternOf(sparse.Dense(n, 1)))
	p := NewPartition(st, Options{MaxBlock: 12, Amalgamate: 0})
	// One strict supernode split into ceil(30/12) = 3 panels.
	if p.NB != 3 {
		t.Fatalf("NB = %d, want 3", p.NB)
	}
	if p.Size(0) != 12 || p.Size(1) != 12 || p.Size(2) != 6 {
		t.Fatalf("panel sizes %d,%d,%d", p.Size(0), p.Size(1), p.Size(2))
	}
	// Every off-diagonal block of a dense matrix is full.
	for b := 0; b < p.NB-1; b++ {
		if len(p.UCols[b]) != n-p.Start[b+1] {
			t.Fatalf("UCols[%d] has %d entries, want %d", b, len(p.UCols[b]), n-p.Start[b+1])
		}
		if len(p.LRows[b]) != n-p.Start[b+1] {
			t.Fatalf("LRows[%d] has %d entries, want %d", b, len(p.LRows[b]), n-p.Start[b+1])
		}
	}
}

func TestPartitionTridiagonalStrict(t *testing.T) {
	n := 12
	st := symbolic.Factorize(sparse.PatternOf(tridiag(n)))
	p := NewPartition(st, Options{MaxBlock: 25, Amalgamate: 0})
	// Tridiagonal static structure has no strict supernodes of width > 1
	// except possibly the trailing 2x2.
	if p.NB < n-1 {
		t.Fatalf("NB = %d, want >= %d singleton-ish blocks", p.NB, n-1)
	}
}

func TestAmalgamationMergesSmallSupernodes(t *testing.T) {
	n := 60
	st := symbolic.Factorize(sparse.PatternOf(tridiag(n)))
	strict := NewPartition(st, Options{MaxBlock: 25, Amalgamate: 0})
	relaxed := NewPartition(st, Options{MaxBlock: 25, Amalgamate: 4})
	if relaxed.NB >= strict.NB {
		t.Fatalf("amalgamation did not reduce block count: %d -> %d", strict.NB, relaxed.NB)
	}
}

func TestAmalgamationFactorMonotone(t *testing.T) {
	a := sparse.Grid2D(10, 10, false, sparse.GenOptions{Seed: 3})
	st := symbolic.Factorize(sparse.PatternOf(a))
	prev := -1
	for _, r := range []int{0, 2, 4, 8, 16} {
		p := NewPartition(st, Options{MaxBlock: 100, Amalgamate: r})
		if prev != -1 && p.NB > prev {
			t.Fatalf("block count increased from %d to %d as r grew to %d", prev, p.NB, r)
		}
		prev = p.NB
	}
}

// TestTheorem1DenseSubcolumns verifies the paper's Theorem 1 on strict
// partitions: every row of a supernode shares the same U structure beyond the
// supernode, so each nonzero U submatrix consists of structurally dense
// subcolumns. Corollary-style dual for L: each column of the supernode has
// the same L rows beyond the supernode (dense subrows).
func TestTheorem1DenseSubcolumns(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 4}),
		sparse.Circuit(80, 3, sparse.GenOptions{Seed: 5, StructuralDrop: 0.2}),
		sparse.RandomSparse(60, 3, 6),
	}
	for mi, a := range mats {
		st := symbolic.Factorize(sparse.PatternOf(a))
		p := NewPartition(st, Options{MaxBlock: 6, Amalgamate: 0})
		for b := 0; b < p.NB; b++ {
			end := int32(p.Start[b+1])
			for c := p.Start[b]; c < p.Start[b+1]; c++ {
				// U: row c's structure beyond the block == UCols[b].
				var beyond []int32
				for _, j := range st.URows[c] {
					if j >= end {
						beyond = append(beyond, j)
					}
				}
				if !equalInt32(beyond, p.UCols[b]) {
					t.Fatalf("matrix %d block %d: row %d U structure %v != block UCols %v",
						mi, b, c, beyond, p.UCols[b])
				}
				// L: column c's rows beyond the block == LRows[b].
				beyond = nil
				for _, i := range st.LCols[c] {
					if i >= end {
						beyond = append(beyond, i)
					}
				}
				if !equalInt32(beyond, p.LRows[b]) {
					t.Fatalf("matrix %d block %d: column %d L structure %v != block LRows %v",
						mi, b, c, beyond, p.LRows[b])
				}
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBlockMatrixReproducesValues(t *testing.T) {
	a := sparse.Circuit(70, 3, sparse.GenOptions{Seed: 7, StructuralDrop: 0.15})
	st := symbolic.Factorize(sparse.PatternOf(a))
	for _, r := range []int{0, 4} {
		p := NewPartition(st, Options{MaxBlock: 7, Amalgamate: r})
		bm := NewBlockMatrix(p, a)
		for i := 0; i < a.N; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				if got := bm.At(i, j); got != vals[k] {
					t.Fatalf("r=%d: At(%d,%d) = %v, want %v", r, i, j, got, vals[k])
				}
			}
		}
		// Positions outside the static structure read as zero.
		if p.NB > 1 && bm.At(0, a.N-1) != 0 && a.At(0, a.N-1) == 0 && st.URows[0][len(st.URows[0])-1] != int32(a.N-1) {
			t.Fatal("expected zero outside structure")
		}
	}
}

func TestBlockMatrixStorageAtLeastStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		a := sparse.RandomSparse(n, 1+rng.Intn(3), seed)
		st := symbolic.Factorize(sparse.PatternOf(a))
		p := NewPartition(st, Options{MaxBlock: 1 + rng.Intn(10), Amalgamate: rng.Intn(6)})
		bm := NewBlockMatrix(p, a)
		// Storage includes every static entry (plus padding zeros).
		return bm.StorageEntries() >= int64(st.NnzTotal())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockMatrixStrictStorageExact(t *testing.T) {
	// With strict supernodes and MaxBlock 1, the packed storage holds
	// exactly the static structure (every block slot is a static entry).
	a := sparse.RandomSparse(40, 2, 9)
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := NewPartition(st, Options{MaxBlock: 1, Amalgamate: 0})
	bm := NewBlockMatrix(p, a)
	if bm.StorageEntries() != int64(st.NnzTotal()) {
		t.Fatalf("storage %d != static nnz %d", bm.StorageEntries(), st.NnzTotal())
	}
}

func TestBlockLookup(t *testing.T) {
	a := sparse.Grid2D(6, 6, false, sparse.GenOptions{Seed: 10})
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := NewPartition(st, Options{MaxBlock: 5, Amalgamate: 2})
	bm := NewBlockMatrix(p, a)
	for b := 0; b < p.NB; b++ {
		if got := bm.BlockAt(b, b); got != bm.Diag[b] {
			t.Fatalf("BlockAt(%d,%d) != Diag", b, b)
		}
		for _, blk := range bm.LCol[b] {
			if got := bm.BlockAt(blk.I, b); got != blk {
				t.Fatalf("L lookup (%d,%d) failed", blk.I, b)
			}
			if blk.I <= b {
				t.Fatalf("L block (%d,%d) not strictly below diagonal", blk.I, b)
			}
		}
		for _, blk := range bm.URow[b] {
			if got := bm.BlockAt(b, blk.J); got != blk {
				t.Fatalf("U lookup (%d,%d) failed", b, blk.J)
			}
			if blk.J <= b {
				t.Fatalf("U block (%d,%d) not strictly right of diagonal", b, blk.J)
			}
		}
	}
	if bm.BlockAt(0, p.NB-1) == nil && len(bm.URow[0]) > 0 && bm.URow[0][len(bm.URow[0])-1].J == p.NB-1 {
		t.Fatal("lookup missed an existing far block")
	}
}

func TestBlockRowSlice(t *testing.T) {
	a := sparse.Grid2D(5, 5, false, sparse.GenOptions{Seed: 11})
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := NewPartition(st, Options{MaxBlock: 4, Amalgamate: 2})
	bm := NewBlockMatrix(p, a)
	d := bm.Diag[0]
	if rs := d.RowSlice(0); len(rs) != d.NumCols() {
		t.Fatalf("RowSlice length %d, want %d", len(rs), d.NumCols())
	}
	if rs := d.RowSlice(p.N + 5); rs != nil {
		t.Fatal("RowSlice of absent row must be nil")
	}
	if d.ColPos(p.Start[1]) != -1 {
		t.Fatal("diagonal block must not contain next block's column")
	}
}

func TestFlopWeightedWidth(t *testing.T) {
	// Dense matrix, single supernode split into equal panels: weighted
	// width equals the panel width.
	st := symbolic.Factorize(sparse.PatternOf(sparse.Dense(40, 21)))
	p := NewPartition(st, Options{MaxBlock: 10, Amalgamate: 0})
	w := p.FlopWeightedWidth()
	if w < 9 || w > 10.01 {
		t.Fatalf("dense weighted width %v, want ~10", w)
	}
	// General case: bounded by the largest panel and at least 1.
	a := sparse.Grid2D(10, 10, false, sparse.GenOptions{Seed: 22})
	st2 := symbolic.Factorize(sparse.PatternOf(a))
	p2 := NewPartition(st2, Options{MaxBlock: 8, Amalgamate: 4})
	w2 := p2.FlopWeightedWidth()
	if w2 < 1 || w2 > 8.01 {
		t.Fatalf("weighted width %v out of [1, 8]", w2)
	}
	// Flop-weighted width should be at least the plain average (wide
	// panels carry more work).
	avg := float64(p2.N) / float64(p2.NB)
	if w2 < avg-1e-9 {
		t.Fatalf("weighted width %v below plain average %v", w2, avg)
	}
}

func TestEliminationForest(t *testing.T) {
	// Dense matrix: the forest is a chain 0 -> 1 -> ... -> NB-1.
	st := symbolic.Factorize(sparse.PatternOf(sparse.Dense(30, 23)))
	p := NewPartition(st, Options{MaxBlock: 10, Amalgamate: 0})
	parent := p.EliminationForest()
	for k := 0; k < p.NB-1; k++ {
		if parent[k] != k+1 {
			t.Fatalf("dense forest parent[%d] = %d, want %d", k, parent[k], k+1)
		}
	}
	if parent[p.NB-1] != -1 {
		t.Fatal("last block must be a root")
	}
	// General: parent strictly greater than the node, or -1.
	a := sparse.Grid2D(9, 9, false, sparse.GenOptions{Seed: 24})
	st2 := symbolic.Factorize(sparse.PatternOf(a))
	p2 := NewPartition(st2, Options{MaxBlock: 6, Amalgamate: 4})
	for k, pr := range p2.EliminationForest() {
		if pr != -1 && pr <= k {
			t.Fatalf("parent[%d] = %d not beyond the node", k, pr)
		}
	}
}

// TestCorollary1DenseColsGrowDownward: within a block column j, the dense
// subcolumn set of U blocks grows from top to bottom (paper Corollary 1):
// if subcolumn c is structurally dense in U_ij then it is dense in U_i'j for
// every i < i' < j with L_i'i' on the path. At block granularity with strict
// supernodes this reads: UCols(i) ∩ block j ⊆ UCols(i') ∩ block j whenever
// U_ij and U_i'j are both nonzero and L_i'i nonzero.
func TestCorollary1DenseColsGrowDownward(t *testing.T) {
	a := sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 25})
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := NewPartition(st, Options{MaxBlock: 5, Amalgamate: 0})
	inBlock := func(cols []int32, lo, hi int) map[int32]bool {
		m := map[int32]bool{}
		for _, c := range cols {
			if int(c) >= lo && int(c) < hi {
				m[c] = true
			}
		}
		return m
	}
	hasL := func(i2, i1 int) bool { // L block (i2, i1) nonzero?
		for _, b := range p.LBlocks[i1] {
			if int(b) == i2 {
				return true
			}
		}
		return false
	}
	for j := 0; j < p.NB; j++ {
		for i1 := 0; i1 < j; i1++ {
			s1 := inBlock(p.UCols[i1], p.Start[j], p.Start[j+1])
			if len(s1) == 0 {
				continue
			}
			for i2 := i1 + 1; i2 < j; i2++ {
				if !hasL(i2, i1) {
					continue
				}
				s2 := inBlock(p.UCols[i2], p.Start[j], p.Start[j+1])
				for c := range s1 {
					if !s2[c] {
						t.Fatalf("Corollary 1 violated: col %d dense in U(%d,%d) but not U(%d,%d)",
							c, i1, j, i2, j)
					}
				}
			}
		}
	}
}
