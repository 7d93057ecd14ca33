package symbolic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sstar/internal/sparse"
)

// oracleStatic implements the George–Ng definition literally: at step k the
// structure of every candidate pivot row is replaced by the union of all
// candidate structures at columns >= k. Exponentially simpler to trust than
// the row-merge forest, quadratic cost, test-only.
func oracleStatic(a *sparse.Pattern) *Static {
	n := a.N
	rows := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		rows[i] = map[int]bool{}
		for _, j := range a.Row(i) {
			rows[i][j] = true
		}
	}
	for k := 0; k < n; k++ {
		var cands []int
		for i := k; i < n; i++ {
			if rows[i][k] {
				cands = append(cands, i)
			}
		}
		union := map[int]bool{}
		for _, i := range cands {
			for j := range rows[i] {
				if j >= k {
					union[j] = true
				}
			}
		}
		for _, i := range cands {
			for j := range rows[i] {
				if j >= k {
					delete(rows[i], j)
				}
			}
			for j := range union {
				rows[i][j] = true
			}
		}
	}
	st := &Static{N: n, URows: make([][]int32, n), LCols: make([][]int32, n)}
	for i := 0; i < n; i++ {
		for j := range rows[i] {
			if j >= i {
				st.URows[i] = append(st.URows[i], int32(j))
			} else {
				st.LCols[j] = append(st.LCols[j], int32(i))
			}
		}
	}
	for k := 0; k < n; k++ {
		sortInt32(st.URows[k])
		sortInt32(st.LCols[k])
	}
	return st
}

func sortInt32(x []int32) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func equalStatic(a, b *Static) bool {
	if a.N != b.N {
		return false
	}
	eq := func(x, y []int32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	for k := 0; k < a.N; k++ {
		if !eq(a.URows[k], b.URows[k]) || !eq(a.LCols[k], b.LCols[k]) {
			return false
		}
	}
	return true
}

func TestStaticTridiagonal(t *testing.T) {
	n := 6
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	st := Factorize(sparse.PatternOf(coo.ToCSR()))
	// Partial pivoting on a tridiagonal matrix can produce two
	// superdiagonals in U; the static bound must predict exactly that.
	for k := 0; k < n; k++ {
		wantU := 3
		if k >= n-2 {
			wantU = n - k
		}
		if len(st.URows[k]) != wantU {
			t.Fatalf("URows[%d] = %v, want %d entries", k, st.URows[k], wantU)
		}
		wantL := 1
		if k == n-1 {
			wantL = 0
		}
		if len(st.LCols[k]) != wantL {
			t.Fatalf("LCols[%d] = %v, want %d entries", k, st.LCols[k], wantL)
		}
	}
}

func TestStaticDense(t *testing.T) {
	n := 5
	a := sparse.PatternOf(sparse.Dense(n, 1))
	st := Factorize(a)
	if st.NnzTotal() != n*n {
		t.Fatalf("dense static nnz = %d, want %d", st.NnzTotal(), n*n)
	}
	// ElementOps for dense LU: sum_k l + 2*l*u with l=u=n-1-k.
	var want int64
	for k := 0; k < n; k++ {
		l := int64(n - 1 - k)
		want += l + 2*l*l
	}
	if st.ElementOps() != want {
		t.Fatalf("ElementOps = %d, want %d", st.ElementOps(), want)
	}
}

func TestStaticMatchesOracle(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.RandomSparse(25, 3, 1),
		sparse.RandomSparse(40, 2, 2),
		sparse.Grid2D(5, 5, false, sparse.GenOptions{Seed: 3}),
		sparse.Grid2D(4, 4, true, sparse.GenOptions{Seed: 4, StructuralDrop: 0.3}),
		sparse.Circuit(30, 3, sparse.GenOptions{Seed: 5}),
		sparse.Grid2D(20, 20, false, sparse.GenOptions{Seed: 1}),
		sparse.Circuit(300, 4, sparse.GenOptions{Seed: 7, StructuralDrop: 0.2}),
		sparse.RandomSparse(200, 3, 11),
		sparse.MemoryCircuitFrac(150, 10, 5),
	}
	for mi, a := range mats {
		p := sparse.PatternOf(a)
		got := Factorize(p)
		want := oracleStatic(p)
		if !equalStatic(got, want) {
			t.Fatalf("matrix %d: row-merge static factorization disagrees with oracle", mi)
		}
	}
}

// TestFactorizeWorkersByteIdentical pins the contract of the deprecated
// FactorizeWorkers alias the benchmark harness still calls: the static
// structure is byte-identical to Factorize's at every worker count.
func TestFactorizeWorkersByteIdentical(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Grid2D(20, 20, false, sparse.GenOptions{Seed: 1}),
		sparse.Circuit(300, 4, sparse.GenOptions{Seed: 7, StructuralDrop: 0.2}),
		sparse.RandomSparse(200, 3, 11),
		sparse.MemoryCircuitFrac(150, 10, 5),
	}
	for mi, a := range mats {
		p := sparse.PatternOf(a)
		want := Factorize(p)
		for _, w := range []int{0, 1, 2, 4, 8} {
			if !equalStatic(FactorizeWorkers(p, w), want) {
				t.Fatalf("matrix %d: static at %d workers differs from Factorize", mi, w)
			}
		}
	}
}

func TestStaticMatchesOracleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		a := sparse.RandomSparse(n, 1+rng.Intn(4), seed)
		p := sparse.PatternOf(a)
		return equalStatic(Factorize(p), oracleStatic(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticContainsOriginal(t *testing.T) {
	a := sparse.Circuit(60, 4, sparse.GenOptions{Seed: 6, StructuralDrop: 0.2})
	p := sparse.PatternOf(a)
	st := Factorize(p)
	has := func(i, j int) bool {
		if j >= i {
			for _, c := range st.URows[i] {
				if int(c) == j {
					return true
				}
			}
			return false
		}
		for _, r := range st.LCols[j] {
			if int(r) == i {
				return true
			}
		}
		return false
	}
	for i := 0; i < p.N; i++ {
		for _, j := range p.Row(i) {
			if !has(i, j) {
				t.Fatalf("static structure lost original entry (%d,%d)", i, j)
			}
		}
	}
}

// TestStaticBoundsAnyPivotSequence is the paper's central claim (Section 3.1):
// whatever rows partial pivoting interchanges, every fill-in lands inside the
// static structure. We run dense GEPP with *randomized* pivot choices among
// the structurally-eligible candidate rows and check containment. As in the
// real algorithm (ScaleSwap, Fig. 14), interchanges apply to the *trailing*
// submatrix only — the already-computed L columns stay in place and the
// permutation is applied during the triangular solves (LINPACK-style lazy
// pivoting).
func TestStaticBoundsAnyPivotSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(20)
		a := sparse.RandomSparse(n, 2, int64(trial+100))
		p := sparse.PatternOf(a)
		st := Factorize(p)
		// Dense copy with explicit structural-zero tracking.
		val := make([]float64, n*n)
		nz := make([]bool, n*n)
		for i := 0; i < n; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				val[i*n+j] = vals[k]
				nz[i*n+j] = true
			}
		}
		perm := sparse.IdentityPerm(n) // tracks row swaps: perm[i] = original row now at i
		for k := 0; k < n; k++ {
			// Candidate rows: structural nonzero in column k.
			var cands []int
			for i := k; i < n; i++ {
				if nz[i*n+k] {
					cands = append(cands, i)
				}
			}
			if len(cands) == 0 {
				t.Fatalf("no structural candidate at step %d", k)
			}
			pick := cands[rng.Intn(len(cands))]
			if pick != k {
				for j := k; j < n; j++ {
					val[k*n+j], val[pick*n+j] = val[pick*n+j], val[k*n+j]
					nz[k*n+j], nz[pick*n+j] = nz[pick*n+j], nz[k*n+j]
				}
				perm[k], perm[pick] = perm[pick], perm[k]
			}
			piv := val[k*n+k]
			if math.Abs(piv) < 1e-300 {
				piv = 1 // structural elimination only; values don't matter
			}
			for i := k + 1; i < n; i++ {
				if !nz[i*n+k] {
					continue
				}
				for j := k + 1; j < n; j++ {
					if nz[k*n+j] {
						nz[i*n+j] = true // fill-in
					}
				}
			}
		}
		// Containment check against the static structure.
		inStatic := func(i, j int) bool {
			if j >= i {
				for _, c := range st.URows[i] {
					if int(c) == j {
						return true
					}
				}
				return false
			}
			for _, r := range st.LCols[j] {
				if int(r) == i {
					return true
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if nz[i*n+j] && !inStatic(i, j) {
					t.Fatalf("trial %d: fill at (%d,%d) escapes the static structure", trial, i, j)
				}
			}
		}
	}
}

func TestLRowsIsTransposeOfLCols(t *testing.T) {
	a := sparse.Grid2D(6, 6, false, sparse.GenOptions{Seed: 10})
	st := Factorize(sparse.PatternOf(a))
	rows := st.LRows()
	count := 0
	for i, r := range rows {
		for _, k := range r {
			count++
			found := false
			for _, x := range st.LCols[k] {
				if int(x) == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("LRows entry (%d,%d) missing from LCols", i, k)
			}
		}
	}
	if count != st.NnzL()-st.N {
		t.Fatalf("LRows total %d != NnzL-N %d", count, st.NnzL()-st.N)
	}
}

func TestCholeskyFillTridiagonal(t *testing.T) {
	n := 9
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	fill := CholeskyFill(sparse.PatternOf(coo.ToCSR()))
	if fill != int64(2*n-1) {
		t.Fatalf("tridiagonal Cholesky fill = %d, want %d", fill, 2*n-1)
	}
}

func TestCholeskyFillDense(t *testing.T) {
	n := 7
	fill := CholeskyFill(sparse.PatternOf(sparse.Dense(n, 2)))
	if fill != int64(n*(n+1)/2) {
		t.Fatalf("dense Cholesky fill = %d, want %d", fill, n*(n+1)/2)
	}
}

// TestStaticWithinCholeskyBound: the George–Ng structure is contained in the
// structure of the Cholesky factor of A^T A (paper Section 3.1), so its total
// fill is at most 2*nnz(L_c) - n.
func TestStaticWithinCholeskyBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		a := sparse.RandomSparse(n, 1+rng.Intn(3), seed+1000)
		st := Factorize(sparse.PatternOf(a))
		lc := CholeskyFill(sparse.ATAPattern(a))
		return int64(st.NnzTotal()) <= 2*lc-int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyColumnsSorted(t *testing.T) {
	a := sparse.Grid2D(7, 7, false, sparse.GenOptions{Seed: 11})
	cols := CholeskyColumns(sparse.ATAPattern(a))
	for j, c := range cols {
		for i := 1; i < len(c); i++ {
			if c[i] <= c[i-1] {
				t.Fatalf("column %d not strictly sorted", j)
			}
		}
		if len(c) > 0 && int(c[0]) <= j {
			t.Fatalf("column %d contains on/above-diagonal row %d", j, c[0])
		}
	}
}

// TestStaticClosureMonotone: treating the filled structure itself as the
// input matrix and re-running the static symbolic factorization must contain
// the original structure (monotonicity of the George–Ng bound). Note it is
// NOT idempotent in general: the fill entries enlarge later candidate-pivot
// sets, which can enlarge the bound further.
func TestStaticClosureMonotone(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Grid2D(7, 7, false, sparse.GenOptions{Seed: 60}),
		sparse.Circuit(60, 3, sparse.GenOptions{Seed: 61, StructuralDrop: 0.2}),
		sparse.RandomSparse(50, 2, 62),
	}
	for mi, a := range mats {
		st := Factorize(sparse.PatternOf(a))
		// Rebuild a pattern holding the full static structure.
		coo := sparse.NewCOO(a.N, a.N)
		for k := 0; k < st.N; k++ {
			for _, j := range st.URows[k] {
				coo.Add(k, int(j), 1)
			}
			for _, i := range st.LCols[k] {
				coo.Add(int(i), k, 1)
			}
		}
		st2 := Factorize(sparse.PatternOf(coo.ToCSR()))
		contains := func(sup, sub []int32) bool {
			i := 0
			for _, v := range sub {
				for i < len(sup) && sup[i] < v {
					i++
				}
				if i == len(sup) || sup[i] != v {
					return false
				}
			}
			return true
		}
		for k := 0; k < st.N; k++ {
			if !contains(st2.URows[k], st.URows[k]) || !contains(st2.LCols[k], st.LCols[k]) {
				t.Fatalf("matrix %d: refactorized structure lost entries at step %d", mi, k)
			}
		}
	}
}
