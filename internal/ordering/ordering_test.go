package ordering

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sstar/internal/sparse"
)

func TestMaxTransversalAlreadyDiagonal(t *testing.T) {
	a := sparse.RandomSparse(50, 3, 1)
	perm, matched := MaxTransversal(a)
	if matched != 50 {
		t.Fatalf("matched = %d, want 50", matched)
	}
	if !sparse.IsPerm(perm) {
		t.Fatal("result is not a permutation")
	}
	if !a.PermuteRows(perm).HasZeroFreeDiagonal() {
		t.Fatal("permuted matrix lacks zero-free diagonal")
	}
}

func TestMaxTransversalAntiDiagonal(t *testing.T) {
	n := 6
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, n-1-i, 1)
	}
	a := coo.ToCSR()
	perm, matched := MaxTransversal(a)
	if matched != n {
		t.Fatalf("matched = %d, want %d", matched, n)
	}
	if !a.PermuteRows(perm).HasZeroFreeDiagonal() {
		t.Fatal("anti-diagonal not repaired")
	}
}

func TestMaxTransversalNeedsAugmenting(t *testing.T) {
	// Chain structure where the cheap pass picks wrong and augmenting paths
	// are required: col 0 hits rows {0,1}, col 1 hits row {0}.
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 0, 1)
	coo.Add(0, 1, 1)
	a := coo.ToCSR()
	perm, matched := MaxTransversal(a)
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
	if !a.PermuteRows(perm).HasZeroFreeDiagonal() {
		t.Fatal("augmenting path case failed")
	}
}

func TestMaxTransversalSingular(t *testing.T) {
	// Column 1 is empty: only a partial transversal exists.
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 1)
	coo.Add(1, 0, 1)
	coo.Add(2, 2, 1)
	a := coo.ToCSR()
	perm, matched := MaxTransversal(a)
	if matched != 2 {
		t.Fatalf("matched = %d, want 2", matched)
	}
	if !sparse.IsPerm(perm) {
		t.Fatal("partial transversal must still return a permutation")
	}
}

func TestMaxTransversalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		// Random matrix with a hidden permutation ensuring a full
		// transversal exists.
		coo := sparse.NewCOO(n, n)
		hidden := rng.Perm(n)
		for i := 0; i < n; i++ {
			coo.Add(i, hidden[i], 1)
			for k := 0; k < 3; k++ {
				coo.Add(i, rng.Intn(n), 1)
			}
		}
		a := coo.ToCSR()
		perm, matched := MaxTransversal(a)
		return matched == n && sparse.IsPerm(perm) && a.PermuteRows(perm).HasZeroFreeDiagonal()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumDegreeIsPermutation(t *testing.T) {
	a := sparse.Grid2D(15, 15, false, sparse.GenOptions{Seed: 1})
	p := MinimumDegree(sparse.ATAPattern(a))
	if !sparse.IsPerm(p) {
		t.Fatal("minimum degree did not return a permutation")
	}
}

func TestMinimumDegreeReducesFill(t *testing.T) {
	// Arrow matrix: natural order fills completely; MD must eliminate the
	// dense row/col last, giving (near-)zero fill.
	n := 40
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
	}
	for i := 1; i < n; i++ {
		coo.Add(0, i, 1)
		coo.Add(i, 0, 1)
	}
	a := coo.ToCSR()
	pat := sparse.PatternOf(a) // already symmetric
	perm := MinimumDegree(pat)
	if !sparse.IsPerm(perm) {
		t.Fatal("not a permutation")
	}
	// The hub (variable 0) must be eliminated (essentially) last; it may
	// tie with the final leaf when only the two of them remain.
	if perm[0] < n-2 {
		t.Fatalf("hub eliminated at position %d, want >= %d", perm[0], n-2)
	}
}

func TestMinimumDegreeGridFill(t *testing.T) {
	// On a k x k grid, natural-order fill is O(k^3) band fill while MD fill
	// is much smaller; check MD beats natural ordering via symbolic
	// Cholesky column counts computed by brute force.
	a := sparse.Grid2D(12, 12, false, sparse.GenOptions{Seed: 2})
	pat := sparse.SymmetrizedPattern(a)
	perm := MinimumDegree(pat)
	natural := choleskyFill(pat, sparse.IdentityPerm(pat.N))
	md := choleskyFill(pat, perm)
	if md >= natural {
		t.Fatalf("MD fill %d not better than natural fill %d", md, natural)
	}
}

// choleskyFill counts nnz(L) of a symbolic Cholesky factorization of the
// permuted pattern, by brute-force row merging (test oracle only).
func choleskyFill(s *sparse.Pattern, perm []int) int {
	p := sparse.PermutePattern(s, perm, perm)
	n := p.N
	cols := make([][]int, n) // column structures below diagonal
	fill := 0
	// parent pointer via first off-diagonal nonzero
	rows := make([]map[int]bool, n)
	for i := 0; i < n; i++ {
		rows[i] = map[int]bool{}
	}
	for i := 0; i < n; i++ {
		for _, j := range p.Row(i) {
			if j <= i {
				rows[i][j] = true
			}
		}
	}
	for j := 0; j < n; j++ {
		_ = cols
		// Gather structure of row j from merges: standard up-looking
		// symbolic, quadratic but fine at test sizes.
		for i := j + 1; i < n; i++ {
			if rows[i][j] {
				fill++
				// Merge: row i gains the structure of column j's
				// parent step. Simplified: connect i to all t > j
				// that also contain j.
			}
		}
		// Propagate: find the first i > j with entry in column j, and add
		// all other entries of column j to row i (Liu's row merge).
		first := -1
		for i := j + 1; i < n; i++ {
			if rows[i][j] {
				if first == -1 {
					first = i
				} else {
					rows[i][first] = true
				}
			}
		}
	}
	return fill
}

func TestEliminationTreeChain(t *testing.T) {
	// Tridiagonal pattern: etree is a chain 0 -> 1 -> ... -> n-1.
	n := 10
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
		if i+1 < n {
			coo.Add(i+1, i, 1)
			coo.Add(i, i+1, 1)
		}
	}
	parent := EliminationTree(sparse.PatternOf(coo.ToCSR()))
	for i := 0; i < n-1; i++ {
		if parent[i] != i+1 {
			t.Fatalf("parent[%d] = %d, want %d", i, parent[i], i+1)
		}
	}
	if parent[n-1] != -1 {
		t.Fatal("root must have parent -1")
	}
	if TreeHeight(parent) != n {
		t.Fatalf("height = %d, want %d", TreeHeight(parent), n)
	}
}

func TestEliminationTreeDiagonal(t *testing.T) {
	// Diagonal matrix: forest of singletons.
	n := 5
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	parent := EliminationTree(sparse.PatternOf(coo.ToCSR()))
	for i := 0; i < n; i++ {
		if parent[i] != -1 {
			t.Fatalf("parent[%d] = %d, want -1", i, parent[i])
		}
	}
	if TreeHeight(parent) != 1 {
		t.Fatal("forest of singletons must have height 1")
	}
}

func TestPostorderProperties(t *testing.T) {
	parent := []int{2, 2, 4, 4, -1, 6, -1} // two trees
	perm := Postorder(parent)
	if !sparse.IsPerm(perm) {
		t.Fatal("postorder is not a permutation")
	}
	for v, p := range parent {
		if p >= 0 && perm[v] > perm[p] {
			t.Fatalf("child %d ordered after parent %d", v, p)
		}
	}
}

func TestPostorderSubtreesContiguous(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		parent := make([]int, n)
		for i := 0; i < n-1; i++ {
			parent[i] = i + 1 + rng.Intn(n-i-1) // parent has larger index
		}
		parent[n-1] = -1
		perm := Postorder(parent)
		if !sparse.IsPerm(perm) {
			return false
		}
		// Subtree of v = {u : v is an ancestor-or-self of u} must map to a
		// contiguous range ending at perm[v].
		anc := func(u, v int) bool {
			for u != -1 {
				if u == v {
					return true
				}
				u = parent[u]
			}
			return false
		}
		for v := 0; v < n; v++ {
			var size, lo int
			lo = n
			for u := 0; u < n; u++ {
				if anc(u, v) {
					size++
					if perm[u] < lo {
						lo = perm[u]
					}
				}
			}
			if perm[v] != lo+size-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// randomSymmetricPattern returns a seeded random symmetric pattern of order n
// built to reach every branch of the ordering: isolated rows (some without
// even a diagonal), a few dense rows, and planted groups of 5–35 variables
// with one shared neighbour set — cliques, which are indistinguishable from
// the start, and independent sets, which become so once a shared neighbour is
// eliminated. Groups are larger than pdqsort's 12-element insertion-sort
// cutoff, so their equal-hash runs go through its partitioning.
func randomSymmetricPattern(rng *rand.Rand, n int) *sparse.Pattern {
	rows := make([][]int, n)
	link := func(i, j int) {
		if i != j {
			rows[i] = append(rows[i], j)
			rows[j] = append(rows[j], i)
		}
	}
	// free[v]: v takes random and dense-row edges; isolated and grouped
	// variables do not, so a group keeps exactly its planted neighbourhood.
	free := make([]bool, n)
	for v := range free {
		free[v] = rng.Intn(8) != 0
	}
	for g := rng.Intn(4); g > 0 && n > 10; g-- {
		size := min(5+rng.Intn(31), n/2)
		members := rng.Perm(n)[:size]
		for _, v := range members {
			free[v] = false
		}
		clique := rng.Intn(2) == 0
		var nbrs []int
		for k := 1 + rng.Intn(10); k > 0; k-- {
			if w := rng.Intn(n); free[w] {
				nbrs = append(nbrs, w)
			}
		}
		for a, v := range members {
			for _, w := range nbrs {
				link(v, w)
			}
			if clique {
				for _, u := range members[:a] {
					link(v, u)
				}
			}
		}
	}
	var pool []int
	for v, ok := range free {
		if ok {
			pool = append(pool, v)
		}
	}
	if len(pool) > 1 {
		deg := 1 + rng.Intn(6)
		for _, v := range pool {
			for k := rng.Intn(2 * deg); k > 0; k-- {
				w := v + 1 + rng.Intn(20) // banded, like a mesh numbering
				if rng.Intn(4) == 0 || w >= n || !free[w] {
					w = pool[rng.Intn(len(pool))] // long range
				}
				link(v, w)
			}
		}
		for d := rng.Intn(4); d > 0; d-- {
			hub := pool[rng.Intn(len(pool))]
			frac := 0.3 + 0.6*rng.Float64()
			for _, w := range pool {
				if rng.Float64() < frac {
					link(hub, w)
				}
			}
		}
	}
	ptr := make([]int, n+1)
	var ind []int
	for i, r := range rows {
		if free[i] || rng.Intn(2) == 0 {
			r = append(r, i)
		}
		slices.Sort(r)
		ind = append(ind, slices.Compact(r)...)
		ptr[i+1] = len(ind)
	}
	return &sparse.Pattern{N: n, Ptr: ptr, Ind: ind}
}

// TestMinimumDegreeMatchesReference: MinimumDegree returns exactly the
// permutation of the reference implementation (mindeg_ref_test.go), tie
// order included, on seeded random patterns and on AᵀA of the generators.
func TestMinimumDegreeMatchesReference(t *testing.T) {
	check := func(name string, p *sparse.Pattern) {
		t.Helper()
		if got, want := MinimumDegree(p), minimumDegreeRef(p); !slices.Equal(got, want) {
			t.Fatalf("%s (n=%d): permutation differs from the reference", name, p.N)
		}
	}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(601)
		if seed < 3 {
			n = int(seed)
		}
		check(fmt.Sprintf("random seed %d", seed), randomSymmetricPattern(rng, n))
	}
	for name, a := range map[string]*sparse.CSR{
		"Grid2D 5-point": sparse.Grid2D(40, 40, false, sparse.GenOptions{Seed: 1}),
		"Grid2D 9-point": sparse.Grid2D(25, 25, true, sparse.GenOptions{Seed: 2}),
		"Grid3D":         sparse.Grid3D(10, 10, 10, sparse.GenOptions{Seed: 3}),
		"Circuit":        sparse.Circuit(3000, 3, sparse.GenOptions{Seed: 7}),
	} {
		check(name, sparse.ATAPattern(a))
	}
}
