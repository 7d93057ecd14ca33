package supernode

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sstar/internal/sparse"
	"sstar/internal/symbolic"
)

// sortDedup is the append-sort-dedup reference for the block unions: the
// sorted distinct values of xs (which it reorders) in a right-sized slice,
// nil when xs is empty.
func sortDedup(xs []int32) []int32 {
	if len(xs) == 0 {
		return nil
	}
	slices.Sort(xs)
	return slices.Clip(slices.Compact(xs))
}

// randomLists returns n sorted lists of distinct indices; list c holds
// indices in [c+from, n), and about one list in five is empty.
func randomLists(rng *rand.Rand, n, from int) [][]int32 {
	out := make([][]int32, n)
	for c := range out {
		if rng.Intn(5) == 0 {
			continue
		}
		for x := c + from; x < n; x++ {
			if rng.Intn(8) == 0 {
				out[c] = append(out[c], int32(x))
			}
		}
	}
	return out
}

// checkUnions builds the partition of st over bounds and compares every
// block's unions with the reference.
func checkUnions(t *testing.T, label string, st *symbolic.Static, bounds []int) {
	t.Helper()
	p := buildPartition(st, bounds, nil)
	for b := 0; b < p.NB; b++ {
		ref := genericStruct(st, bounds[b], bounds[b+1])
		if !reflect.DeepEqual(p.UCols[b], ref.ucols) || !reflect.DeepEqual(p.LRows[b], ref.lrows) {
			t.Fatalf("%s: block %d [%d,%d): unions %v / %v, reference %v / %v", label, b,
				bounds[b], bounds[b+1], p.UCols[b], p.LRows[b], ref.ucols, ref.lrows)
		}
	}
}

// TestBlockUnionsMatchReference: the stamp-marker unions of buildPartition
// equal append-sort-dedup on random structures (not necessarily George–Ng
// ones: the unions read nothing but the lists), over panels of width 1, 64
// and random widths, including n = 0 and empty trailing structures.
func TestBlockUnionsMatchReference(t *testing.T) {
	checkUnions(t, "n=0", &symbolic.Static{}, []int{0, 0})
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		st := &symbolic.Static{N: n, URows: randomLists(rng, n, 0), LCols: randomLists(rng, n, 1)}
		for _, width := range []int{1, 64, 0} {
			bounds := []int{0}
			for c := 0; c < n; {
				w := width
				if w == 0 {
					w = 1 + rng.Intn(64)
				}
				c = min(n, c+w)
				bounds = append(bounds, c)
			}
			checkUnions(t, "random", st, bounds)
		}
	}
}

// TestBlockUnionsDisjointColumns: a panel whose columns share no index has
// the plain sorted concatenation of their trailing lists as its union.
func TestBlockUnionsDisjointColumns(t *testing.T) {
	const n = 12
	st := &symbolic.Static{N: n, URows: make([][]int32, n), LCols: make([][]int32, n)}
	st.URows[0] = []int32{0, 9}
	st.URows[1] = []int32{1, 4, 11}
	st.URows[2] = []int32{2, 6}
	st.LCols[0] = []int32{5, 10}
	st.LCols[1] = []int32{3, 8}
	st.LCols[2] = []int32{7}
	checkUnions(t, "disjoint", st, []int{0, 3, n})
	p := buildPartition(st, []int{0, 3, n}, nil)
	if want := []int32{4, 6, 9, 11}; !reflect.DeepEqual(p.UCols[0], want) {
		t.Fatalf("UCols[0] = %v, want %v", p.UCols[0], want)
	}
	if want := []int32{3, 5, 7, 8, 10}; !reflect.DeepEqual(p.LRows[0], want) {
		t.Fatalf("LRows[0] = %v, want %v", p.LRows[0], want)
	}
}

// TestAmalgamateBuffersMatchFreshMerges: the merge pass's ping-pong buffers
// change nothing. The reference runs the same pass with a fresh merger for
// every merge, so no buffer is ever reused.
func TestAmalgamateBuffersMatchFreshMerges(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Grid2D(20, 20, false, sparse.GenOptions{Seed: 3}),
		sparse.Circuit(500, 4, sparse.GenOptions{Seed: 8}),
		sparse.RandomSparse(300, 3, 17),
	}
	for mi, a := range mats {
		st := symbolic.Factorize(sparse.PatternOf(a))
		strict := detectSupernodes(st)
		for _, r := range []int{2, 4, 8, 32} {
			var want []superSpan
			cur := strictStruct(st, strict[0], strict[1])
			for s := 1; s+1 < len(strict); s++ {
				next := strictStruct(st, strict[s], strict[s+1])
				var fresh merger
				if fresh.tryMerge(&cur, next, r) {
					continue
				}
				want = append(want, cur.span())
				cur = next
			}
			want = append(want, cur.span())
			if got := amalgamateSpans(st, strict, r); !reflect.DeepEqual(got, want) {
				t.Fatalf("matrix %d r %d: merge pass differs from fresh merges", mi, r)
			}
		}
	}
}
