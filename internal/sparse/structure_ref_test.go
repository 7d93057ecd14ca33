package sparse

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// ataPatternRef is ATAPattern as it stood before the sort-free build: column
// access through ToCSC, each row of AᵀA gathered with a marker and sorted.
// TestATAPatternMatchesReference holds ATAPattern to its exact output.
func ataPatternRef(a *CSR) *Pattern {
	m := a.M
	// Build column-wise access once.
	csc := a.ToCSC()
	marker := make([]int, m)
	for i := range marker {
		marker[i] = -1
	}
	ptr := make([]int, m+1)
	var ind []int
	for j := 0; j < m; j++ {
		rows, _ := csc.Col(j)
		start := len(ind)
		for _, k := range rows {
			cols, _ := a.Row(k)
			for _, i := range cols {
				if marker[i] != j {
					marker[i] = j
					ind = append(ind, i)
				}
			}
		}
		sort.Ints(ind[start:])
		ptr[j+1] = len(ind)
	}
	return &Pattern{N: m, Ptr: ptr, Ind: ind}
}

// randomRect returns a seeded random n-by-m matrix in which some rows and
// some columns are empty and a few rows are dense.
func randomRect(rng *rand.Rand, n, m int) *CSR {
	coo := NewCOO(n, m)
	if m == 0 {
		return coo.ToCSR()
	}
	emptyCol := make([]bool, m)
	for j := range emptyCol {
		emptyCol[j] = rng.Intn(6) == 0
	}
	for i := 0; i < n; i++ {
		k := rng.Intn(5) // zero for about one row in five
		if rng.Intn(15) == 0 {
			k = m // a dense row
		}
		for ; k > 0; k-- {
			if j := rng.Intn(m); !emptyCol[j] {
				coo.Add(i, j, 1)
			}
		}
	}
	return coo.ToCSR()
}

// TestATAPatternMatchesReference: ATAPattern returns exactly the reference's
// pattern — same Ptr, same sorted Ind — on square and rectangular matrices
// with empty rows and columns, and on the generators.
func TestATAPatternMatchesReference(t *testing.T) {
	check := func(name string, a *CSR) {
		t.Helper()
		got, want := ATAPattern(a), ataPatternRef(a)
		if got.N != want.N || !slices.Equal(got.Ptr, want.Ptr) || !slices.Equal(got.Ind, want.Ind) {
			t.Fatalf("%s (%dx%d): AᵀA pattern differs from the reference", name, a.N, a.M)
		}
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := rng.Intn(120), rng.Intn(120)
		if seed < 4 {
			n, m = int(seed/2), int(seed%2) // 0x0, 0x1, 1x0, 1x1
		}
		check(fmt.Sprintf("random seed %d", seed), randomRect(rng, n, m))
	}
	for name, a := range map[string]*CSR{
		"Grid2D":  Grid2D(40, 40, true, GenOptions{Seed: 1}),
		"Grid3D":  Grid3D(10, 10, 10, GenOptions{Seed: 2}),
		"Circuit": Circuit(3000, 3, GenOptions{Seed: 3}),
		"memplus": MemoryCircuit(800, 4),
	} {
		check(name, a)
	}
}
