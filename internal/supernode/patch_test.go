package supernode

import (
	"math/rand"
	"reflect"
	"testing"

	"sstar/internal/sparse"
	"sstar/internal/symbolic"
)

// genericStruct is the O(structure) reference for strictStruct: the union of
// the trailing structures of every member column.
func genericStruct(st *symbolic.Static, lo, hi int) superStruct {
	var uc, lr []int32
	for c := lo; c < hi; c++ {
		for _, j := range st.URows[c] {
			if int(j) >= hi {
				uc = append(uc, j)
			}
		}
		for _, i := range st.LCols[c] {
			if int(i) >= hi {
				lr = append(lr, i)
			}
		}
	}
	return superStruct{lo: lo, hi: hi, ucols: sortDedup(uc), lrows: sortDedup(lr)}
}

// samePartition compares the structure and the blocking choice: everything
// but Times (timings legitimately differ run to run) and the lazily derived
// skeleton/plan caches (functions of the structure).
func samePartition(a, b *Partition) bool {
	return a.N == b.N && a.NB == b.NB && a.Choice == b.Choice &&
		reflect.DeepEqual(a.Start, b.Start) && reflect.DeepEqual(a.BlockOf, b.BlockOf) &&
		reflect.DeepEqual(a.UCols, b.UCols) && reflect.DeepEqual(a.LRows, b.LRows) &&
		reflect.DeepEqual(a.UBlocks, b.UBlocks) && reflect.DeepEqual(a.LBlocks, b.LBlocks)
}

// TestPartitionWorkerCountIndependent pins the determinism contract of the
// partitioning layer: fixed and adaptive blocking are reproduced exactly by
// a pinned rebuild of the same structure, whatever worker count the caller
// passes PatchPartition (the analyze phase is sequential; the count is
// accepted and ignored).
func TestPartitionWorkerCountIndependent(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Grid2D(18, 18, false, sparse.GenOptions{Seed: 1}),
		sparse.Circuit(400, 4, sparse.GenOptions{Seed: 5}),
		sparse.RandomSparse(250, 3, 9),
	}
	optsList := []Options{
		{},                            // adaptive
		{MaxBlock: 25, Amalgamate: 4}, // paper's fixed setup
		{MaxBlock: 8},                 // fixed, no amalgamation
		{Amalgamate: 6},               // adaptive with pinned r
	}
	for mi, a := range mats {
		st := symbolic.Factorize(sparse.PatternOf(a))
		for oi, o := range optsList {
			want := NewPartition(st, o)
			if !samePartition(NewPartition(st, o), want) {
				t.Fatalf("matrix %d opts %d: two partitions of one structure differ", mi, oi)
			}
			for _, w := range []int{0, 1, 2, 4, 8} {
				if !samePartition(PatchPartition(st, st, want, w), want) {
					t.Fatalf("matrix %d opts %d: self-patch at %d workers differs from the partition", mi, oi, w)
				}
			}
		}
	}
}

func eqI32(a, b []int32) bool {
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

// TestStrictStructMatchesUnion pins the O(1) supernode-structure shortcut:
// on strict bounds it equals the explicit trailing union.
func TestStrictStructMatchesUnion(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Grid2D(16, 16, false, sparse.GenOptions{Seed: 2}),
		sparse.Circuit(350, 4, sparse.GenOptions{Seed: 7}),
		sparse.RandomSparse(220, 3, 13),
	}
	for mi, a := range mats {
		st := symbolic.Factorize(sparse.PatternOf(a))
		bounds := detectSupernodes(st)
		for s := 0; s+1 < len(bounds); s++ {
			lo, hi := bounds[s], bounds[s+1]
			fast, ref := strictStruct(st, lo, hi), genericStruct(st, lo, hi)
			if !eqI32(fast.ucols, ref.ucols) || !eqI32(fast.lrows, ref.lrows) {
				t.Fatalf("mat %d supernode [%d,%d): strictStruct != union", mi, lo, hi)
			}
		}
	}
}

// TestPatchPartitionMatchesPinned pins the incremental partition contract:
// PatchPartition over a patched static equals building the pinned-choice
// partition on the new structure from scratch, for fixed and adaptive bases
// and random near-miss perturbations.
func TestPatchPartitionMatchesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	optsList := []Options{
		{},                            // adaptive
		{MaxBlock: 16, Amalgamate: 4}, // fixed
		{Amalgamate: 6},               // adaptive, pinned r
	}
	for trial := 0; trial < 30; trial++ {
		n := 30 + rng.Intn(120)
		a := sparse.RandomSparse(n, 3, rng.Int63())
		pert := sparse.PerturbPattern(a, 1+rng.Intn(4), rng.Intn(3), rng.Int63())
		oldPat, newPat := sparse.PatternOf(a), sparse.PatternOf(pert)
		oldSt := symbolic.Factorize(oldPat)
		newSt, stats := symbolic.Patch(oldSt, oldPat, newPat, 1.0)
		if newSt == nil {
			continue // diagonal lost under identity ordering; nothing to test
		}
		for oi, o := range optsList {
			base := NewPartition(oldSt, o)
			got := PatchPartition(newSt, oldSt, base, 0)
			want := pinnedPartition(newSt, base.Choice)
			if !samePartition(got, want) {
				t.Fatalf("trial %d opts %d: PatchPartition != pinnedPartition (recomputed %d/%d cols)",
					trial, oi, stats.Recomputed, n)
			}
		}
	}
}

// TestPatchPartitionIdenticalReusesBlocks: patching with an unchanged static
// (every column aliased) reuses every union slice of the base.
func TestPatchPartitionIdenticalReusesBlocks(t *testing.T) {
	a := sparse.Circuit(300, 4, sparse.GenOptions{Seed: 11})
	st := symbolic.Factorize(sparse.PatternOf(a))
	base := NewPartition(st, Options{})
	got := PatchPartition(st, st, base, 0)
	if !samePartition(got, pinnedPartition(st, base.Choice)) {
		t.Fatal("self-patch partition differs from pinned rebuild")
	}
	for b := 0; b < got.NB; b++ {
		if !sameSlice(got.UCols[b], base.UCols[b]) || !sameSlice(got.LRows[b], base.LRows[b]) {
			t.Fatalf("block %d: unions were recomputed instead of reused", b)
		}
	}
}
