package supernode

import (
	"reflect"
	"testing"

	"sstar/internal/sparse"
	"sstar/internal/symbolic"
)

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
// partitioning layer: fixed and adaptive blocking produce structurally
// identical partitions at every worker count, including with the parallel
// detection path forced on.
func TestPartitionWorkerCountIndependent(t *testing.T) {
	oldMin := partParMin
	partParMin = 2
	t.Cleanup(func() { partParMin = oldMin })
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
			want := NewPartition(st, o) // Workers == 0: sequential
			for _, w := range []int{1, 2, 4, 8} {
				o.Workers = w
				got := NewPartition(st, o)
				if !samePartition(got, want) {
					t.Fatalf("matrix %d opts %d: partition at %d workers differs from sequential", mi, oi, w)
				}
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
