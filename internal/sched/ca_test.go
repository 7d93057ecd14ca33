package sched_test

import (
	"math/rand"
	"slices"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/sched"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
	"sstar/internal/taskgraph"
)

// computeAheadScan is ComputeAhead as first written: for every k it scans the
// whole Update chain of every later column for the updates from k, which
// costs O(NB × tasks). It is kept as the reference the one-pass builder must
// reproduce list for list.
func computeAheadScan(g *taskgraph.Graph, p int) *sched.Schedule {
	owner := sched.CyclicOwners(g.NB, p)
	s := &sched.Schedule{P: p, Owner: owner, Order: make([][]int, p)}
	assign := func(id int) {
		pr := owner[g.Tasks[id].J]
		s.Order[pr] = append(s.Order[pr], id)
	}
	assign(g.Factor(0))
	for k := 0; k < g.NB-1; k++ {
		for _, id := range g.Updates(k + 1) {
			if g.Tasks[id].K == k {
				assign(id)
			}
		}
		assign(g.Factor(k + 1))
		for j := k + 2; j < g.NB; j++ {
			for _, id := range g.Updates(j) {
				if g.Tasks[id].K == k {
					assign(id)
				}
			}
		}
	}
	return s
}

// sameCA fails unless ComputeAhead builds the reference's lists on g at every
// processor count from 1 to 16.
func sameCA(t *testing.T, label string, g *taskgraph.Graph) {
	t.Helper()
	for p := 1; p <= 16; p++ {
		got, want := sched.ComputeAhead(g, p), computeAheadScan(g, p)
		if !slices.Equal(got.Owner, want.Owner) {
			t.Fatalf("%s P=%d: owners differ", label, p)
		}
		for q := range want.Order {
			if !slices.Equal(got.Order[q], want.Order[q]) {
				t.Fatalf("%s P=%d: processor %d runs %v, the reference %v", label, p, q, got.Order[q], want.Order[q])
			}
		}
	}
}

// TestComputeAheadMatchesScan holds the one-pass ComputeAhead to the scanning
// reference over the benchmark suite (at a third of its size, adaptive
// blocking as the facade runs it) and over random matrices cut into random
// fixed-width partitions.
func TestComputeAheadMatchesScan(t *testing.T) {
	partition := func(a *sparse.CSR, o supernode.Options) *taskgraph.Graph {
		return taskgraph.Build(supernode.NewPartition(symbolic.Factorize(sparse.PatternOf(a)), o))
	}
	for _, spec := range bench.Suite() {
		sameCA(t, spec.Name, partition(spec.Gen(0.3), supernode.DefaultOptions()))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		seed := rng.Int63()
		var a *sparse.CSR
		switch i % 3 {
		case 0:
			a = sparse.Grid2D(4+rng.Intn(12), 4+rng.Intn(12), false, sparse.GenOptions{StructuralDrop: 0.2, Seed: seed})
		case 1:
			a = sparse.Grid3D(2+rng.Intn(5), 2+rng.Intn(5), 2+rng.Intn(4), sparse.GenOptions{DOF: 1 + rng.Intn(2), Seed: seed})
		default:
			a = sparse.Circuit(50+rng.Intn(300), 2+rng.Intn(4), sparse.GenOptions{StructuralDrop: 0.1, Seed: seed})
		}
		o := supernode.Options{MaxBlock: 1 + rng.Intn(12), Amalgamate: rng.Intn(6)}
		sameCA(t, "random", partition(a, o))
	}
}
