package supernode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sstar/internal/sparse"
	"sstar/internal/symbolic"
)

// TestBestSplitRespectsPanelBound: for any supernode geometry, the chosen
// split never yields a panel wider than MaxAdaptivePanel (boundsOf gives the
// widest panel ceil(w/p) columns).
func TestBestSplitRespectsPanelBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := rng.Intn(500)
		l := rng.Intn(2000)
		u := rng.Intn(2000)
		p, cost := bestSplit(w, l, u)
		if p < 1 || cost <= 0 {
			return false
		}
		if w <= 0 {
			return p == 1
		}
		widest := (w + p - 1) / p
		return widest <= MaxAdaptivePanel
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptivePartitionInvariants: on random structures the adaptive
// partition must cover the matrix exactly, keep every panel within the hard
// width bound, and report a Choice consistent with what it built.
func TestAdaptivePartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(120)
		a := sparse.RandomSparse(n, 1+rng.Intn(4), seed)
		st := symbolic.Factorize(sparse.PatternOf(a))
		p := NewPartition(st, Options{})
		if !p.Choice.Adaptive {
			return false
		}
		if p.Start[0] != 0 || p.Start[p.NB] != n {
			return false
		}
		maxw := 0
		for b := 0; b < p.NB; b++ {
			w := p.Size(b)
			if w <= 0 || w > MaxAdaptivePanel {
				return false
			}
			if w > maxw {
				maxw = w
			}
			for c := p.Start[b]; c < p.Start[b+1]; c++ {
				if p.BlockOf[c] != b {
					return false
				}
			}
		}
		return p.Choice.MaxBlock == maxw && p.Choice.ModelCost > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptivePanelsRefineSupernodes: the adaptive panels only ever *split*
// the amalgamated supernodes, never straddle them — every supernode boundary
// of the same structure amalgamated at the chosen r (the unsplit partition,
// MaxBlock huge) must appear among the adaptive panel boundaries. Theorem 1
// density within panels follows from this containment.
func TestAdaptivePanelsRefineSupernodes(t *testing.T) {
	mats := []*sparse.CSR{
		sparse.Grid2D(12, 12, false, sparse.GenOptions{Seed: 31}),
		sparse.Circuit(300, 3, sparse.GenOptions{Seed: 32, StructuralDrop: 0.2}),
		sparse.RandomSparse(150, 3, 33),
	}
	for mi, a := range mats {
		st := symbolic.Factorize(sparse.PatternOf(a))
		p := NewPartition(st, Options{})
		coarse := NewPartition(st, Options{MaxBlock: a.N, Amalgamate: p.Choice.Amalgamate})
		fine := make(map[int]bool, p.NB+1)
		for b := 0; b <= p.NB; b++ {
			fine[p.Start[b]] = true
		}
		for b := 0; b <= coarse.NB; b++ {
			if !fine[coarse.Start[b]] {
				t.Fatalf("matrix %d: supernode boundary %d (r=%d) not an adaptive panel boundary",
					mi, coarse.Start[b], p.Choice.Amalgamate)
			}
		}
	}
}

// TestAdaptiveDeterministic: the chooser is a pure function of the
// structure — two partitions of the same Static agree exactly.
func TestAdaptiveDeterministic(t *testing.T) {
	a := sparse.Circuit(400, 3, sparse.GenOptions{Seed: 41, StructuralDrop: 0.15})
	st := symbolic.Factorize(sparse.PatternOf(a))
	p1 := NewPartition(st, Options{})
	p2 := NewPartition(st, Options{})
	if p1.Choice != p2.Choice {
		t.Fatalf("choices differ: %+v vs %+v", p1.Choice, p2.Choice)
	}
	if p1.NB != p2.NB {
		t.Fatalf("panel counts differ: %d vs %d", p1.NB, p2.NB)
	}
	for b := 0; b <= p1.NB; b++ {
		if p1.Start[b] != p2.Start[b] {
			t.Fatalf("boundary %d differs: %d vs %d", b, p1.Start[b], p2.Start[b])
		}
	}
}

// TestAdaptiveDenseGoesWide: on a dense matrix there is no padding penalty
// and plenty of flops, so the model must choose panels wider than the
// paper's fixed 25 — the whole point of making the width structure-aware.
// A dense structure is one supernode at every r, so every candidate costs
// the same and the sweep's tie-break must keep the lowest-index one.
func TestAdaptiveDenseGoesWide(t *testing.T) {
	st := symbolic.Factorize(sparse.PatternOf(sparse.Dense(300, 51)))
	p := NewPartition(st, Options{})
	if p.Choice.Amalgamate != adaptiveAmalgCandidates[0] {
		t.Fatalf("tied candidates chose r=%d, want the first, r=%d", p.Choice.Amalgamate, adaptiveAmalgCandidates[0])
	}
	if p.Choice.MaxBlock <= 25 {
		t.Fatalf("dense 300x300 chose max width %d, want > 25", p.Choice.MaxBlock)
	}
	if p.Choice.MaxBlock > MaxAdaptivePanel {
		t.Fatalf("max width %d above hard bound %d", p.Choice.MaxBlock, MaxAdaptivePanel)
	}
}

// TestAdaptivePinnedAmalgamate: a positive Options.Amalgamate under adaptive
// blocking pins r; the model only chooses panel widths.
func TestAdaptivePinnedAmalgamate(t *testing.T) {
	a := sparse.Grid2D(10, 10, false, sparse.GenOptions{Seed: 52})
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := NewPartition(st, Options{Amalgamate: 3})
	if !p.Choice.Adaptive || p.Choice.Amalgamate != 3 {
		t.Fatalf("pinned r not honored: %+v", p.Choice)
	}
}

// TestFixedPathChoice: an explicit MaxBlock keeps the fixed path and reports
// a non-adaptive choice carrying the configured knobs.
func TestFixedPathChoice(t *testing.T) {
	a := sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 53})
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := NewPartition(st, Options{MaxBlock: 25, Amalgamate: 4})
	want := Choice{Adaptive: false, MaxBlock: 25, Amalgamate: 4, ModelCost: 0}
	if p.Choice != want {
		t.Fatalf("fixed choice %+v, want %+v", p.Choice, want)
	}
}
