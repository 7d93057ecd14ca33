package sstar

import (
	"sync"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/ordering"
	"sstar/internal/sparse"
)

// namedMatrix is a test matrix with the name its cases report.
type namedMatrix struct {
	name string
	a    *Matrix
}

// coldBases are the cold-start benchmark's three never-analyzed bases at
// benchmark scale (benchmark/library.go setupCold at -scale 1).
func coldBases() []namedMatrix {
	return []namedMatrix{
		{"sherman5@0.6", bench.ByName("sherman5").Gen(0.6)},
		{"circuit5000", GenCircuit(5000, 3, GenOptions{Seed: 7})},
		{"af23560@0.45", bench.ByName("af23560").Gen(0.45)},
	}
}

// coldNearMiss is a near-miss Patch case of a cold-start base: the
// benchmark's churn (1 in 200 entries added, half as many deleted) with
// structure-preserving insertions, deterministic in seed.
func coldNearMiss(a *Matrix, seed int64) *Matrix {
	churn := max(1, a.Nnz()/200)
	return GenPerturbLocal(a, churn, churn/2, seed)
}

// BenchmarkAnalyze times a cold Analyze of each cold-start base: ordering,
// static symbolic factorization and partitioning of a never-seen structure.
func BenchmarkAnalyze(b *testing.B) {
	for _, c := range coldBases() {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(c.a, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Sinks for BenchmarkOrdering's results, so no call is optimized away.
var (
	benchATA  *sparse.Pattern
	benchPerm []int
)

// BenchmarkOrdering times the two ordering stages of a cold Analyze of each
// cold-start base apart: ata builds the pattern of AᵀA from the
// transversal-permuted matrix, mindeg orders that pattern.
func BenchmarkOrdering(b *testing.B) {
	for _, c := range coldBases() {
		rp, _ := ordering.MaxTransversal(c.a)
		work := c.a.PermuteRows(rp)
		ata := sparse.ATAPattern(work)
		b.Run("ata/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchATA = sparse.ATAPattern(work)
			}
		})
		b.Run("mindeg/"+c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPerm = ordering.MinimumDegree(ata)
			}
		})
	}
}

// BenchmarkPatch times Analysis.Patch of a near miss of each cold-start
// base against the base's cached analysis.
func BenchmarkPatch(b *testing.B) {
	for _, c := range coldBases() {
		b.Run(c.name, func(b *testing.B) {
			an, err := Analyze(c.a, DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			miss := coldNearMiss(c.a, 36)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, info, err := an.Patch(miss); err != nil || !info.Patched {
					b.Fatalf("patch: %v (fallback %q)", err, info.Fallback)
				}
			}
		})
	}
}

// TestConcurrentPatchSharedBase: the analyze stages keep their scratch
// (union markers, merge buffers) per call, never on a shared Analysis. Four
// goroutines patch distinct near misses from one shared base while two more
// analyze from scratch; every result must equal its sequential twin.
func TestConcurrentPatchSharedBase(t *testing.T) {
	base := bench.ByName("sherman5").Gen(0.4)
	an, err := Analyze(base, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var misses []*Matrix
	for seed := int64(1); seed <= 4; seed++ {
		misses = append(misses, coldNearMiss(base, seed))
	}
	fresh := []*Matrix{bench.ByName("af23560").Gen(0.25), GenCircuit(1500, 3, GenOptions{Seed: 7})}

	patch := func(a *Matrix) analysisBits {
		p, info, err := an.Patch(a)
		if err != nil || !info.Patched {
			t.Errorf("patch: %v (fallback %q)", err, info.Fallback)
			return analysisBits{}
		}
		return hashAnalysis(p)
	}
	analyze := func(a *Matrix) analysisBits {
		full, err := Analyze(a, DefaultOptions())
		if err != nil {
			t.Error(err)
			return analysisBits{}
		}
		return hashAnalysis(full)
	}
	var want []analysisBits
	for _, a := range misses {
		want = append(want, patch(a))
	}
	for _, a := range fresh {
		want = append(want, analyze(a))
	}

	got := make([]analysisBits, len(want))
	var wg sync.WaitGroup
	for i, a := range misses {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = patch(a) }()
	}
	for i, a := range fresh {
		wg.Add(1)
		go func() { defer wg.Done(); got[len(misses)+i] = analyze(a) }()
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("case %d: concurrent analysis %v, sequential twin %v", i, got[i], want[i])
		}
	}
}
