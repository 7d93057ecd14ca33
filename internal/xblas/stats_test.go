package xblas

import "testing"

func TestStatsCounting(t *testing.T) {
	EnableStats()
	defer DisableStats()

	m, n, k := 8, 8, 8
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = float64(i%7) + 1
	}
	for i := range b {
		b[i] = float64(i%5) + 1
	}
	Gemm(m, n, k, a, k, b, n, c, n)

	s, on := ReadStats()
	if !on {
		t.Fatal("stats should be enabled")
	}
	if s.GemmCalls != 1 {
		t.Fatalf("GemmCalls = %d, want 1", s.GemmCalls)
	}
	if want := int64(2 * m * n * k); s.GemmFlops != want {
		t.Fatalf("GemmFlops = %d, want %d", s.GemmFlops, want)
	}
	if want := int64(8 * (m*k + k*n + m*n)); s.GemmBytes != want {
		t.Fatalf("GemmBytes = %d, want %d", s.GemmBytes, want)
	}

	// A scatter call with one masked row/column counts the compacted shape.
	rowPos := []int{0, 1, -1, 3, 4, 5, 6, 7}
	colPos := []int{0, 1, 2, 3, -1, 5, 6, 7}
	GemmScatter(m, n, k, a, k, b, n, c, n, rowPos, colPos)
	s, _ = ReadStats()
	if s.ScatterCalls != 1 {
		t.Fatalf("ScatterCalls = %d, want 1", s.ScatterCalls)
	}
	if want := int64(2 * 7 * 7 * k); s.ScatterFlops != want {
		t.Fatalf("ScatterFlops = %d, want %d", s.ScatterFlops, want)
	}

	// TRSM counts its own flop formula; its trailing GEMM sub-calls land in
	// the Gemm counters on top.
	l := make([]float64, k*k)
	for i := 0; i < k; i++ {
		l[i*k+i] = 1
	}
	TrsmLowerUnitLeft(k, n, l, k, c, n)
	s, _ = ReadStats()
	if s.TrsmCalls != 1 {
		t.Fatalf("TrsmCalls = %d, want 1", s.TrsmCalls)
	}
	if want := int64(n * k * (k - 1)); s.TrsmFlops != want {
		t.Fatalf("TrsmFlops = %d, want %d", s.TrsmFlops, want)
	}

	DisableStats()
	if _, on := ReadStats(); on {
		t.Fatal("stats should be disabled")
	}
}

// TestStatsDisabledZeroAlloc is the kernel half of the overhead guard: with
// stats disabled (the default), the counting hook in the small-GEMM path
// must allocate nothing — the whole disabled cost is one atomic pointer
// load and a nil check per kernel call.
func TestStatsDisabledZeroAlloc(t *testing.T) {
	DisableStats()
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	c := make([]float64, 4)
	allocs := testing.AllocsPerRun(1000, func() {
		Gemm(2, 2, 2, a, 2, b, 2, c, 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled-stats Gemm allocates: %v allocs/op, want 0", allocs)
	}
}

// TestGemmUpdateHeldPacksZeroAlloc: with the caller's Packs held across calls,
// a packed GemmUpdate that brings a new B each time allocates nothing once
// the buffers have grown, whether B's pack keeps every strip or packs windows
// that skip the zero columns again from B, at every kernel level.
func TestGemmUpdateHeldPacksZeroAlloc(t *testing.T) {
	DisableStats()
	const m, n, k = 24, 40, 16
	a, c := make([]float64, m*k), make([]float64, m*n)
	dense, sparse := make([]float64, k*n), make([]float64, k*n)
	for i := range a {
		a[i] = float64(i%7+1) / 64
	}
	for i := range dense {
		dense[i] = float64(i%5+1) / 64
		if j := i % n; j < 3 || j >= nr+2 && j < 3*nr+2 {
			continue // zero columns: the windows open at columns 3, 26 and 34
		}
		sparse[i] = dense[i]
	}
	forEachLevel(t, func(t *testing.T) {
		var pk Packs
		for _, tc := range []struct {
			name string
			b    []float64
			skip bool
		}{{"dense", dense, false}, {"windows", sparse, true}} {
			allocs := testing.AllocsPerRun(100, func() {
				pk.NewB()
				GemmUpdate(m, n, k, a, k, tc.b, n, c, n, Dest{}, &pk, nil)
			})
			if pk.skip != tc.skip {
				t.Fatalf("%s: B's pack skip = %v, want %v", tc.name, pk.skip, tc.skip)
			}
			if allocs != 0 {
				t.Fatalf("%s: GemmUpdate with a held Packs allocates %v per call, want 0", tc.name, allocs)
			}
		}
	})
}
