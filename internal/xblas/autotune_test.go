package xblas

import (
	"math/rand"
	"testing"
)

// TestTileShapeBitIdentical pins the safety argument of the autotuner: the
// cache-block shape only regroups packing and tile calls, never the
// per-element accumulation order, so every candidate shape must produce
// bitwise-identical GEMM output — at every kernel level the host runs, and
// across levels. Shapes that don't divide the problem evenly (edge tiles) are
// the interesting cases, so the problem sizes are ragged; mc = 4 and 20 give
// blocks of one and five strips, so a block ends in a lone strip or a 12-row
// tile.
func TestTileShapeBitIdentical(t *testing.T) {
	origMC, origNC := TileShape()
	defer func() {
		if err := SetTileShape(origMC, origNC); err != nil {
			t.Fatal(err)
		}
	}()
	shapes := append([]tileShape{{mc: 4, nc: 8}, {mc: 20, nc: 24}}, tileCandidates...)

	rng := rand.New(rand.NewSource(7))
	dims := []struct{ m, n, k int }{
		{7, 5, 3},
		{65, 129, 33},
		{200, 300, 25},
		{257, 513, 64},
	}
	for _, d := range dims {
		a := make([]float64, d.m*d.k)
		b := make([]float64, d.k*d.n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		var ref []float64
		forEachLevel(t, func(t *testing.T) {
			for _, cand := range shapes {
				if err := SetTileShape(cand.mc, cand.nc); err != nil {
					t.Fatal(err)
				}
				c := make([]float64, d.m*d.n)
				for i := range c {
					c[i] = 1.5 // non-zero so the subtract path is exercised
				}
				Gemm(d.m, d.n, d.k, a, d.k, b, d.n, c, d.n)
				if ref == nil {
					ref = c
					continue
				}
				for i := range c {
					if c[i] != ref[i] {
						t.Fatalf("m=%d n=%d k=%d tile (%d,%d): c[%d] = %v, want %v (bitwise)",
							d.m, d.n, d.k, cand.mc, cand.nc, i, c[i], ref[i])
					}
				}
			}
		})
	}
}

func TestSetTileShapeValidation(t *testing.T) {
	origMC, origNC := TileShape()
	defer SetTileShape(origMC, origNC)

	for _, bad := range []struct{ mc, nc int }{
		{0, 256}, {96, 0}, {-4, 8}, {6, 256}, {96, 12},
	} {
		if err := SetTileShape(bad.mc, bad.nc); err == nil {
			t.Errorf("SetTileShape(%d, %d): want error", bad.mc, bad.nc)
		}
	}
	if err := SetTileShape(64, 128); err != nil {
		t.Fatalf("SetTileShape(64, 128): %v", err)
	}
	if mc, nc := TileShape(); mc != 64 || nc != 128 {
		t.Fatalf("TileShape() = (%d, %d), want (64, 128)", mc, nc)
	}
}

// TestAutotuneIdempotent checks Autotune runs its measurement once, returns a
// stable decision, and publishes a valid shape.
func TestAutotuneIdempotent(t *testing.T) {
	if testing.Short() {
		t.Skip("autotune measurement in -short mode")
	}
	first := Autotune()
	if !first.Autotuned {
		t.Fatal("Autotune(): Autotuned = false")
	}
	if first.MC <= 0 || first.MC%mr != 0 || first.NC <= 0 || first.NC%nr != 0 {
		t.Fatalf("Autotune() chose invalid shape (%d, %d)", first.MC, first.NC)
	}
	if first.GemmNs <= 0 || first.TrsmNs <= 0 {
		t.Fatalf("Autotune() timings not positive: %+v", first)
	}
	second := Autotune()
	if second != first {
		t.Fatalf("Autotune() second call = %+v, want cached %+v", second, first)
	}
	cached, ok := AutotuneResult()
	if !ok || cached != first {
		t.Fatalf("AutotuneResult() = %+v, %v; want %+v, true", cached, ok, first)
	}
	if mc, nc := TileShape(); mc != first.MC || nc != first.NC {
		t.Fatalf("TileShape() = (%d, %d) after Autotune, want (%d, %d)", mc, nc, first.MC, first.NC)
	}
}
