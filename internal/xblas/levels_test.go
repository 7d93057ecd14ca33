package xblas_test

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"sstar"
	"sstar/internal/bench"
	"sstar/internal/wire"
	"sstar/internal/xblas"
)

// TestFacadeBitsAcrossLevels factors a big-supernode (ex11) and a
// small-supernode (lnsp3937) suite matrix through the facade at every kernel
// level the host runs: the value slab and pivots (the factors and pivots
// sections of the Save stream) and the first solution must be the same bits
// at each.
func TestFacadeBitsAcrossLevels(t *testing.T) {
	for _, name := range []string{"ex11", "lnsp3937"} {
		a := bench.ByName(name).Gen(0.5)
		b := make([]float64, a.N)
		for i := range b {
			b[i] = math.Sin(float64(i + 1))
		}
		var refVals, refX []float64
		var refPiv []int32
		for _, lvl := range xblas.Levels() {
			restore := xblas.ForceLevel(lvl)
			f, err := sstar.Factorize(a, sstar.DefaultOptions())
			if err != nil {
				restore()
				t.Fatalf("%s at %s: %v", name, lvl, err)
			}
			x, err := f.Solve(b)
			var vals []float64
			var piv []int32
			if err == nil {
				vals, piv, err = savedFactors(f)
			}
			restore()
			if err != nil {
				t.Fatalf("%s at %s: %v", name, lvl, err)
			}
			if refVals == nil {
				refVals, refPiv, refX = vals, piv, x
				continue
			}
			if !sameBits(vals, refVals) || !slices.Equal(piv, refPiv) || !sameBits(x, refX) {
				t.Errorf("%s: factors, pivots or x at %s differ from %s", name, lvl, xblas.Levels()[0])
			}
		}
	}
}

// savedFactors returns the value slab and pivots f saves: sections two and
// three of the Save stream, after the header and the symbolic analysis.
func savedFactors(f *sstar.Factorization) ([]float64, []int32, error) {
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		return nil, nil, err
	}
	var payloads [][]byte
	for range 4 {
		_, p, err := wire.ReadFrame(&buf, 1<<30)
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, p)
	}
	var vals []float64
	var piv []int32
	if err := wire.DecodeGob(payloads[2], &vals); err != nil {
		return nil, nil, err
	}
	return vals, piv, wire.DecodeGob(payloads[3], &piv)
}

func sameBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
}
