package xblas

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refPackB is the image packUpdateB must leave, from its definition: the
// windows open at each nonzero column (bits other than the sign set in some
// row) past the last window's reach; when they take fewer strips than the
// plain layout, strip q holds columns starts[q].., else columns q*nr..; lanes
// past column n are +0.
func refPackB(b []float64, ldb, k, n int) (img []float64, starts []int32, skip bool) {
	next := 0
	for j := 0; j < n; j++ {
		var o uint64
		for l := 0; l < k; l++ {
			o |= math.Float64bits(b[l*ldb+j])
		}
		if j >= next && o<<1 != 0 {
			starts = append(starts, int32(j))
			next = j + nr
		}
	}
	strips := (n + nr - 1) / nr
	skip = len(starts) < strips
	if skip {
		strips = len(starts)
	}
	img = make([]float64, strips*nr*k)
	for q := 0; q < strips; q++ {
		c := q * nr
		if skip {
			c = int(starts[q])
		}
		for l := 0; l < k; l++ {
			for j := 0; j < nr && c+j < n; j++ {
				img[q*nr*k+l*nr+j] = b[l*ldb+c+j]
			}
		}
	}
	return img, starts, skip
}

// zeroPatterns are the column patterns TestPackUpdateBImage writes into B:
// true marks a column of zeros (either sign, mixed by row).
var zeroPatterns = []struct {
	name string
	zero func(n, o int, rng *rand.Rand) []bool
}{
	{"none", func(n, _ int, _ *rand.Rand) []bool { return make([]bool, n) }},
	{"all", func(n, _ int, _ *rand.Rand) []bool { return filled(n, func(int) bool { return true }) }},
	// The first o columns are zero: the first window opens at lane o.
	{"lead", func(n, o int, _ *rand.Rand) []bool { return filled(n, func(j int) bool { return j < o }) }},
	// A run of zeros that ends at lane o of strip 1, so the second window
	// opens mid-strip and the last one can be short.
	{"midstrip", func(n, o int, _ *rand.Rand) []bool {
		return filled(n, func(j int) bool { return j >= 3 && j < nr+o })
	}},
	// Only column o of each 2*nr and the last column hold a nonzero.
	{"sparse", func(n, o int, _ *rand.Rand) []bool {
		return filled(n, func(j int) bool { return j%(2*nr) != o && j != n-1 })
	}},
	{"random", func(n, _ int, rng *rand.Rand) []bool {
		p := rng.Float64()
		return filled(n, func(int) bool { return rng.Float64() < p })
	}},
}

// TestPackUpdateBImage packs B directly at every kernel level and holds the
// packed image — the strips GemmUpdate multiplies, the window starts and the
// skip flag — to refPackB bit for bit: every n in 1..40 against depths from
// one row to 128, ldb = n and wider, zero columns opening windows at every
// lane offset, columns that are zero but for one row, and columns of -0,
// NaN and ±Inf. B ends at the last element the last strip reads, so a pack
// that reads further panics.
func TestPackUpdateBImage(t *testing.T) {
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	forEachLevel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		var pk Packs
		for _, k := range []int{1, 2, 3, 16, 60, 128} {
			for n := 1; n <= 40; n++ {
				for _, p := range zeroPatterns {
					o := rng.Intn(nr)
					zero := p.zero(n, o, rng)
					ldb := n
					if rng.Intn(2) == 0 {
						ldb += 1 + rng.Intn(9)
					}
					b := randMat(rng, k, ldb)[:(k-1)*ldb+n]
					for j, z := range zero {
						switch {
						case z:
							for l := 0; l < k; l++ {
								b[l*ldb+j] = math.Copysign(0, float64(rng.Intn(2)*2-1))
							}
						case rng.Intn(6) == 0: // zero but for one row
							for l := 0; l < k; l++ {
								b[l*ldb+j] = 0
							}
							b[rng.Intn(k)*ldb+j] = specials[rng.Intn(len(specials))]
						}
					}
					img, starts, skip := refPackB(b, ldb, k, n)
					pk.packUpdateB(b, ldb, k, n)
					if pk.skip != skip || !slices.Equal(pk.starts, starts) ||
						len(pk.b) < len(img) || !bitEqual(img, pk.b[:len(img)]) {
						t.Fatalf("k=%d n=%d ldb=%d %s(%d): packed image differs from the reference: skip %v want %v, starts %v want %v",
							k, n, ldb, p.name, o, pk.skip, skip, pk.starts, starts)
					}
				}
			}
		}
	})
}

// BenchmarkPackUpdateB packs B panels of the shapes the factorization's U
// blocks take (k rows by n columns), dense and with 40 % of the columns zero
// (windows packed again from B), at every kernel level the host runs.
// Bytes are B's k*n values.
func BenchmarkPackUpdateB(b *testing.B) {
	defer func(l int) { level = l }(level)
	shapes := []struct {
		k, n int
		zero float64
	}{{16, 60, 0}, {32, 32, 0}, {60, 60, 0}, {60, 60, 0.4}, {128, 128, 0}}
	for l := hostLevel; l >= levelPortable; l-- {
		level = l
		for _, s := range shapes {
			name := fmt.Sprintf("%s/%dx%d", levelNames[l], s.k, s.n)
			if s.zero > 0 {
				name += fmt.Sprintf("-zero%.0f", 100*s.zero)
			}
			b.Run(name, func(b *testing.B) {
				rng := rand.New(rand.NewSource(7))
				bm := randMat(rng, s.k, s.n)
				for j := 0; j < s.n; j++ {
					if rng.Float64() < s.zero {
						for l := 0; l < s.k; l++ {
							bm[l*s.n+j] = 0
						}
					}
				}
				var pk Packs
				b.SetBytes(int64(8 * s.k * s.n))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pk.packUpdateB(bm, s.n, s.k, s.n)
				}
			})
		}
	}
}
