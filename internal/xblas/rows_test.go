package xblas

import (
	"math"
	"math/rand"
	"testing"
)

// wildMat is spiceMat with a rare infinity or NaN mixed in, so some rows of
// every shape carry a non-finite value through their sums.
func wildMat(rng *rand.Rand, m, n int) []float64 {
	a := spiceMat(rng, m, n)
	for i := range a {
		switch rng.Intn(96) {
		case 0:
			a[i] = math.Inf(1)
		case 1:
			a[i] = math.Inf(-1)
		case 2:
			a[i] = math.NaN()
		}
	}
	return a
}

// sameValues is bitEqual up to NaN payloads: which NaN an operation on two
// NaNs returns follows the operand order the compiler happens to emit, which
// Go does not specify, so a NaN must meet a NaN and every other value its
// exact bits.
func sameValues(x, y []float64) bool {
	for i := range x {
		if math.IsNaN(x[i]) != math.IsNaN(y[i]) || !math.IsNaN(x[i]) && math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// refTrsvLowerUnit and refTrsvUpper are the one-row-at-a-time loops the
// grouped kernels must reproduce, each product rounded before it is
// subtracted.
func refTrsvLowerUnit(n int, l []float64, ldl int, b []float64) {
	for i := 1; i < n; i++ {
		s := b[i]
		for p := 0; p < i; p++ {
			s -= float64(l[i*ldl+p] * b[p])
		}
		b[i] = s
	}
}

func refTrsvUpper(n int, u []float64, ldu int, b []float64) {
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for p := i + 1; p < n; p++ {
			s -= float64(u[i*ldu+p] * b[p])
		}
		b[i] = s / u[i*ldu+i]
	}
}

// TestDotRowsBitMatchesDot holds DotRows and DotRowsGather to Dot row by row
// (the gathered twin to the same sum over y[cols[q]]) on every row count
// past four groups and every length past eight cache lines, strides wider
// than the rows, with signed zeros, subnormals, infinities and NaNs.
func TestDotRowsBitMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for m := 0; m <= 19; m++ {
		for k := 0; k <= 70; k++ {
			lda := k + rng.Intn(4)
			a, x := wildMat(rng, m, lda), wildMat(rng, 1, k)
			out := wildMat(rng, 1, m)
			DotRows(m, k, a, lda, x, out)
			want := make([]float64, m)
			for r := range want {
				want[r] = Dot(a[r*lda:r*lda+k], x)
			}
			if !sameValues(out, want) {
				t.Fatalf("DotRows m=%d k=%d lda=%d: %v, want %v", m, k, lda, out, want)
			}

			y := wildMat(rng, 1, 2*k+1)
			cols := make([]int32, k)
			for q := range cols {
				cols[q] = int32(rng.Intn(len(y)))
			}
			gx := make([]float64, k)
			for q, c := range cols {
				gx[q] = y[c]
			}
			DotRowsGather(m, a, lda, cols, y, out)
			for r := range want {
				want[r] = Dot(a[r*lda:r*lda+k], gx)
			}
			if !sameValues(out, want) {
				t.Fatalf("DotRowsGather m=%d k=%d lda=%d: %v, want %v", m, k, lda, out, want)
			}
		}
	}
}

// TestTrsvBitMatchesRowLoop holds the grouped TrsvLowerUnit and TrsvUpper to
// the one-row-at-a-time loops on every order past seventeen groups, with
// strides wider than the rows and the same mix of special values.
func TestTrsvBitMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 4; trial++ {
			ld := n + rng.Intn(4)
			tri, b := wildMat(rng, n, ld), wildMat(rng, 1, n)
			got, want := append([]float64(nil), b...), append([]float64(nil), b...)
			TrsvLowerUnit(n, tri, ld, got)
			refTrsvLowerUnit(n, tri, ld, want)
			if !sameValues(got, want) {
				t.Fatalf("TrsvLowerUnit n=%d ld=%d: %v, want %v", n, ld, got, want)
			}
			got, want = append(got[:0], b...), append(want[:0], b...)
			TrsvUpper(n, tri, ld, got)
			refTrsvUpper(n, tri, ld, want)
			if !sameValues(got, want) {
				t.Fatalf("TrsvUpper n=%d ld=%d: %v, want %v", n, ld, got, want)
			}
		}
	}
}
