package xblas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func randMat(rng *rand.Rand, m, n int) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = 2*rng.Float64() - 1
	}
	return a
}

// naiveGemm computes C -= A*B elementwise for reference.
func naiveGemm(m, n, k int, a, b, c []float64, lda, ldb, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i*lda+l] * b[l*ldb+j]
			}
			c[i*ldc+j] -= s
		}
	}
}

func maxDiff(x, y []float64) float64 {
	d := 0.0
	for i := range x {
		if v := math.Abs(x[i] - y[i]); v > d {
			d = v
		}
	}
	return d
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Fatalf("Dot = %v, want 11", got)
	}
}

func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 13, 11}, {64, 64, 64}, {100, 3, 70}, {5, 120, 2}} {
		m, n, k := dims[0], dims[1], dims[2]
		a := randMat(rng, m, k)
		b := randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := append([]float64(nil), c...)
		naiveGemm(m, n, k, a, b, want, k, n, n)
		Gemm(m, n, k, a, k, b, n, c, n)
		if d := maxDiff(c, want); d > 1e-10 {
			t.Fatalf("Gemm(%d,%d,%d) diff %g", m, n, k, d)
		}
	}
}

func TestGemmStrided(t *testing.T) {
	// Operate on a sub-block of a larger matrix via leading dimensions.
	rng := rand.New(rand.NewSource(4))
	lda, ldb, ldc := 10, 12, 11
	m, n, k := 4, 5, 6
	a := randMat(rng, 8, lda)
	b := randMat(rng, 8, ldb)
	c := randMat(rng, 8, ldc)
	want := append([]float64(nil), c...)
	naiveGemm(m, n, k, a, b, want, lda, ldb, ldc)
	Gemm(m, n, k, a, lda, b, ldb, c, ldc)
	if maxDiff(c, want) > 1e-10 {
		t.Fatal("strided Gemm mismatch")
	}
}

func TestGemmEmpty(t *testing.T) {
	c := []float64{1, 2, 3, 4}
	Gemm(0, 2, 2, nil, 1, nil, 2, c, 2)
	Gemm(2, 2, 0, nil, 1, nil, 2, c, 2)
	if c[0] != 1 || c[3] != 4 {
		t.Fatal("empty Gemm modified C")
	}
}

func TestTrsmLowerUnitLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k, n := 6, 4
	l := randMat(rng, k, k)
	for i := 0; i < k; i++ {
		l[i*k+i] = 1
		for j := i + 1; j < k; j++ {
			l[i*k+j] = 0
		}
	}
	x := randMat(rng, k, n)
	b := make([]float64, k*n)
	// b = L*x
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p <= i; p++ {
				s += l[i*k+p] * x[p*n+j]
			}
			b[i*n+j] = s
		}
	}
	TrsmLowerUnitLeft(k, n, l, k, b, n)
	if maxDiff(b, x) > 1e-10 {
		t.Fatal("TrsmLowerUnitLeft failed to recover X")
	}
}

func TestTrsvLowerUnitUpper(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8
	l := randMat(rng, n, n)
	u := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		l[i*n+i] = 1
		u[i*n+i] = 2 + rng.Float64()
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
		for j := 0; j < i; j++ {
			u[i*n+j] = 0
		}
	}
	x := randMat(rng, n, 1)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b[i] += l[i*n+j] * x[j]
		}
	}
	TrsvLowerUnit(n, l, n, b)
	if maxDiff(b, x) > 1e-10 {
		t.Fatal("TrsvLowerUnit mismatch")
	}
	b2 := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b2[i] += u[i*n+j] * x[j]
		}
	}
	TrsvUpper(n, u, n, b2)
	if maxDiff(b2, x) > 1e-10 {
		t.Fatal("TrsvUpper mismatch")
	}
}

// Property: Gemm is linear in A — Gemm with A1+A2 equals sequential Gemm with
// A1 then A2.
func TestGemmLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n, k := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a1 := randMat(rng, m, k)
		a2 := randMat(rng, m, k)
		sum := make([]float64, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		b := randMat(rng, k, n)
		c1 := randMat(rng, m, n)
		c2 := append([]float64(nil), c1...)
		Gemm(m, n, k, sum, k, b, n, c1, n)
		Gemm(m, n, k, a1, k, b, n, c2, n)
		Gemm(m, n, k, a2, k, b, n, c2, n)
		return maxDiff(c1, c2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
