package core

import (
	"fmt"
	"math"
)

// DenseLU is an in-place dense GEPP factorization used as a numerical oracle
// by the tests and for the dense1000 rows of Table 2. a is n-by-n row-major
// and is overwritten with L (unit diagonal implied) and U; piv[k] records the
// row swapped into position k at step k.
func DenseLU(n int, a []float64, piv []int) error {
	for k := 0; k < n; k++ {
		p, best := k, math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > best {
				p, best = i, v
			}
		}
		if best == 0 {
			return fmt.Errorf("%w: dense zero pivot at step %d", ErrSingular, k)
		}
		piv[k] = p
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
		}
		d := a[k*n+k]
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= d
			l := a[i*n+k]
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= float64(l * a[k*n+j])
			}
		}
	}
	return nil
}

// DenseSolve solves A x = b given the in-place factors and pivots from
// DenseLU, overwriting b with x.
func DenseSolve(n int, lu []float64, piv []int, b []float64) {
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
		for i := k + 1; i < n; i++ {
			b[i] -= float64(lu[i*n+k] * b[k])
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= float64(lu[i*n+j] * b[j])
		}
		b[i] = s / lu[i*n+i]
	}
}

// DenseLUFlops returns the classical operation count 2/3 n^3 + O(n^2) for
// dense GEPP, used when reporting dense-matrix MFLOPS.
func DenseLUFlops(n int) int64 {
	nn := int64(n)
	return 2*nn*nn*nn/3 + nn*nn/2
}
