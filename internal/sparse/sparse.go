// Package sparse provides the sparse-matrix substrate for the S* sparse LU
// library: coordinate (COO), compressed-sparse-row (CSR) and
// compressed-sparse-column (CSC) storage, conversions, structural products
// such as A^T A, Matrix Market I/O, structural statistics, and the synthetic
// matrix generators used by the benchmark suite.
//
// Row and column indices are 0-based throughout.
package sparse

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Triplet is a single (row, column, value) entry of a COO matrix.
type Triplet struct {
	Row, Col int
	Val      float64
}

// COO is a sparse matrix in coordinate form. Duplicate entries are allowed
// until Compact is called; most constructors call Compact themselves.
type COO struct {
	N       int // number of rows
	M       int // number of columns
	Entries []Triplet
}

// NewCOO returns an empty n-by-m coordinate matrix.
func NewCOO(n, m int) *COO {
	return &COO{N: n, M: m}
}

// Add appends entry (i, j, v). Panics if the indices are out of range.
func (a *COO) Add(i, j int, v float64) {
	if i < 0 || i >= a.N || j < 0 || j >= a.M {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d matrix", i, j, a.N, a.M))
	}
	a.Entries = append(a.Entries, Triplet{i, j, v})
}

// Compact sorts the entries into row-major order and sums duplicates.
func (a *COO) Compact() {
	sort.Slice(a.Entries, func(p, q int) bool {
		ep, eq := a.Entries[p], a.Entries[q]
		if ep.Row != eq.Row {
			return ep.Row < eq.Row
		}
		return ep.Col < eq.Col
	})
	out := a.Entries[:0]
	for _, e := range a.Entries {
		if n := len(out); n > 0 && out[n-1].Row == e.Row && out[n-1].Col == e.Col {
			out[n-1].Val += e.Val
		} else {
			out = append(out, e)
		}
	}
	a.Entries = out
}

// CSR is a sparse matrix in compressed-sparse-row form. Row i occupies
// positions RowPtr[i]..RowPtr[i+1] of ColInd/Val, with column indices sorted
// in increasing order within each row.
type CSR struct {
	N, M   int
	RowPtr []int
	ColInd []int
	Val    []float64
}

// CSC is a sparse matrix in compressed-sparse-column form, the transpose
// layout of CSR.
type CSC struct {
	N, M   int
	ColPtr []int
	RowInd []int
	Val    []float64
}

// Nnz returns the number of stored entries.
func (a *CSR) Nnz() int { return len(a.ColInd) }

// Validate reports an error unless a is a well-formed CSR matrix: non-nil,
// with nonnegative dimensions, N+1 row pointers that start at 0, never
// decrease and end at len(ColInd), one value per column index, and every
// column index in [0, M). Row, MulVec and the rest of the package assume
// all of this without checking, so a matrix from outside the process is
// validated once before any of them runs.
func (a *CSR) Validate() error {
	if a == nil {
		return errors.New("sparse: nil matrix")
	}
	if a.N < 0 || a.M < 0 {
		return fmt.Errorf("sparse: negative shape %dx%d", a.N, a.M)
	}
	if len(a.RowPtr) != a.N+1 {
		return fmt.Errorf("sparse: %d row pointers for %d rows, want %d", len(a.RowPtr), a.N, a.N+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: row pointers start at %d, want 0", a.RowPtr[0])
	}
	for i := 0; i < a.N; i++ {
		if a.RowPtr[i+1] < a.RowPtr[i] {
			return fmt.Errorf("sparse: row pointers decrease at row %d", i)
		}
	}
	if a.RowPtr[a.N] != len(a.ColInd) {
		return fmt.Errorf("sparse: row pointers end at %d, want %d (the column index count)", a.RowPtr[a.N], len(a.ColInd))
	}
	if len(a.Val) != len(a.ColInd) {
		return fmt.Errorf("sparse: %d values for %d column indices", len(a.Val), len(a.ColInd))
	}
	for k, j := range a.ColInd {
		if j < 0 || j >= a.M {
			return fmt.Errorf("sparse: column index %d at position %d outside [0, %d)", j, k, a.M)
		}
	}
	return nil
}

// Nnz returns the number of stored entries.
func (a *CSC) Nnz() int { return len(a.RowInd) }

// ToCSR converts the coordinate matrix to CSR form. The receiver is
// compacted as a side effect.
func (a *COO) ToCSR() *CSR {
	a.Compact()
	c := &CSR{
		N:      a.N,
		M:      a.M,
		RowPtr: make([]int, a.N+1),
		ColInd: make([]int, len(a.Entries)),
		Val:    make([]float64, len(a.Entries)),
	}
	for _, e := range a.Entries {
		c.RowPtr[e.Row+1]++
	}
	for i := 0; i < a.N; i++ {
		c.RowPtr[i+1] += c.RowPtr[i]
	}
	pos := make([]int, a.N)
	copy(pos, c.RowPtr[:a.N])
	for _, e := range a.Entries {
		p := pos[e.Row]
		c.ColInd[p] = e.Col
		c.Val[p] = e.Val
		pos[e.Row]++
	}
	return c
}

// Row returns the column indices and values of row i as sub-slices; callers
// must not modify the index slice.
func (a *CSR) Row(i int) ([]int, []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColInd[lo:hi], a.Val[lo:hi]
}

// Col returns the row indices and values of column j as sub-slices.
func (a *CSC) Col(j int) ([]int, []float64) {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowInd[lo:hi], a.Val[lo:hi]
}

// At returns the value at (i, j), or 0 if no entry is stored there.
func (a *CSR) At(i, j int) float64 {
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// ToCSC converts to compressed-sparse-column form.
func (a *CSR) ToCSC() *CSC {
	ptr, rows := a.ColumnPattern()
	c := &CSC{N: a.N, M: a.M, ColPtr: ptr, RowInd: rows, Val: make([]float64, len(rows))}
	next := slices.Clone(ptr[:a.M])
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColInd[k]
			c.Val[next[j]] = a.Val[k]
			next[j]++
		}
	}
	return c
}

// ToCSR converts to compressed-sparse-row form.
func (c *CSC) ToCSR() *CSR {
	a := &CSR{
		N:      c.N,
		M:      c.M,
		RowPtr: make([]int, c.N+1),
		ColInd: make([]int, c.Nnz()),
		Val:    make([]float64, c.Nnz()),
	}
	for _, i := range c.RowInd {
		a.RowPtr[i+1]++
	}
	for i := 0; i < c.N; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	pos := make([]int, c.N)
	copy(pos, a.RowPtr[:c.N])
	for j := 0; j < c.M; j++ {
		rows, vals := c.Col(j)
		for k, i := range rows {
			p := pos[i]
			a.ColInd[p] = j
			a.Val[p] = vals[k]
			pos[i]++
		}
	}
	return a
}

// Transpose returns A^T in CSR form.
func (a *CSR) Transpose() *CSR {
	c := a.ToCSC()
	return &CSR{N: a.M, M: a.N, RowPtr: c.ColPtr, ColInd: c.RowInd, Val: c.Val}
}

// Clone returns a deep copy.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		N:      a.N,
		M:      a.M,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColInd: append([]int(nil), a.ColInd...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// PermuteRows returns P·A where row perm[i] of the result is row i of A;
// i.e. new row index of old row i is perm[i].
func (a *CSR) PermuteRows(perm []int) *CSR {
	if len(perm) != a.N {
		panic("sparse: row permutation length mismatch")
	}
	inv := InversePerm(perm)
	b := &CSR{N: a.N, M: a.M, RowPtr: make([]int, a.N+1)}
	for newRow := 0; newRow < a.N; newRow++ {
		old := inv[newRow]
		b.RowPtr[newRow+1] = b.RowPtr[newRow] + (a.RowPtr[old+1] - a.RowPtr[old])
	}
	b.ColInd = make([]int, a.Nnz())
	b.Val = make([]float64, a.Nnz())
	for newRow := 0; newRow < a.N; newRow++ {
		old := inv[newRow]
		cols, vals := a.Row(old)
		copy(b.ColInd[b.RowPtr[newRow]:], cols)
		copy(b.Val[b.RowPtr[newRow]:], vals)
	}
	return b
}

// PermuteCols returns A·P^T where column j of A becomes column perm[j] of the
// result.
func (a *CSR) PermuteCols(perm []int) *CSR {
	if len(perm) != a.M {
		panic("sparse: column permutation length mismatch")
	}
	b := &CSR{
		N:      a.N,
		M:      a.M,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColInd: make([]int, len(a.ColInd)),
		Val:    make([]float64, len(a.Val)),
	}
	// Re-sort each row's entries by the new column indices, through one
	// pair buffer for the whole call. The indices within a row are
	// distinct, so the order is total and the sort's stability moot.
	type pair struct {
		c int
		v float64
	}
	var ps []pair
	for i := 0; i < a.N; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		ps = ps[:0]
		for p := lo; p < hi; p++ {
			ps = append(ps, pair{perm[a.ColInd[p]], a.Val[p]})
		}
		slices.SortFunc(ps, func(x, y pair) int { return cmp.Compare(x.c, y.c) })
		for k, e := range ps {
			b.ColInd[lo+k] = e.c
			b.Val[lo+k] = e.v
		}
	}
	return b
}

// Permute returns P_r·A·P_c^T with row permutation rowPerm and column
// permutation colPerm (either may be nil for identity).
func (a *CSR) Permute(rowPerm, colPerm []int) *CSR {
	b := a
	if rowPerm != nil {
		b = b.PermuteRows(rowPerm)
	}
	if colPerm != nil {
		b = b.PermuteCols(colPerm)
	}
	return b
}

// InversePerm returns the inverse permutation of p.
func InversePerm(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// IsPerm reports whether p is a permutation of 0..len(p)-1.
func IsPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// MulVec computes y = A·x.
func (a *CSR) MulVec(x, y []float64) {
	if len(x) != a.M || len(y) != a.N {
		panic("sparse: MulVec dimension mismatch")
	}
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		s := 0.0
		for k, j := range cols {
			s += float64(vals[k] * x[j])
		}
		y[i] = s
	}
}

// NormInf returns the infinity norm (max absolute row sum).
func (a *CSR) NormInf() float64 {
	max := 0.0
	for i := 0; i < a.N; i++ {
		_, vals := a.Row(i)
		s := 0.0
		for _, v := range vals {
			s += abs(v)
		}
		if s > max {
			max = s
		}
	}
	return max
}

// NormFrob returns the Frobenius norm.
func (a *CSR) NormFrob() float64 {
	s := 0.0
	for _, v := range a.Val {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

func abs(x float64) float64 { return math.Abs(x) }

// HasZeroFreeDiagonal reports whether every diagonal position holds a stored
// entry (structural test; the value may still be numerically zero).
func (a *CSR) HasZeroFreeDiagonal() bool {
	if a.N != a.M {
		return false
	}
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		k := sort.SearchInts(cols, i)
		if k >= len(cols) || cols[k] != i {
			return false
		}
	}
	return true
}
