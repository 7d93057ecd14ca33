package sparse

import (
	"slices"
	"sort"
)

// Pattern is the structure of a square sparse matrix without values:
// Ptr/Ind in CSR-like layout with sorted indices per row.
type Pattern struct {
	N   int
	Ptr []int
	Ind []int
}

// Nnz returns the number of structural entries.
func (p *Pattern) Nnz() int { return len(p.Ind) }

// Row returns the (sorted) index list of row i.
func (p *Pattern) Row(i int) []int { return p.Ind[p.Ptr[i]:p.Ptr[i+1]] }

// PatternOf extracts the structure of a, dropping values.
func PatternOf(a *CSR) *Pattern {
	return &Pattern{
		N:   a.N,
		Ptr: append([]int(nil), a.RowPtr...),
		Ind: append([]int(nil), a.ColInd...),
	}
}

// EqualCSR reports whether a has exactly the nonzero structure p (same
// dimension, same row pointers, same column indices).
func (p *Pattern) EqualCSR(a *CSR) bool {
	if a == nil || p.N != a.N || p.N != a.M || len(p.Ind) != len(a.ColInd) {
		return false
	}
	for i, v := range p.Ptr {
		if a.RowPtr[i] != v {
			return false
		}
	}
	for k, v := range p.Ind {
		if a.ColInd[k] != v {
			return false
		}
	}
	return true
}

// ColumnPattern returns the column structure of a without its values: the
// rows of column j, ascending, are rows[ptr[j]:ptr[j+1]]. It is ToCSC's
// ColPtr and RowInd, read from RowPtr and ColInd alone.
func (a *CSR) ColumnPattern() (ptr, rows []int) {
	ptr = make([]int, a.M+1)
	for _, j := range a.ColInd {
		ptr[j+1]++
	}
	for j := 0; j < a.M; j++ {
		ptr[j+1] += ptr[j]
	}
	rows = make([]int, len(a.ColInd))
	next := slices.Clone(ptr[:a.M])
	for i := 0; i < a.N; i++ {
		for _, j := range a.ColInd[a.RowPtr[i]:a.RowPtr[i+1]] {
			rows[next[j]] = i
			next[j]++
		}
	}
	return ptr, rows
}

// ATAPattern returns the structure of A^T·A for a square or rectangular A.
// Entry (i, j) of A^T A is structurally nonzero when some row k of A has
// entries in both columns i and j. The result is symmetric, with one row and
// one column per column of A (M-by-M for an N-by-M A).
func ATAPattern(a *CSR) *Pattern {
	m := a.M
	colPtr, colRows := a.ColumnPattern()
	// Row j of A^T A is the union of the rows of A that hold column j:
	// gather each, unsorted, with a marker.
	marker := make([]int, m)
	for i := range marker {
		marker[i] = -1
	}
	ptr := make([]int, m+1)
	var gathered []int
	for j := 0; j < m; j++ {
		for _, k := range colRows[colPtr[j]:colPtr[j+1]] {
			for _, i := range a.ColInd[a.RowPtr[k]:a.RowPtr[k+1]] {
				if marker[i] != j {
					marker[i] = j
					gathered = append(gathered, i)
				}
			}
		}
		ptr[j+1] = len(gathered)
	}
	// Transpose the gathered rows: row i of the transpose lists, ascending,
	// every j whose row holds i. A^T A is symmetric, so that is row i itself,
	// sorted and of the same length, and one pass replaces a sort per row.
	ind := make([]int, len(gathered))
	next := marker
	copy(next, ptr[:m])
	for j := 0; j < m; j++ {
		for _, i := range gathered[ptr[j]:ptr[j+1]] {
			ind[next[i]] = j
			next[i]++
		}
	}
	return &Pattern{N: m, Ptr: ptr, Ind: ind}
}

// SymmetrizedPattern returns the structure of A + A^T (a square A).
func SymmetrizedPattern(a *CSR) *Pattern {
	if a.N != a.M {
		panic("sparse: SymmetrizedPattern needs a square matrix")
	}
	t := a.Transpose()
	ptr := make([]int, a.N+1)
	var ind []int
	for i := 0; i < a.N; i++ {
		ra, _ := a.Row(i)
		rt, _ := t.Row(i)
		ind = appendUnion(ind, ra, rt)
		ptr[i+1] = len(ind)
	}
	return &Pattern{N: a.N, Ptr: ptr, Ind: ind}
}

// appendUnion appends the sorted union of sorted slices x and y to dst.
func appendUnion(dst []int, x, y []int) []int {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			dst = append(dst, x[i])
			i++
		case x[i] > y[j]:
			dst = append(dst, y[j])
			j++
		default:
			dst = append(dst, x[i])
			i++
			j++
		}
	}
	dst = append(dst, x[i:]...)
	dst = append(dst, y[j:]...)
	return dst
}

// Stats holds structural statistics of a square sparse matrix, mirroring the
// columns of the paper's Table 1.
type Stats struct {
	Order     int
	Nnz       int
	Symmetry  float64 // |A| / |pattern(A) ∩ pattern(A^T)|: 1 = symmetric pattern, larger = more nonsymmetric
	DiagFree  bool    // true when the diagonal is structurally zero-free
	AvgPerRow float64
}

// ComputeStats returns structural statistics for a.
func ComputeStats(a *CSR) Stats {
	t := a.Transpose()
	match := 0
	for i := 0; i < a.N; i++ {
		ra, _ := a.Row(i)
		rt, _ := t.Row(i)
		match += intersectionSize(ra, rt)
	}
	sym := 0.0
	if match > 0 {
		sym = float64(a.Nnz()) / float64(match)
	}
	return Stats{
		Order:     a.N,
		Nnz:       a.Nnz(),
		Symmetry:  sym,
		DiagFree:  a.HasZeroFreeDiagonal(),
		AvgPerRow: float64(a.Nnz()) / float64(a.N),
	}
}

func intersectionSize(x, y []int) int {
	i, j, n := 0, 0, 0
	for i < len(x) && j < len(y) {
		switch {
		case x[i] < y[j]:
			i++
		case x[i] > y[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// PermutePattern returns P_r·S·P_c^T of pattern s, analogous to CSR.Permute.
func PermutePattern(s *Pattern, rowPerm, colPerm []int) *Pattern {
	out := &Pattern{N: s.N, Ptr: make([]int, s.N+1), Ind: make([]int, len(s.Ind))}
	invRow := IdentityPerm(s.N)
	if rowPerm != nil {
		invRow = InversePerm(rowPerm)
	}
	pos := 0
	for newRow := 0; newRow < s.N; newRow++ {
		old := invRow[newRow]
		row := s.Row(old)
		start := pos
		for _, j := range row {
			nj := j
			if colPerm != nil {
				nj = colPerm[j]
			}
			out.Ind[pos] = nj
			pos++
		}
		sort.Ints(out.Ind[start:pos])
		out.Ptr[newRow+1] = pos
	}
	return out
}
