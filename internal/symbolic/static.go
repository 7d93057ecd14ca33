// Package symbolic implements the structure-prediction layer of S*: the
// George–Ng static symbolic factorization that upper-bounds the L/U
// structures of sparse GEPP under every possible partial-pivoting sequence
// (paper Section 3.1), and the symbolic Cholesky factorization of A^T A used
// as the looser comparison bound in Table 1.
package symbolic

import (
	"slices"

	"sstar/internal/sparse"
)

// Static holds the result of the static symbolic factorization of an n-by-n
// matrix with a zero-free diagonal.
//
// URows[k] is the final structure of row k restricted to columns >= k (the
// U-part of row k, diagonal included), sorted. LCols[k] lists the rows i > k
// that may hold a nonzero in column k of L, sorted. Together they cover the
// structures of both factors for any pivot sequence.
type Static struct {
	N     int
	URows [][]int32
	LCols [][]int32
}

// NnzU returns the number of structural entries in U (diagonal included).
func (s *Static) NnzU() int {
	n := 0
	for _, r := range s.URows {
		n += len(r)
	}
	return n
}

// NnzL returns the number of structural entries in L including the unit
// diagonal.
func (s *Static) NnzL() int {
	n := s.N
	for _, c := range s.LCols {
		n += len(c)
	}
	return n
}

// NnzTotal returns nnz(L+U) counting the diagonal once (the "factor entries"
// statistic of Table 1).
func (s *Static) NnzTotal() int { return s.NnzL() + s.NnzU() - s.N }

// ElementOps returns the number of floating-point operations a right-looking
// elimination performs when it touches every structural entry of the static
// structure: per step k, one division per L entry and a multiply-add pair per
// (L entry, U entry) combination. This is the over-estimated operation count
// whose ratio to the true count appears in the last column of Table 1.
func (s *Static) ElementOps() int64 {
	var ops int64
	for k := 0; k < s.N; k++ {
		l := int64(len(s.LCols[k]))
		u := int64(len(s.URows[k]) - 1) // exclude the diagonal
		ops += l + 2*l*u
	}
	return ops
}

// group is one "super-row" of the row-merge forest: a set of rows proven
// identical in structure for the remaining columns. The full and the
// incremental driver move the same groups through the same merge step, which
// is what makes their outputs byte-identical.
type group struct {
	cols []int32 // remaining structure, sorted, all >= current step
	rows []int32 // alive member rows (candidate pivots), sorted
}

// rowGroup builds the initial merge group of row i of a.
func rowGroup(a *sparse.Pattern, i int) *group {
	row := a.Row(i)
	if len(row) == 0 {
		panic("symbolic: empty row")
	}
	cols := make([]int32, len(row))
	for p, c := range row {
		cols[p] = int32(c)
	}
	return &group{cols: cols, rows: []int32{int32(i)}}
}

// mergeState carries the scratch of one merge run: a stamp marker over the
// n columns and the buffers the unions are gathered in. It belongs to one
// Factorize or Patch call; nothing of it is stored on a Static.
type mergeState struct {
	seen     *sparse.Marker
	scratch  []int32
	rscratch []int32
}

func newMergeState(n int) *mergeState { return &mergeState{seen: sparse.NewMarker(n)} }

// step performs the merge at column k over the participant groups, writing
// the column's U-row and L-column into st and returning the surviving merged
// group (nil when the pivot row was the sole candidate). The column union
// appends each column once, when the marker first meets it, and sorts only
// the union; the member rows of distinct groups are disjoint, so their
// concatenation is sorted as it is. Both outputs are sorted sets, independent
// of the order the participants arrive in — the property the incremental
// driver relies on.
// The marker's stamp is a counter, not k: Patch re-runs step on the columns
// it recomputes, in its own order.
func (ms *mergeState) step(k int, parts []*group, st *Static) *group {
	if len(parts) == 0 {
		panic("symbolic: no candidate rows at step; diagonal not zero-free?")
	}
	// Union the participants' structures and candidate-row sets. The
	// candidate rows at step k are exactly the rows that may hold an
	// L multiplier in column k (any of them could have been left
	// below the diagonal by the row interchanges).
	ms.seen.Next()
	scratch := ms.scratch[:0]
	rscratch := ms.rscratch[:0]
	for _, g := range parts {
		scratch = ms.seen.AppendNew(scratch, g.cols, 0)
		rscratch = append(rscratch, g.rows...)
	}
	slices.Sort(scratch)
	if scratch[0] != int32(k) {
		panic("symbolic: candidate structure does not start at step column")
	}
	merged := append(make([]int32, 0, len(scratch)), scratch...)
	st.URows[k] = merged
	// Member-row sets of distinct groups are disjoint; sort and drop
	// the retiring row k (a candidate by the zero-free diagonal).
	slices.Sort(rscratch)
	if len(rscratch) == 0 || rscratch[0] != int32(k) {
		panic("symbolic: row k is not a candidate at step k")
	}
	alive := make([]int32, len(rscratch)-1)
	copy(alive, rscratch[1:])
	st.LCols[k] = alive
	ms.scratch, ms.rscratch = scratch, rscratch
	// The merged structure propagates only through rows that remain
	// candidates; when the pivot was the sole candidate its remaining
	// U entries are frozen into row k and nothing flows on.
	if len(alive) == 0 {
		return nil
	}
	rest := merged[1:]
	if len(rest) == 0 {
		panic("symbolic: alive candidate rows with empty structure")
	}
	return &group{cols: rest, rows: alive}
}

// Factorize runs the static symbolic factorization on the pattern of a,
// which must be square with a structurally zero-free diagonal (apply
// ordering.MaxTransversal first when needed).
//
// The implementation uses a row-merge forest: at step k every "super-row"
// (group of rows proven identical in structure for columns >= k) whose
// structure contains column k is merged; the merged structure, restricted to
// columns >= k, is exactly the final structure of row k. Each group is
// consumed by exactly one merge, so the total work is O(nnz(L+U) log) — this
// is the efficient formulation the paper credits to Kai Shen's
// implementation.
func Factorize(a *sparse.Pattern) *Static {
	n := a.N
	// bucket[c] holds the groups whose minimum column is c.
	bucket := make([][]*group, n)
	for i := 0; i < n; i++ {
		g := rowGroup(a, i)
		bucket[g.cols[0]] = append(bucket[g.cols[0]], g)
	}
	st := &Static{N: n, URows: make([][]int32, n), LCols: make([][]int32, n)}
	ms := newMergeState(n)
	for k := 0; k < n; k++ {
		parts := bucket[k]
		bucket[k] = nil
		if g := ms.step(k, parts, st); g != nil {
			bucket[g.cols[0]] = append(bucket[g.cols[0]], g)
		}
	}
	return st
}

// FactorizeWorkers is Factorize; the worker count is ignored.
//
// Deprecated: use Factorize. The analyze phase is sequential.
func FactorizeWorkers(a *sparse.Pattern, _ int) *Static { return Factorize(a) }

// LRows returns, for each row i, the sorted list of columns k < i where row i
// may hold an L entry (the transpose view of LCols). Useful for per-row
// storage layouts.
func (s *Static) LRows() [][]int32 {
	rows := make([][]int32, s.N)
	for k, col := range s.LCols {
		for _, i := range col {
			rows[i] = append(rows[i], int32(k))
		}
	}
	return rows
}
