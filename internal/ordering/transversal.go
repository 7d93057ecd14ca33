// Package ordering provides the preprocessing permutations S* applies before
// symbolic factorization: Duff's maximum-transversal algorithm (MC21) to make
// the diagonal structurally zero-free, a minimum-degree ordering of A^T A to
// reduce fill, and elimination-tree utilities. The paper uses the multiple
// minimum degree ordering for A^T A; MinimumDegree is single-elimination
// minimum degree with exact external degrees on the quotient graph.
package ordering

import "sstar/internal/sparse"

// MaxTransversal computes a row permutation making the diagonal of the
// permuted matrix structurally zero-free, using Duff's MC21 algorithm:
// a cheap-assignment pass followed by depth-first augmenting paths.
//
// The returned perm maps old row index to new row index
// (row i of A becomes row perm[i] of P·A), so A.PermuteRows(perm) has entry
// (j, j) present whenever a full transversal exists. The second return is the
// size of the matching; it equals A.N exactly when the matrix has a full
// transversal (always true for structurally nonsingular matrices).
func MaxTransversal(a *sparse.CSR) ([]int, int) {
	n := a.N
	colPtr, colRows := a.ColumnPattern()
	rowOf := make([]int, n) // rowOf[j] = row matched to column j, or -1
	colOf := make([]int, n) // colOf[i] = column matched to row i, or -1
	for i := 0; i < n; i++ {
		rowOf[i] = -1
		colOf[i] = -1
	}
	// Cheap assignment: match each column to the first free row.
	matched := 0
	for j := 0; j < n; j++ {
		rows := colRows[colPtr[j]:colPtr[j+1]]
		for _, i := range rows {
			if colOf[i] == -1 {
				colOf[i] = j
				rowOf[j] = i
				matched++
				break
			}
		}
	}
	// Augmenting DFS for the unmatched columns.
	visited := make([]int, n) // visited[i] = column stamp
	for i := range visited {
		visited[i] = -1
	}
	var augment func(j int) bool
	var stamp int
	augment = func(j int) bool {
		rows := colRows[colPtr[j]:colPtr[j+1]]
		// First try a free row (cheap extension).
		for _, i := range rows {
			if colOf[i] == -1 {
				colOf[i] = j
				rowOf[j] = i
				return true
			}
		}
		// Then recurse through matched rows.
		for _, i := range rows {
			if visited[i] == stamp {
				continue
			}
			visited[i] = stamp
			if augment(colOf[i]) {
				colOf[i] = j
				rowOf[j] = i
				return true
			}
		}
		return false
	}
	for j := 0; j < n; j++ {
		if rowOf[j] == -1 {
			stamp = j
			if augment(j) {
				matched++
			}
		}
	}
	// Build the row permutation: matched row rowOf[j] moves to position j.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = -1
	}
	for j := 0; j < n; j++ {
		if rowOf[j] >= 0 {
			perm[rowOf[j]] = j
		}
	}
	// Unmatched rows (structurally singular case) fill the remaining slots.
	free := 0
	for i := 0; i < n; i++ {
		if perm[i] == -1 {
			for rowOf[free] != -1 {
				free++
			}
			perm[i] = free
			free++
		}
	}
	return perm, matched
}
