package symbolic

// Incremental re-analysis: the service pattern "same structure plus a few
// entries" should not pay a full static symbolic factorization. Patch
// re-runs the row-merge computation only where it can have changed, splicing
// every untouched column straight out of the base structure.
//
// The key observation making this exact is that the merge forest's full
// state is recoverable from the output: the group a column c hands onward is
// precisely (URows[c][1:], LCols[c]), and it is handed to column URows[c][1].
// So the incremental sweep processes columns in ascending order, keeps a
// "dirty" frontier seeded at the start columns of every changed row (old and
// new), rebuilds a dirty column's participants from current chain pointers,
// and compares the recomputed output against the base: an unchanged output
// cuts the propagation off (the downstream chain sees byte-equal inputs), a
// changed one dirties both the old and the new successor columns. This is
// standard change propagation with early cutoff, and it terminates because
// chain successors are strictly greater than their source column.

import "sstar/internal/sparse"

// PatchStats reports what an incremental re-analysis did.
type PatchStats struct {
	// ChangedRows is the number of rows whose structure differs between the
	// base and the new pattern; ChangedEntries the size of their symmetric
	// difference in entries.
	ChangedRows, ChangedEntries int
	// Recomputed and Reused split the columns into merge steps re-run by the
	// propagation and columns spliced unchanged from the base structure.
	Recomputed, Reused int
	// Reason is empty on success and names why the incremental path
	// refused ("diff-above-threshold", "diagonal-lost", "shape-mismatch").
	Reason string
}

// Patch computes the static symbolic factorization of newPat by change
// propagation over old, which must be Factorize(oldPat). The returned
// structure is byte-identical to Factorize(newPat) (untouched columns share
// the base's slices). A nil return means the incremental path refused —
// the diff exceeds maxFrac of the new pattern's entries, a changed row lost
// its diagonal entry (the merge precondition), or the shapes differ — and
// the caller should run a full analysis; stats.Reason says which.
func Patch(old *Static, oldPat, newPat *sparse.Pattern, maxFrac float64) (*Static, PatchStats) {
	var stats PatchStats
	n := old.N
	if oldPat.N != n || newPat.N != n {
		stats.Reason = "shape-mismatch"
		return nil, stats
	}
	// Diff the rows, seeding the dirty frontier at both start columns of
	// every changed row: the new group injects at its new start, and the old
	// group's absence changes the merge at its old start.
	dirty := make([]bool, n)
	for i := 0; i < n; i++ {
		or, nr := oldPat.Row(i), newPat.Row(i)
		if eqInts(or, nr) {
			continue
		}
		stats.ChangedRows++
		stats.ChangedEntries += symDiffSize(or, nr)
		if len(nr) == 0 || !containsInt(nr, i) {
			// An empty or diagonal-free row under the base ordering needs a
			// fresh transversal — full analysis territory.
			stats.Reason = "diagonal-lost"
			return nil, stats
		}
		dirty[or[0]] = true
		dirty[nr[0]] = true
	}
	if stats.ChangedRows == 0 {
		stats.Reused = n
		return old, stats
	}
	if float64(stats.ChangedEntries) > maxFrac*float64(max(1, newPat.Nnz())) {
		stats.Reason = "diff-above-threshold"
		return nil, stats
	}
	// Chain pointers of the current (patched-so-far) structure. next[c] is
	// the column c's surviving group flows to (-1: nothing flows on); rev[k]
	// holds the base's inbound sources, filtered by next at use; added[k]
	// collects sources the propagation re-aimed at k.
	next := make([]int32, n)
	rev := make([][]int32, n)
	for c := 0; c < n; c++ {
		next[c] = -1
		if len(old.LCols[c]) > 0 {
			m := old.URows[c][1]
			next[c] = m
			rev[m] = append(rev[m], int32(c))
		}
	}
	added := make([][]int32, n)
	startRows := make([][]int32, n)
	for i := 0; i < n; i++ {
		c := newPat.Row(i)[0]
		startRows[c] = append(startRows[c], int32(i))
	}
	st := &Static{N: n, URows: make([][]int32, n), LCols: make([][]int32, n)}
	ms := newMergeState(n)
	var parts []*group
	for k := 0; k < n; k++ {
		if !dirty[k] {
			st.URows[k] = old.URows[k]
			st.LCols[k] = old.LCols[k]
			continue
		}
		stats.Recomputed++
		parts = parts[:0]
		for _, i := range startRows[k] {
			parts = append(parts, rowGroup(newPat, int(i)))
		}
		for _, c := range rev[k] {
			if next[c] == int32(k) {
				parts = append(parts, &group{cols: st.URows[c][1:], rows: st.LCols[c]})
			}
		}
		for _, c := range added[k] {
			parts = append(parts, &group{cols: st.URows[c][1:], rows: st.LCols[c]})
		}
		g := ms.step(k, parts, st)
		if eqInt32(st.URows[k], old.URows[k]) && eqInt32(st.LCols[k], old.LCols[k]) {
			// Early cutoff: the recomputed output matches the base, so the
			// outflowing group is byte-equal too and downstream merges see
			// unchanged inputs. Keep the base slices (frees the copies).
			st.URows[k] = old.URows[k]
			st.LCols[k] = old.LCols[k]
			continue
		}
		// The output changed: the old successor loses (or changes) this
		// column's inbound group and the new successor gains it — both
		// merges must re-run. Successors are strictly greater than k, so
		// the ascending sweep reaches them after this point.
		if mOld := next[k]; mOld >= 0 {
			dirty[mOld] = true
		}
		if g != nil {
			m := g.cols[0]
			dirty[m] = true
			if m != next[k] {
				added[m] = append(added[m], int32(k))
			}
			next[k] = m
		} else {
			next[k] = -1
		}
	}
	stats.Reused = n - stats.Recomputed
	return st, stats
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

func eqInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// symDiffSize returns |a Δ b| for sorted int slices.
func symDiffSize(a, b []int) int {
	i, j, d := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
			d++
		case a[i] > b[j]:
			j++
			d++
		default:
			i++
			j++
		}
	}
	return d + (len(a) - i) + (len(b) - j)
}

// containsInt reports whether sorted xs contains v.
func containsInt(xs []int, v int) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(xs) && xs[lo] == v
}
