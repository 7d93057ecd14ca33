package supernode

import "math"

// UpdatePlan is the static plan of the numeric phase's block updates. For
// every panel k and every pair (U block U_kj, L block L_ik) of that panel it
// records, once per Partition, what the update A_ij -= L_ik * U_kj would
// otherwise re-derive on every factorization by binary search: the target
// block (or none), whether the operand packings already align with the
// target's, and where each product row and column lands in the target.
//
// Everything lives in one flat int32 arena. A pair record is three words
// {target, rows, cols}:
//
//   - target: block id, or -1 when the static structure has no block (i, j) —
//     amalgamation padding can pair an L block with a U block whose product
//     rectangle holds no static entry; every contribution is then an exact
//     zero and the update is skipped;
//   - rows: arena offset of the row map (one entry per row of L_ik: the row
//     of the target it lands on, -1 when the target does not store it), or
//     -1 when the update is aligned (rows and columns both land on 0, 1, 2,
//     ... of a target exactly as large as the product);
//   - cols: arena offset of the column map (same convention, one entry per
//     column of U_kj), or -(c0+1) when the columns land on the contiguous run
//     c0, c0+1, ... of the target.
//
// Maps onto the dense side of a target (all rows of a diagonal or U-type
// target, all columns of a diagonal or L-type target) are index − Start[b]
// and depend on the source block alone, so they are stored once per block
// and shared by its pairs; only the packed side is searched, once, here.
type UpdatePlan struct {
	sk *skeleton
	// pairBase[k] is the index of panel k's first pair record; the record of
	// (ui, li) is pairBase[k] + ui*nL[k] + li.
	pairBase []int
	arena    []int32
}

// Update is one decoded pair record.
type Update struct {
	Target  int     // block id of A_ij, -1 when the structure has none
	Aligned bool    // product lands on the whole target, row for row
	Rows    []int32 // target row per product row (-1: not stored); nil when Aligned
	Cols    []int32 // target column per product column (-1: not stored); nil when the columns are the run Col0, Col0+1, ...
	Col0    int
}

// UpdatePlan returns the partition's update plan, building it on first use.
// Safe for concurrent use; every caller gets the same read-only plan.
func (p *Partition) UpdatePlan() *UpdatePlan {
	p.planOnce.Do(func() { p.plan = buildUpdatePlan(p) })
	return p.plan
}

// Pair decodes the record of panel k's ui-th U block and li-th L block.
func (pl *UpdatePlan) Pair(k, ui, li int) Update {
	sk := pl.sk
	rec := pl.arena[3*(pl.pairBase[k]+ui*sk.nL[k]+li):]
	u := Update{Target: int(rec[0])}
	if u.Target < 0 {
		return u
	}
	if rec[1] < 0 {
		u.Aligned = true
		return u
	}
	ld := sk.desc[sk.lID(k, li)]
	u.Rows = pl.arena[rec[1] : rec[1]+ld.hi-ld.lo]
	if rec[2] < 0 {
		u.Col0 = int(-rec[2] - 1)
	} else {
		ud := sk.desc[sk.uID(k, ui)]
		u.Cols = pl.arena[rec[2] : rec[2]+ud.hi-ud.lo]
	}
	return u
}

func buildUpdatePlan(p *Partition) *UpdatePlan {
	sk := p.skeleton()
	pl := &UpdatePlan{sk: sk, pairBase: make([]int, p.NB+1)}
	for k := 0; k < p.NB; k++ {
		nU := sk.first[k+1] - sk.uID(k, 0)
		pl.pairBase[k+1] = pl.pairBase[k] + nU*sk.nL[k]
	}
	arena := make([]int32, 3*pl.pairBase[p.NB])

	// Dense-side maps, one per off-diagonal block: rows of an L block and
	// columns of a U block relative to their own block's start.
	var scratch []int32
	dense := make([]int32, len(sk.desc))
	for id := range sk.desc {
		b := sk.block(id)
		switch {
		case b.I > b.J:
			scratch = offsetMap(scratch[:0], b.Rows, int32(p.Start[b.I]))
			dense[id], arena = storeMap(arena, scratch, false)
		case b.I < b.J:
			scratch = offsetMap(scratch[:0], b.Cols, int32(p.Start[b.J]))
			dense[id], arena = storeMap(arena, scratch, true)
		}
	}

	for k := 0; k < p.NB; k++ {
		rec := 3 * pl.pairBase[k]
		for ui := 0; ui < sk.first[k+1]-sk.uID(k, 0); ui++ {
			uid := sk.uID(k, ui)
			ub := sk.block(uid)
			for li := 0; li < sk.nL[k]; li++ {
				lid := sk.lID(k, li)
				lb := sk.block(lid)
				i, j := lb.I, ub.J
				tid := sk.blockID(i, j)
				arena[rec] = int32(tid)
				if tid >= 0 {
					tb := sk.block(tid)
					rows, cols := dense[lid], dense[uid]
					switch {
					case i > j: // L-type target: packed rows
						scratch = searchMap(scratch[:0], lb.Rows, tb.Rows)
						rows, arena = storeMap(arena, scratch, false)
					case i < j: // U-type target: packed columns
						scratch = searchMap(scratch[:0], ub.Cols, tb.Cols)
						cols, arena = storeMap(arena, scratch, true)
					}
					if len(lb.Rows) == len(tb.Rows) && len(ub.Cols) == len(tb.Cols) &&
						isRun(arena[rows:int(rows)+len(lb.Rows)]) && cols == -1 {
						rows = -1 // aligned: equal sizes and both maps are 0, 1, 2, ...
					}
					arena[rec+1], arena[rec+2] = rows, cols
				}
				rec += 3
			}
		}
	}
	if len(arena) > math.MaxInt32 {
		panic("supernode: update plan exceeds int32 offsets")
	}
	pl.arena = arena
	return pl
}

// offsetMap appends src[q] - base for every q.
func offsetMap(dst, src []int32, base int32) []int32 {
	for _, x := range src {
		dst = append(dst, x-base)
	}
	return dst
}

// searchMap appends, for every index of src, its position in within (both
// sorted ascending), or -1 when within does not hold it.
func searchMap(dst, src, within []int32) []int32 {
	q := 0
	for _, x := range src {
		for q < len(within) && within[q] < x {
			q++
		}
		if q < len(within) && within[q] == x {
			dst = append(dst, int32(q))
		} else {
			dst = append(dst, -1)
		}
	}
	return dst
}

// isRun reports whether m is one contiguous ascending run c0, c0+1, ... of
// stored positions.
func isRun(m []int32) bool {
	for q, x := range m {
		if x < 0 || x != m[0]+int32(q) {
			return false
		}
	}
	return true
}

// storeMap stores the (non-empty) map m in the arena and returns its
// reference. With runOK — the column convention — a contiguous run c0, c0+1,
// ... is encoded as -(c0+1) and takes no arena space; otherwise the reference
// is the arena offset of the copy.
func storeMap(arena, m []int32, runOK bool) (int32, []int32) {
	if runOK && isRun(m) {
		return -(m[0] + 1), arena
	}
	return int32(len(arena)), append(arena, m...)
}
