package supernode

// Incremental partitioning for patched symbolic structures. When a static
// structure was produced by symbolic.Patch, most of its columns alias the
// base structure's slices unchanged. The partition of such a structure can
// reuse the base partition's per-block unions for every block whose column
// range matches a base block made of untouched columns — only blocks
// overlapping the recomputed cone pay the O(structure) union work.
//
// The blocking *decision* is not re-made: a patched analysis re-applies the
// base's settled Choice (the amalgamation factor and, for the fixed path,
// the panel cap), just as it reuses the base's ordering. The result is
// byte-identical to running the pinned-choice partition on the new structure
// from scratch (pinnedPartition below, which the tests compare against).

import (
	"time"

	"sstar/internal/symbolic"
)

// pinnedBounds computes panel boundaries for st with the blocking decisions
// of ch re-applied: the adaptive per-supernode split plan under ch's pinned
// amalgamation factor, or the fixed amalgamate+split pipeline. Returns the
// bounds and the Choice describing them.
func pinnedBounds(st *symbolic.Static, ch Choice, tm *Times) ([]int, Choice) {
	t0 := time.Now()
	strict := detectSupernodes(st)
	tm.DetectNs = time.Since(t0).Nanoseconds()
	t0 = time.Now()
	var bounds []int
	if ch.Adaptive {
		supers := amalgamateSpans(st, strict, ch.Amalgamate)
		plan, cost := planSplits(supers)
		bounds = boundsOf(supers, plan)
		if len(bounds) == 1 {
			bounds = append(bounds, 0)
		}
		maxw := 0
		for i := 0; i+1 < len(bounds); i++ {
			if w := bounds[i+1] - bounds[i]; w > maxw {
				maxw = w
			}
		}
		ch = Choice{Adaptive: true, MaxBlock: maxw, Amalgamate: ch.Amalgamate, ModelCost: cost}
	} else {
		bounds = strict
		if ch.Amalgamate > 0 {
			bounds = amalgamate(st, bounds, ch.Amalgamate)
		}
		bounds = split(bounds, ch.MaxBlock)
		ch = Choice{MaxBlock: ch.MaxBlock, Amalgamate: ch.Amalgamate}
	}
	tm.ChooseNs = time.Since(t0).Nanoseconds()
	return bounds, ch
}

// pinnedPartition is the non-incremental reference: the partition of st under
// the re-applied blocking decisions of ch. PatchPartition is defined to equal
// it (modulo Times).
func pinnedPartition(st *symbolic.Static, ch Choice) *Partition {
	var tm Times
	bounds, choice := pinnedBounds(st, ch, &tm)
	t0 := time.Now()
	p := buildPartition(st, bounds, nil)
	tm.BuildNs = time.Since(t0).Nanoseconds()
	p.Choice = choice
	p.Times = tm
	return p
}

// sameSlice reports whether two int32 slices share content by sharing
// storage: equal length and the same backing array start (or both empty).
func sameSlice(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// PatchPartition builds the partition of newSt — a structure produced by
// symbolic.Patch over oldSt — reusing base (the partition of oldSt) wherever
// possible. The blocking choice is pinned to base.Choice, and the result is
// byte-identical to building that pinned-choice partition on newSt from
// scratch; only the per-block union work of blocks touching recomputed
// columns is actually re-run. The block-granularity images (UBlocks, LBlocks)
// are always recomputed: they index blocks, and one shifted boundary
// renumbers every later block. The fourth parameter is ignored; it remains
// for callers written when the block builds ran on a worker pool.
func PatchPartition(newSt, oldSt *symbolic.Static, base *Partition, _ int) *Partition {
	var tm Times
	bounds, choice := pinnedBounds(newSt, base.Choice, &tm)
	t0 := time.Now()

	clean := make([]bool, newSt.N)
	for c := range clean {
		clean[c] = sameSlice(newSt.URows[c], oldSt.URows[c]) && sameSlice(newSt.LCols[c], oldSt.LCols[c])
	}
	// A block with a base block's column range and every column untouched
	// has the base's unions verbatim.
	p := buildPartition(newSt, bounds, func(lo, hi int) ([]int32, []int32, bool) {
		if bb := baseBlockAt(base, lo, hi); bb >= 0 && allClean(clean, lo, hi) {
			return base.UCols[bb], base.LRows[bb], true
		}
		return nil, nil, false
	})
	tm.BuildNs = time.Since(t0).Nanoseconds()
	p.Choice = choice
	p.Times = tm
	return p
}

// baseBlockAt returns the base block with column range exactly [lo, hi), or
// -1 when the patched boundaries shifted over it.
func baseBlockAt(base *Partition, lo, hi int) int {
	if lo >= len(base.BlockOf) {
		return -1
	}
	bb := base.BlockOf[lo]
	if base.Start[bb] != lo || base.Start[bb+1] != hi {
		return -1
	}
	return bb
}

func allClean(clean []bool, lo, hi int) bool {
	for c := lo; c < hi; c++ {
		if !clean[c] {
			return false
		}
	}
	return true
}
