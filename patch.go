package sstar

import (
	"fmt"
	"time"

	"sstar/internal/core"
	"sstar/internal/obs"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
)

// PatchInfo reports how an Analysis.Patch call was served.
type PatchInfo struct {
	// Patched is true when the incremental path produced the analysis;
	// false means Patch fell back to a full analyze (Fallback says why).
	Patched bool
	// Fallback names why the incremental path was refused:
	// "diff-above-threshold", "diagonal-lost" or "shape-mismatch". Empty
	// when Patched (including the trivial identical-pattern case).
	Fallback string
	// ChangedRows and ChangedEntries size the structural diff between the
	// cached and the new pattern (entries = symmetric difference).
	ChangedRows, ChangedEntries int
	// RecomputedCols and ReusedCols split the columns into merge steps the
	// propagation re-ran and columns spliced unchanged from the cached
	// structure. Zero when the call fell back.
	RecomputedCols, ReusedCols int
}

// Patch derives an Analysis for a matrix whose pattern is a near miss of the
// analyzed one, re-running the symbolic computation only on the propagation
// cone of the changed entries and splicing every untouched column from the
// cached structure. The cached analysis's decisions are reused wholesale:
// the ordering (row/column permutations) and the settled blocking choice
// (the amalgamation factor, and the panel cap when it was fixed). The static
// structure is byte-identical to a full recompute under that pinned
// ordering, and the partition byte-identical to re-running the pinned
// blocking on the new structure — so under SkipOrdering plus an explicit
// BlockSize the result is exactly Analyze's. A fresh Analyze may pick a
// different fill-reducing ordering or amalgamation factor for the new
// pattern; callers that want the last percent of quality for a drifted
// structure should re-analyze from scratch occasionally.
//
// When the diff exceeds DefaultPatchMaxDiff (or the incremental machinery
// cannot apply — the reused transversal lost a diagonal entry, or the shapes
// differ), Patch transparently falls back to a full Analyze with the cached
// options; info.Fallback records the reason. An identical pattern returns the
// receiver itself.
func (an *Analysis) Patch(a *Matrix) (*Analysis, PatchInfo, error) {
	return an.patch(a, DefaultPatchMaxDiff)
}

// patch is Patch with the diff budget maxFrac as a parameter.
func (an *Analysis) patch(a *Matrix, maxFrac float64) (*Analysis, PatchInfo, error) {
	var info PatchInfo
	if a == nil {
		return nil, info, fmt.Errorf("sstar: Patch: nil matrix")
	}
	if err := validate(a, an.opts); err != nil {
		return nil, info, err
	}
	if an.pat.EqualCSR(a) {
		info.Patched = true
		info.ReusedCols = an.pat.N
		return an, info, nil
	}
	fallback := func(reason string) (*Analysis, PatchInfo, error) {
		info.Fallback = reason
		full, err := Analyze(a, an.opts)
		return full, info, err
	}
	if a.N != an.pat.N {
		return fallback("shape-mismatch")
	}
	t0 := time.Now()
	// The propagation runs in the analyzed coordinate system: permute both
	// patterns by the cached transversal + fill-reducing permutations, then
	// patch the static structure there.
	pat := sparse.PatternOf(a)
	oldPerm := sparse.PermutePattern(an.pat, an.sym.RowPerm, an.sym.ColPerm)
	newPerm := sparse.PermutePattern(pat, an.sym.RowPerm, an.sym.ColPerm)
	st, stats := symbolic.Patch(an.sym.Static, oldPerm, newPerm, maxFrac)
	info.ChangedRows, info.ChangedEntries = stats.ChangedRows, stats.ChangedEntries
	if st == nil {
		return fallback(stats.Reason)
	}
	info.Patched = true
	info.RecomputedCols, info.ReusedCols = stats.Recomputed, stats.Reused
	patchNs := time.Since(t0).Nanoseconds()
	t0 = time.Now()
	part := supernode.PatchPartition(st, an.sym.Static, an.sym.Partition, 0)
	partNs := time.Since(t0).Nanoseconds()
	if sink := sinkFor(an.opts.Observer); sink != nil {
		sink.Phase(obs.PhasePatch, patchNs)
		sink.Phase(obs.PhasePartition, partNs)
		sink.Phase(obs.PhaseDetect, part.Times.DetectNs)
		sink.Phase(obs.PhaseChoose, part.Times.ChooseNs)
		sink.Phase(obs.PhaseBuild, part.Times.BuildNs)
	}
	sym := &core.Symbolic{
		N:         an.sym.N,
		RowPerm:   an.sym.RowPerm,
		ColPerm:   an.sym.ColPerm,
		Static:    st,
		Partition: part,
		Phases:    core.PhaseTimes{PartitionNs: partNs, PatchNs: patchNs},
	}
	return &Analysis{
		sym:  sym,
		opts: an.opts,
		pat:  pat,
		key:  StructureKey(a, an.opts),
	}, info, nil
}

// AnalyzePhases is the cost breakdown of the analyze phase that produced an
// Analysis, as recorded at construction.
type AnalyzePhases struct {
	// Ordering, Symbolic and Partition are the coarse pipeline stages.
	Ordering, Symbolic, Partition time.Duration
	// Patch is the incremental re-analysis time when the Analysis came from
	// Analysis.Patch; such an analysis inherited (rather than ran) the
	// ordering and symbolic stages, which report zero.
	Patch time.Duration
	// Detect, Choose and Build split the partition stage: strict supernode
	// detection, the blocking choice (amalgamation sweep + split planning)
	// and the per-block structure build.
	Detect, Choose, Build time.Duration
}

// Phases returns where the analyze phase spent its time.
func (an *Analysis) Phases() AnalyzePhases {
	pt := an.sym.Phases
	tm := an.sym.Partition.Times
	return AnalyzePhases{
		Ordering:  time.Duration(pt.OrderingNs),
		Symbolic:  time.Duration(pt.SymbolicNs),
		Partition: time.Duration(pt.PartitionNs),
		Patch:     time.Duration(pt.PatchNs),
		Detect:    time.Duration(tm.DetectNs),
		Choose:    time.Duration(tm.ChooseNs),
		Build:     time.Duration(tm.BuildNs),
	}
}
