package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sstar/internal/obs"
	"sstar/internal/ordering"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
	"sstar/internal/taskgraph"
	"sstar/internal/xblas"
)

// Symbolic bundles everything the numeric phases need that can be computed
// once per structure and reused across factorizations (the "analyze" phase):
// the preprocessing permutations, the static symbolic structure and the 2D
// L/U partition.
type Symbolic struct {
	N         int
	RowPerm   []int // transversal row permutation (old row -> new row)
	ColPerm   []int // fill-reducing column permutation (old col -> new col)
	Static    *symbolic.Static
	Partition *supernode.Partition
	// Phases is the analyze-phase cost split, recorded once at
	// construction.
	Phases PhaseTimes

	// The task graph, built on first use (see TaskGraph) and read-only
	// after.
	graphOnce sync.Once
	graph     *taskgraph.Graph
}

// AnalyzeOptions configures the analyze phase.
type AnalyzeOptions struct {
	Supernode supernode.Options
	// SkipOrdering keeps the matrix in its given row/column order (useful
	// for experiments that supply a pre-ordered matrix).
	SkipOrdering bool
	// Obs, when non-nil, receives one Phase event per analyze stage
	// (ordering, symbolic, partition). Nil disables all timing work.
	Obs obs.Sink
}

// PhaseTimes records where the analyze phase spent its time, in
// nanoseconds. It is filled at Symbolic construction and immutable after,
// so sharing a Symbolic across concurrent factorizations stays safe.
type PhaseTimes struct {
	OrderingNs  int64
	SymbolicNs  int64
	PartitionNs int64
	// PatchNs is the incremental re-analysis time when this Symbolic was
	// produced by patching a cached analysis (0 for full analyzes); such a
	// Symbolic leaves OrderingNs and SymbolicNs at 0 since those stages were
	// inherited, not run.
	PatchNs int64
}

// Analyze runs the S* preprocessing pipeline on a: Duff's maximum transversal
// for a zero-free diagonal, minimum-degree ordering of A^T A, the George–Ng
// static symbolic factorization and the 2D L/U supernode partition. Phase
// timings land in the returned Symbolic's Phases and, when o.Obs is set, are
// reported through the sink as they complete.
func Analyze(a *sparse.CSR, o AnalyzeOptions) *Symbolic {
	n := a.N
	sym := &Symbolic{N: n}
	// phase wraps one analyze stage with timing; with no sink attached the
	// clock is still read (analyze runs once per structure, far off any hot
	// path) so Symbolic.Phases is always populated.
	phase := func(name string, ns *int64, f func()) {
		t0 := time.Now()
		f()
		*ns = time.Since(t0).Nanoseconds()
		if o.Obs != nil {
			o.Obs.Phase(name, *ns)
		}
	}
	work := a
	phase(obs.PhaseOrdering, &sym.Phases.OrderingNs, func() {
		if o.SkipOrdering {
			sym.RowPerm = sparse.IdentityPerm(n)
			sym.ColPerm = sparse.IdentityPerm(n)
			return
		}
		rp, _ := ordering.MaxTransversal(a)
		work = a.PermuteRows(rp)
		cp := ordering.MinimumDegree(sparse.ATAPattern(work))
		// The column permutation is applied symmetrically (rows follow
		// columns) so the zero-free diagonal survives.
		work = work.Permute(cp, cp)
		sym.RowPerm = composePerm(rp, cp)
		sym.ColPerm = cp
	})
	phase(obs.PhaseSymbolic, &sym.Phases.SymbolicNs, func() {
		sym.Static = symbolic.Factorize(sparse.PatternOf(work))
	})
	phase(obs.PhasePartition, &sym.Phases.PartitionNs, func() {
		sym.Partition = supernode.NewPartition(sym.Static, o.Supernode)
	})
	if o.Obs != nil {
		// Partition sub-phase breakdown, emitted after the coarse phase so
		// sinks see detail inside the total they already received.
		tm := sym.Partition.Times
		o.Obs.Phase(obs.PhaseDetect, tm.DetectNs)
		o.Obs.Phase(obs.PhaseChoose, tm.ChooseNs)
		o.Obs.Phase(obs.PhaseBuild, tm.BuildNs)
	}
	return sym
}

// composePerm returns the permutation applying p first, then q.
func composePerm(p, q []int) []int {
	out := make([]int, len(p))
	for i := range p {
		out[i] = q[p[i]]
	}
	return out
}

// PermutedMatrix returns P_r A P_c^T, the matrix the numeric factorization
// actually works on.
func (s *Symbolic) PermutedMatrix(a *sparse.CSR) *sparse.CSR {
	return a.Permute(s.RowPerm, s.ColPerm)
}

// Factorization is the numeric result: the block matrix holds L (unit
// diagonal implied) and U in place; Piv records, for every column m, the
// global storage row interchanged into position m at elimination step m
// (LINPACK-style lazy pivoting — interchanges were applied to trailing
// columns only, so the triangular solves replay them panel by panel).
type Factorization struct {
	Sym *Symbolic
	BM  *supernode.BlockMatrix
	Piv []int32
	Fl  Flops

	// State of the numeric-only Refactorize. asm is the assembly map of the
	// factorized pattern (slab offset of every stored entry of A, in A's CSR
	// order, both permutations folded in), recorded by the first scatter.
	// spare/sparePiv are the value slab and pivot vector the next Refactorize
	// factors into: they ping-pong with BM's slab and Piv and stay swapped in
	// only on success, so a failed refactorization leaves the live factors
	// untouched. The second slab is allocated on the first Refactorize of
	// existing factors, not before. spaces holds one Workspace per worker:
	// the sequential driver runs on the first, the host executor on one
	// each. panels holds the packed L panels both share among their
	// updates. host is the executor's schedule and flags, made by its first run
	// at a worker count.
	asm      []int
	spare    []float64
	sparePiv []int32
	spaces   []Workspace
	panels   *panelStore
	host     *hostRun
}

// workspaces returns the first n per-worker workspaces, growing the store on
// first need.
func (f *Factorization) workspaces(n int) []Workspace {
	if len(f.spaces) < n {
		f.spaces = append(f.spaces, make([]Workspace, n-len(f.spaces))...)
	}
	return f.spaces[:n]
}

// FactorizeSeq runs the sequential S* numeric factorization (Fig. 6): for
// each block column, Factor(k) then Update(k, j) for every nonzero U_kj.
func FactorizeSeq(a *sparse.CSR, sym *Symbolic) (*Factorization, error) {
	return FactorizeHostObs(a, sym, 1, nil)
}

// assemble returns fresh block storage holding a (permuted by the analysis)
// and the assembly map that put it there; a value that is not finite is an
// error (nonFinite).
func assemble(a *sparse.CSR, sym *Symbolic) (*supernode.BlockMatrix, []int, error) {
	asm := sym.Partition.AssemblyMap(a, sym.RowPerm, sym.ColPerm)
	bm := supernode.NewEmptyBlockMatrix(sym.Partition)
	if !bm.Assemble(asm, a.Val) {
		return nil, nil, nonFinite(a)
	}
	return bm, asm, nil
}

// nonFinite is the error for a matrix holding an infinity or a NaN, which
// names the first such entry. Such a matrix has no LU factors in floating
// point, and refusing it keeps every factor entry finite unless the
// elimination itself overflows — the ground of the zero-column skip in the
// block updates (DESIGN.md, "Zero U subcolumns").
func nonFinite(a *sparse.CSR) error {
	for i := 0; i < a.N; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if v := a.Val[q]; math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: value %v at row %d, column %d is not finite", ErrSingular, v, i, a.ColInd[q])
			}
		}
	}
	return fmt.Errorf("%w: a value is not finite", ErrSingular)
}

// Refactorize replaces the factors with those of a, a matrix with exactly the
// nonzero pattern this Factorization was computed from (callers check; the
// static structure is only valid for that pattern). It touches values only:
// the block skeleton, the update plan and the assembly map are reused, the
// slab is cleared and refilled in place, and the steady state allocates
// nothing on the sequential path. workers > 1 runs the host executor on
// exactly that many workers (clamped to the block count), whose steady state
// allocates only its goroutines; the factors are bit-identical to a fresh
// sequential factorization either way. On error (a singular matrix, or a
// value that is an infinity or a NaN) the previous factors stay live and
// intact. sink follows FactorizeHostObs.
func (f *Factorization) Refactorize(a *sparse.CSR, workers int, sink obs.Sink) error {
	var t0 time.Time
	if sink != nil {
		t0 = time.Now()
	}
	err := f.refactorize(a, workers, sink)
	if sink != nil && err == nil {
		sink.Phase(obs.PhaseFactor, time.Since(t0).Nanoseconds())
	}
	return err
}

func (f *Factorization) refactorize(a *sparse.CSR, workers int, sink obs.Sink) error {
	sym := f.Sym
	fresh := f.BM == nil
	if fresh {
		bm, asm, err := assemble(a, sym)
		if err != nil {
			return err
		}
		f.BM, f.asm = bm, asm
		f.Piv = make([]int32, sym.N)
	} else {
		if f.asm == nil { // loaded from a stream: no scatter has run yet
			f.asm = sym.Partition.AssemblyMap(a, sym.RowPerm, sym.ColPerm)
		} else if len(f.asm) != a.Nnz() {
			return fmt.Errorf("core: refactorize: matrix has %d stored entries, the factorized pattern has %d", a.Nnz(), len(f.asm))
		}
		if f.spare == nil {
			f.spare = make([]float64, len(f.BM.Values()))
			f.sparePiv = make([]int32, sym.N)
		}
		f.swapSlabs()
		if !f.BM.Assemble(f.asm, a.Val) {
			f.swapSlabs() // back to the previous factors
			return nonFinite(a)
		}
	}
	if f.panels == nil || workers > 1 && !f.panels.shared {
		f.panels = newPanelStore(f.BM, workers > 1)
	}
	f.panels.begin()
	defer f.panels.end()
	var fl Flops
	var err error
	if workers > 1 {
		w := min(workers, sym.Partition.NB)
		if f.host == nil || f.host.schedule.P != w {
			f.host = newHostRun(sym.TaskGraph(), w)
		}
		fl, err = f.host.run(f.BM, f.Piv, f.workspaces(w), f.panels, sink)
	} else {
		ws := &f.workspaces(1)[0]
		ws.Fl = Flops{}
		err = runSeq(f.BM, f.Piv, sym, ws, f.panels, sink)
		fl = ws.Fl
	}
	if err != nil {
		if !fresh {
			f.swapSlabs() // back to the previous factors
		}
		return err
	}
	f.Fl = fl
	return nil
}

// swapSlabs exchanges the live value slab and pivot vector with the spares.
func (f *Factorization) swapSlabs() {
	f.spare = f.BM.SwapValues(f.spare)
	f.Piv, f.sparePiv = f.sparePiv, f.Piv
}

// runSeq is the sequential executor over assembled storage. When sink is
// non-nil every Factor/Update task is timed and reported (worker 0); the
// instrumentation only changes when clocks are read, never the numeric work,
// so traced and untraced factors are bit-identical. Each panel is packed once,
// right after its Factor task, for all of its updates.
func runSeq(bm *supernode.BlockMatrix, piv []int32, sym *Symbolic, ws *Workspace, panels *panelStore, sink obs.Sink) error {
	p := sym.Partition
	for k := 0; k < p.NB; k++ {
		var t0 time.Time
		if sink != nil {
			t0 = time.Now()
		}
		if err := FactorPanel(bm, k, piv, ws); err != nil {
			return err
		}
		if sink != nil {
			sink.Task(obs.TaskEvent{Kind: obs.KindFactor, K: int32(k), J: int32(k),
				StartNs: t0.UnixNano(), DurNs: time.Since(t0).Nanoseconds()})
		}
		panels.pack(k)
		for _, jb := range p.UBlocks[k] {
			if sink != nil {
				t0 = time.Now()
			}
			updatePanelPair(bm, k, int(jb), piv, panels.panel(k), ws)
			if sink != nil {
				sink.Task(obs.TaskEvent{Kind: obs.KindUpdate, K: int32(k), J: jb,
					StartNs: t0.UnixNano(), DurNs: time.Since(t0).Nanoseconds()})
			}
		}
	}
	return nil
}

// Solve solves A x = b for the original (unpermuted) system.
//
// Every block product runs through the row-block kernels (xblas.DotRows,
// DotRowsGather), which keep each row's sum in Dot's order, so the result is
// bitwise the one-row-at-a-time sweep's — and SolveMany's per column.
func (f *Factorization) Solve(b []float64) []float64 {
	x := make([]float64, f.Sym.N)
	f.solveInto(b, x)
	return x
}

// solveInto is Solve writing its result to x (length n). Until the final
// permutation fills it, x holds the row results of one block product at a
// time (a block has at most n rows).
func (f *Factorization) solveInto(b, x []float64) {
	n := f.Sym.N
	p := f.Sym.Partition
	bm := f.BM
	y := make([]float64, n)
	// Apply the analyze-phase row permutation: row i of A is row RowPerm[i]
	// of the working matrix.
	for i := 0; i < n; i++ {
		y[f.Sym.RowPerm[i]] = b[i]
	}
	// Forward sweep, panel by panel: replay the panel's interchanges, solve
	// against the diagonal block's unit-lower part, then eliminate the L
	// blocks below.
	for k := 0; k < p.NB; k++ {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		for m := start; m < end; m++ {
			if t := int(f.Piv[m]); t != m {
				y[m], y[t] = y[t], y[m]
			}
		}
		d := bm.Diag[k]
		xblas.TrsvLowerUnit(s, d.Data, s, y[start:end])
		for _, lb := range bm.LCol[k] {
			nc := len(lb.Cols)
			dots := x[:len(lb.Rows)]
			xblas.DotRows(len(lb.Rows), nc, lb.Data, nc, y[start:end], dots)
			for r, gr := range lb.Rows {
				y[gr] -= dots[r]
			}
		}
	}
	// Backward sweep.
	for k := p.NB - 1; k >= 0; k-- {
		start, end := p.Start[k], p.Start[k+1]
		s := end - start
		yk := y[start:end]
		for _, ub := range bm.URow[k] {
			dots := x[:s]
			xblas.DotRowsGather(s, ub.Data, len(ub.Cols), ub.Cols, y, dots)
			for r, v := range dots {
				yk[r] -= v
			}
		}
		d := bm.Diag[k]
		xblas.TrsvUpper(s, d.Data, s, yk)
	}
	// Undo the column permutation: working column ColPerm[j] is variable j.
	for j := 0; j < n; j++ {
		x[j] = y[f.Sym.ColPerm[j]]
	}
}
