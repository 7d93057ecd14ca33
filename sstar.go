// Package sstar is a Go implementation of S*, the sparse LU factorization
// with partial pivoting for distributed memory machines of Fu, Jiao and Yang
// (SC'96 / IEEE TPDS 9(2), 1998).
//
// The library factors a square nonsymmetric sparse matrix A as PA = LU with
// row interchanges for numerical stability, using the S* design: a static
// symbolic factorization that bounds the fill of every possible pivot
// sequence, 2D L/U supernode partitioning with amalgamation so most work runs
// as dense matrix-matrix kernels, and a family of parallel execution
// strategies (1D compute-ahead, 1D graph-scheduled, 2D synchronous and the
// paper's flagship 2D asynchronous pipelined code) that run on a
// deterministic virtual-time message-passing machine calibrated to the
// paper's Cray T3D/T3E.
//
// Quick start:
//
//	a := sstar.NewCOO(n, n)
//	... a.Add(i, j, v) ...
//	f, err := sstar.Factorize(a.ToCSR(), sstar.DefaultOptions())
//	x, err := f.Solve(b)
package sstar

import (
	"fmt"
	"math"
	"time"

	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// Matrix is a square sparse matrix in compressed sparse row form.
type Matrix = sparse.CSR

// COO is a sparse matrix under assembly in coordinate form.
type COO = sparse.COO

// NewCOO returns an empty n-by-m coordinate matrix for assembly.
func NewCOO(n, m int) *COO { return sparse.NewCOO(n, m) }

// Options configures the analyze and factorization phases.
type Options struct {
	// BlockSize is the maximum supernode panel width. 0 (the default)
	// selects structure-adaptive blocking: panel boundaries are chosen at
	// analyze time from the symbolic structure by a flop-vs-overhead cost
	// model (see DESIGN.md "Structure-adaptive blocking"). A positive
	// value pins a fixed global width instead — 25 is the paper's choice
	// on both T3D and T3E.
	BlockSize int
	// Amalgamate is the supernode amalgamation factor r. Under adaptive
	// blocking (BlockSize 0), 0 lets the cost model pick r per matrix and
	// a positive value pins it. Under fixed blocking, r is used as given
	// (the paper reports r in 4..6 as best; 0 disables amalgamation).
	Amalgamate int
	// SkipOrdering keeps the caller's row/column order instead of applying
	// the maximum transversal + minimum degree preprocessing.
	SkipOrdering bool
	// HostWorkers caps the goroutines of the numeric factor phase. 0 (the
	// default) runs the Factor/Update task DAG on up to
	// core.DefaultHostWorkers (2, the count the grain gate was measured at)
	// shared-memory workers, never more than GOMAXPROCS, when the
	// partition's task grain says that wins (a mean of core.ParallelGrain
	// flops per task), and the sequential driver otherwise; 1 is always
	// sequential; N > 1 is the same choice with at most N workers
	// (Factorization.HostWorkers reports the outcome). It caps the numeric
	// phase only: the analyze phase is sequential. Factors are bit-identical
	// at every setting, so HostWorkers never changes results — only
	// wall-clock — and it is deliberately excluded from StructureKey.
	HostWorkers int
	// Observer, when non-nil, receives the pipeline's phase timings and
	// per-task trace events (see the Observer interface for the stability
	// contract). Purely observational: factors are bit-identical with or
	// without it. Local-only — it is ignored by the solver service's wire
	// protocol — and excluded from StructureKey.
	Observer Observer
	// Procs, when positive, routes Factorize through the virtual
	// distributed-memory machine: the matrix is factorized by the selected
	// parallel Mapping on Procs modeled processors of Machine, and the
	// modeled run statistics become available from Factorization.RunStats.
	// 0 (the default) keeps the host path (sequential, or the HostWorkers
	// task-DAG executor). Factors are bit-identical across every execution
	// path, so Procs/Machine/Mapping/TraceParallel never change results —
	// they are excluded from StructureKey and ignored (normalized to zero)
	// by the solver service.
	Procs int
	// Machine selects the virtual machine cost model for Procs > 0 runs:
	// "" or T3E for the Cray T3E constants, T3D for the T3D. Ignored on
	// the host path.
	Machine MachineName
	// Mapping selects the parallel execution strategy for Procs > 0 runs:
	// "" or Map2D for the paper's flagship asynchronous 2D code, Map1DCA,
	// Map1DRAPID, Map2DSync. Ignored on the host path.
	Mapping Mapping
	// TraceParallel records per-processor task spans on the virtual
	// timelines of a Procs > 0 run (Gantt-style observability; the modeled
	// times are unaffected). Ignored on the host path.
	TraceParallel bool
}

// DefaultPatchMaxDiff is the Analysis.Patch diff budget: patterns differing
// by more than 5% of their entries pay a full analyze (the propagation cone
// typically stops being a win well before that).
const DefaultPatchMaxDiff = 0.05

// DefaultOptions selects structure-adaptive blocking: the analyze phase
// chooses panel boundaries and the amalgamation factor per matrix from the
// symbolic structure. PaperOptions pins the paper's fixed configuration.
func DefaultOptions() Options { return Options{} }

// PaperOptions mirrors the paper's experimental configuration: fixed panel
// width 25 and amalgamation factor 4 for every matrix.
func PaperOptions() Options { return Options{BlockSize: 25, Amalgamate: 4} }

// analyze runs the analyze phase under o.
func (o Options) analyze(a *Matrix) *core.Symbolic {
	return core.Analyze(a, core.AnalyzeOptions{
		SkipOrdering: o.SkipOrdering,
		Supernode:    supernode.Options{MaxBlock: o.BlockSize, Amalgamate: o.Amalgamate},
		Obs:          sinkFor(o.Observer),
	})
}

// Factorization holds the symbolic analysis and numeric factors of a matrix.
// The symbolic part (ordering, static structure, partition) can be reused
// across numeric refactorizations of matrices with the same pattern.
type Factorization struct {
	sym  *core.Symbolic
	fact *core.Factorization

	// hostWorkers is the factor-phase worker cap (Options.HostWorkers) the
	// factorization was created with; Refactorize applies it again, so a
	// handle keeps its executor choice across numeric refreshes.
	hostWorkers int

	// observer, when non-nil, receives PhaseFactor/PhaseSolve timings and
	// per-task events from Refactorize and Solve. Carried over from
	// Options.Observer at factorize time; not serialized by Save/Load.
	observer Observer

	// Pattern fingerprint of the factorized matrix (structure hash and
	// nonzero count), kept so Refactorize can reject a matrix with a
	// different pattern instead of corrupting or panicking deep in the
	// numeric phase. Survives Save/Load.
	patHash uint64
	patNnz  int

	// Distribution of a parallel run, kept for SolveDistributed: block
	// (i, j) of the factors lives at processor parAt(i, j) of parProcs.
	// nil for host factorizations.
	parAt    func(i, j int) int
	parProcs int
	parModel machine.Model

	// runStats holds the modeled execution statistics when the
	// factorization came from the virtual-machine path (Options.Procs > 0);
	// nil for host factorizations. Not serialized by Save/Load.
	runStats *RunStats
}

// RunStats returns the modeled execution statistics of the virtual-machine
// run that produced this factorization (Options.Procs > 0), or nil when the
// factors came from the host path. Not serialized by Save/Load.
func (f *Factorization) RunStats() *RunStats { return f.runStats }

// validate rejects matrices the pipeline cannot factor before any expensive
// work happens: nil or malformed CSR storage (Matrix.Validate), non-square
// shapes, duplicate entries, empty rows or columns (structural singularity),
// and diagonal-free inputs when reordering is disabled.
func validate(a *Matrix, o Options) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if a.N != a.M {
		return fmt.Errorf("sstar: matrix must be square, got %dx%d", a.N, a.M)
	}
	if a.N == 0 {
		return fmt.Errorf("sstar: empty matrix")
	}
	// lastRow[j] is 1 + the last row holding column j, 0 while none does:
	// it finds a column repeated within a row (a duplicate entry, which the
	// factorization would not sum) as well as the empty columns.
	lastRow := make([]int, a.M)
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		if len(cols) == 0 {
			return fmt.Errorf("sstar: row %d is empty (structurally singular)", i)
		}
		for _, j := range cols {
			if lastRow[j] == i+1 {
				return fmt.Errorf("sstar: row %d holds column %d twice", i, j)
			}
			lastRow[j] = i + 1
		}
	}
	for j, r := range lastRow {
		if r == 0 {
			return fmt.Errorf("sstar: column %d is empty (structurally singular)", j)
		}
	}
	if o.SkipOrdering && !a.HasZeroFreeDiagonal() {
		return fmt.Errorf("sstar: SkipOrdering requires a structurally zero-free diagonal")
	}
	return nil
}

// Factorize analyzes and numerically factorizes a. This is the single
// factorize entrypoint: Options.HostWorkers selects the shared-memory
// task-DAG executor, and Options.Procs > 0 routes the run through the
// virtual distributed-memory machine (Machine/Mapping/TraceParallel apply;
// modeled statistics via Factorization.RunStats). The factors are
// bit-identical on every path. On the host path it is equivalent to Analyze
// followed by FactorizeWith; callers that factorize many matrices with one
// pattern should hold the Analysis and call FactorizeWith directly.
func Factorize(a *Matrix, o Options) (*Factorization, error) {
	if o.Procs > 0 {
		return factorizeVirtual(a, o)
	}
	an, err := Analyze(a, o)
	if err != nil {
		return nil, err
	}
	return an.FactorizeWith(a)
}

// Refactorize reuses the symbolic analysis to factorize a matrix with the
// same nonzero pattern but new values — the cheap path for time-stepping
// applications that repeatedly solve evolving systems. It is numeric-only and
// in place: the block structure, the update plan and the map from A's entries
// to factor storage are reused, so a refactorization clears and refills the
// factor storage and allocates O(1) objects (the first call allocates the
// second of two value buffers it alternates between). It is atomic: on error
// — a pattern mismatch, a numerically singular matrix, a NaN or an infinity
// among the values — the previous factors stay live and Solve keeps
// answering from them. A matrix whose pattern differs from the originally
// factorized one is rejected (the static structure only bounds fill for the
// analyzed pattern).
func (f *Factorization) Refactorize(a *Matrix) error {
	if a == nil {
		return fmt.Errorf("sstar: refactorize: nil matrix")
	}
	if a.N != f.sym.N || a.M != f.sym.N {
		return fmt.Errorf("sstar: refactorize size mismatch: %dx%d vs %d", a.N, a.M, f.sym.N)
	}
	if a.Nnz() != f.patNnz || patternHash(a) != f.patHash {
		return fmt.Errorf("sstar: refactorize pattern mismatch: matrix has %d nonzeros in a different structure than the factorized pattern (%d nonzeros)", a.Nnz(), f.patNnz)
	}
	if len(a.Val) != len(a.ColInd) {
		return fmt.Errorf("sstar: refactorize: %d values for %d nonzeros", len(a.Val), len(a.ColInd))
	}
	return f.fact.Refactorize(a, f.HostWorkers(), sinkFor(f.observer))
}

// HostWorkers returns the goroutine count the numeric phase of Refactorize
// runs with: the Options.HostWorkers cap the factorization was made with,
// resolved by the task-grain gate at the current GOMAXPROCS (1: the
// sequential driver).
func (f *Factorization) HostWorkers() int { return f.sym.HostWorkers(f.hostWorkers) }

// Solve solves A x = b using the computed factors.
func (f *Factorization) Solve(b []float64) ([]float64, error) {
	if len(b) != f.sym.N {
		return nil, fmt.Errorf("sstar: rhs length %d, want %d", len(b), f.sym.N)
	}
	if f.observer != nil {
		t0 := time.Now()
		x := f.fact.Solve(b)
		f.observer.Phase(PhaseSolve, time.Since(t0))
		return x, nil
	}
	return f.fact.Solve(b), nil
}

// FillIn returns the number of storage entries of the factors (including the
// explicit padding zeros of the block representation).
func (f *Factorization) FillIn() int64 { return f.fact.BM.StorageEntries() }

// StaticFill returns the entry count of the George-Ng static structure
// (before block padding).
func (f *Factorization) StaticFill() int { return f.sym.Static.NnzTotal() }

// Blocks returns the number of supernode panels of the 2D partition.
func (f *Factorization) Blocks() int { return f.sym.Partition.NB }

// Blocking reports the panel blocking the factorization was built with.
func (f *Factorization) Blocking() BlockingChoice { return blockingOf(f.sym) }

// BlockingChoice describes the supernode blocking an analysis settled on —
// either the fixed knobs the caller pinned or the outcome of the
// structure-adaptive cost model.
type BlockingChoice struct {
	// Adaptive reports whether the boundaries came from the cost model.
	Adaptive bool
	// MaxBlock is the widest panel of the partition under adaptive
	// blocking, or the configured maximum under fixed blocking.
	MaxBlock int
	// Amalgamate is the relaxed-amalgamation factor in effect.
	Amalgamate int
	// ModelCost is the cost model's flop-equivalent estimate for the
	// chosen plan; 0 under fixed blocking.
	ModelCost float64
	// Panels is the panel count of the partition.
	Panels int
}

func blockingOf(sym *core.Symbolic) BlockingChoice {
	c := sym.Partition.Choice
	return BlockingChoice{
		Adaptive:   c.Adaptive,
		MaxBlock:   c.MaxBlock,
		Amalgamate: c.Amalgamate,
		ModelCost:  c.ModelCost,
		Panels:     sym.Partition.NB,
	}
}

// MachineName selects a virtual machine cost model for parallel runs.
type MachineName string

// Supported machine models.
const (
	T3D MachineName = "t3d" // Cray T3D constants from the paper
	T3E MachineName = "t3e" // Cray T3E constants from the paper
)

// Mapping selects a parallel execution strategy.
type Mapping string

// Supported mappings.
const (
	// Map1DCA is the 1D column-block code with block-cyclic mapping and
	// compute-ahead scheduling (Fig. 10).
	Map1DCA Mapping = "1d-ca"
	// Map1DRAPID is the 1D code driven by critical-path graph scheduling
	// (the RAPID code).
	Map1DRAPID Mapping = "1d-rapid"
	// Map2D is the asynchronous 2D block-cyclic code (Figs. 12-15), the
	// paper's flagship.
	Map2D Mapping = "2d"
	// Map2DSync is the 2D code with a global barrier per elimination step
	// (the Table 7 strawman).
	Map2DSync Mapping = "2d-sync"
)

// RunStats reports the modeled execution of a parallel factorization.
type RunStats struct {
	// ParallelTime is the modeled (virtual) wall-clock of the run in
	// seconds on the selected machine.
	ParallelTime float64
	// MFLOPS is the achieved rate by the paper's formula: the operation
	// count of a dynamic-fill factorization divided by the parallel time.
	MFLOPS float64
	// SentBytes and SentMessages total the communication volume.
	SentBytes    int64
	SentMessages int64
	// LoadBalance is work_total/(P*work_max) over update work.
	LoadBalance float64
	// Utilization is each processor's charged compute time as a fraction
	// of the parallel time (waits excluded).
	Utilization []float64
}

func model(name MachineName) (machine.Model, error) {
	switch name {
	case T3D:
		return machine.T3D(), nil
	case T3E, "":
		return machine.T3E(), nil
	default:
		return machine.Model{}, fmt.Errorf("sstar: unknown machine %q", name)
	}
}

// factorizeVirtual is the Options.Procs > 0 arm of Factorize: the full
// virtual-machine run, with the modeled statistics attached to the returned
// Factorization.
func factorizeVirtual(a *Matrix, o Options) (*Factorization, error) {
	m, err := model(o.Machine)
	if err != nil {
		return nil, err
	}
	if err := validate(a, o); err != nil {
		return nil, err
	}
	switch o.Mapping {
	case Map1DCA, Map1DRAPID, Map2D, Map2DSync, "":
	default:
		return nil, fmt.Errorf("sstar: unknown mapping %q", o.Mapping)
	}
	sym := o.analyze(a)
	// MFLOPS by the paper's convention: dynamic-fill operation count over
	// parallel time. The count is a serial Gilbert–Peierls run that needs
	// only the permuted matrix, so it runs beside the modelled run and never
	// feeds into it. It follows the values' own pivoting, so every call
	// counts afresh; the receive below joins it before any return.
	type gpCount struct {
		f   *core.GPFactors
		err error
	}
	counted := make(chan gpCount, 1)
	go func() {
		gp, err := core.GPFactorize(sym.PermutedMatrix(a))
		counted <- gpCount{gp, err}
	}()
	// Derate the kernel rates for the achieved average panel width (the
	// paper's DGEMM/DGEMV numbers are calibrated at block size 25).
	m = m.WithBlockSize(sym.Partition.FlopWeightedWidth())
	var runOpts []core.RunOption
	if o.TraceParallel {
		runOpts = append(runOpts, core.WithTracing())
	}
	// The factor codes leave block (i, j) at processor at(i, j) of nproc:
	// the 1D codes at the schedule's owner of block column j, the 2D codes
	// block-cyclically on the pr x pc grid (which may use fewer than
	// o.Procs processors).
	var res *core.ParResult
	var at func(i, j int) int
	nproc := o.Procs
	switch o.Mapping {
	case Map1DCA:
		s := core.ScheduleCA(sym, o.Procs)
		owner := s.Owner // the closure outlives the schedule
		at = func(_, j int) int { return owner[j] }
		res, err = core.Factorize1D(a, sym, m, s, runOpts...)
	case Map1DRAPID:
		s := core.ScheduleRAPID(sym, o.Procs, m)
		owner := s.Owner
		at = func(_, j int) int { return owner[j] }
		res, err = core.Factorize1D(a, sym, m, s, runOpts...)
	default: // Map2D, Map2DSync, ""
		pr, pc := core.GridShape(o.Procs)
		at = func(i, j int) int { return i%pr*pc + j%pc }
		nproc = pr * pc
		res, err = core.Factorize2D(a, sym, m, pr, pc, o.Mapping != Map2DSync, runOpts...)
	}
	gp := <-counted
	if err != nil {
		return nil, err
	}
	mf := 0.0
	if gp.err == nil && res.ParallelTime > 0 {
		mf = float64(gp.f.Flops) / res.ParallelTime / 1e6
	}
	stats := &RunStats{
		ParallelTime: res.ParallelTime,
		MFLOPS:       mf,
		SentBytes:    res.SentBytes,
		SentMessages: res.SentMessages,
		LoadBalance:  res.LoadBalance,
	}
	if res.ParallelTime > 0 {
		stats.Utilization = make([]float64, len(res.BusySeconds))
		for i, busy := range res.BusySeconds {
			stats.Utilization[i] = busy / res.ParallelTime
		}
	}
	return &Factorization{
		sym: sym, fact: res.Fact,
		patHash: patternHash(a), patNnz: a.Nnz(),
		parAt: at, parProcs: nproc, parModel: m,
		runStats: stats,
	}, nil
}

// Residual returns ||Ax-b||_inf / (||A||_inf ||x||_inf + ||b||_inf), the
// scaled backward-error measure used throughout the test suite.
func Residual(a *Matrix, x, b []float64) float64 {
	r := make([]float64, a.N)
	a.MulVec(x, r)
	num, xn, bn := 0.0, 0.0, 0.0
	for i := range r {
		num = max(num, math.Abs(r[i]-b[i]))
		xn = max(xn, math.Abs(x[i]))
		bn = max(bn, math.Abs(b[i]))
	}
	den := float64(a.NormInf()*xn) + bn
	if den == 0 {
		return 0
	}
	return num / den
}
