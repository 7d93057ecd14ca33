package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sstar"
	"sstar/internal/core"
	"sstar/internal/ordering"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
	"sstar/internal/taskgraph"
	"sstar/internal/xblas"
)

// The library workloads drive sstar from one goroutine. Untraced they call
// only the facade (Analyze, FactorizeWith, Refactorize, Solve, Patch). Traced
// they run each op twice: once through the facade and once stepwise through
// the layers' own functions with a span per call, and assert that both give
// the bitwise same x, so the stepwise pipeline cannot drift from the facade
// unnoticed.

const (
	valueSetsPerMatrix = 4
	solvesPerRefactor  = 4 // right-hand sides solved on every fresh set of factors
	variantsPerBase    = 8
	// minBlocks is how many blocks (see recorder.block) every run finishes
	// whatever the clock says, so a median always has samples behind it.
	minBlocks = 7
	// extrasEvery spaces out the traced side measurements (host-parallel
	// factor, 8-wide solves, task graph build) that are not part of an op.
	extrasEvery = 4
)

func hostWorkers() int { return min(runtime.NumCPU(), 4) }

// libMatrix is one structure a library workload factors: the analysis and
// live factors the facade holds, and in traced runs the hand-assembled
// core.Symbolic of the stepwise pipeline.
type libMatrix struct {
	name string
	base *sstar.Matrix
	vals []*sstar.Matrix
	rhs  [][]float64
	wide []float64 // 8 right-hand sides, column-major
	an   *sstar.Analysis
	f    *sstar.Factorization
	sym  *core.Symbolic
	last *core.Factorization // latest stepwise factors, for the counts
}

// layerTally accumulates the counts a traced library run reads off the
// layers: kernel flops and bytes around the stepwise numeric factorizations
// only, so gemm_share compares like with like.
type layerTally struct {
	xb          xblas.Stats
	factorFlops int64
	b3Flops     int64
	factorSec   float64
}

func (t *layerTally) factorizeSeq(tr *tracer, op, parent int, a *sstar.Matrix, sym *core.Symbolic) (*core.Factorization, error) {
	before, _ := xblas.ReadStats()
	var fact *core.Factorization
	var err error
	t0 := time.Now()
	tr.do("core.factor_seq", op, parent, func() { fact, err = core.FactorizeSeq(a, sym) })
	if err != nil {
		return nil, err
	}
	t.factorSec += time.Since(t0).Seconds()
	after, _ := xblas.ReadStats()
	t.xb.GemmFlops += after.GemmFlops - before.GemmFlops
	t.xb.ScatterFlops += after.ScatterFlops - before.ScatterFlops
	t.xb.TrsmFlops += after.TrsmFlops - before.TrsmFlops
	t.xb.GemmBytes += (after.GemmBytes - before.GemmBytes) + (after.ScatterBytes - before.ScatterBytes) + (after.TrsmBytes - before.TrsmBytes)
	t.factorFlops += fact.Fl.Total()
	t.b3Flops += fact.Fl.B3
	return fact, nil
}

// stepwiseAnalyze is sstar.Analyze taken apart: each layer's public function
// called in the order core.Analyze calls them, one span per call.
func stepwiseAnalyze(tr *tracer, op, parent int, a *sstar.Matrix) *core.Symbolic {
	var rp, cp []int
	var work *sparse.CSR
	var ata *sparse.Pattern
	tr.do("ordering.transversal", op, parent, func() { rp, _ = ordering.MaxTransversal(a) })
	tr.do("sparse.permute", op, parent, func() { work = a.PermuteRows(rp) })
	tr.do("sparse.ata", op, parent, func() { ata = sparse.ATAPattern(work) })
	tr.do("ordering.mindeg", op, parent, func() { cp = ordering.MinimumDegree(ata) })
	tr.do("sparse.permute", op, parent, func() { work = work.Permute(cp, cp) })
	rowPerm := make([]int, a.N)
	for i, r := range rp {
		rowPerm[i] = cp[r]
	}
	var st *symbolic.Static
	tr.do("symbolic.factorize", op, parent, func() { st = symbolic.FactorizeWorkers(sparse.PatternOf(work), 0) })
	return &core.Symbolic{N: a.N, RowPerm: rowPerm, ColPerm: cp, Static: st, Partition: stepwisePartition(tr, op, parent, func() *supernode.Partition {
		return supernode.NewPartition(st, supernode.Options{})
	})}
}

// stepwisePartition spans one partition build and hangs the sub-phase times
// the partition reports about itself under it as child spans.
func stepwisePartition(tr *tracer, op, parent int, build func() *supernode.Partition) *supernode.Partition {
	id := tr.begin("supernode.partition", op, parent)
	part := build()
	tr.end(id)
	off := tr.child("supernode.detect", op, id, 0, part.Times.DetectNs)
	off = tr.child("supernode.choose", op, id, off, part.Times.ChooseNs)
	tr.child("supernode.build", op, id, off, part.Times.BuildNs)
	return part
}

// stepwisePatch is Analysis.Patch taken apart, on the stepwise base analysis.
func stepwisePatch(tr *tracer, op, parent int, base *libMatrix, a *sstar.Matrix) (*core.Symbolic, error) {
	sym := base.sym
	var oldPat, newPat *sparse.Pattern
	tr.do("sparse.permute", op, parent, func() {
		oldPat = sparse.PermutePattern(sparse.PatternOf(base.base), sym.RowPerm, sym.ColPerm)
		newPat = sparse.PermutePattern(sparse.PatternOf(a), sym.RowPerm, sym.ColPerm)
	})
	var st *symbolic.Static
	var stats symbolic.PatchStats
	tr.do("symbolic.patch", op, parent, func() {
		st, stats = symbolic.Patch(sym.Static, oldPat, newPat, sstar.DefaultPatchMaxDiff)
	})
	if st == nil {
		return nil, fmt.Errorf("stepwise patch of %s fell back: %s", base.name, stats.Reason)
	}
	part := stepwisePartition(tr, op, parent, func() *supernode.Partition {
		return supernode.PatchPartition(st, sym.Static, sym.Partition, 0)
	})
	return &core.Symbolic{N: sym.N, RowPerm: sym.RowPerm, ColPerm: sym.ColPerm, Static: st, Partition: part}, nil
}

// checkSolve verifies one solve of a library op.
func checkSolve(rec *recorder, what string, a *sstar.Matrix, x, b []float64) bool {
	if res := sstar.Residual(a, x, b); !(res <= residualTol) {
		rec.fail("%s: residual %g > %g", what, res, residualTol)
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// factor-dense / factor-sparse

type factorWorkload struct {
	mats  []*libMatrix
	tally layerTally
}

func setupFactor(names []string, baseScale float64) func(r *run) (instance, error) {
	return func(r *run) (instance, error) {
		w := &factorWorkload{}
		opts := sstar.DefaultOptions()
		for _, name := range names {
			m := &libMatrix{name: name, base: suiteMatrix(name, baseScale*r.cfg.scale)}
			r.in.noteMatrix(m.base, opts)
			m.vals = r.in.valueSets(m.base, opts, "values/"+name, valueSetsPerMatrix)
			m.rhs = r.in.rhs("rhs/"+name, m.base.N, 1, solvesPerRefactor)
			m.wide = r.in.rhs("wide/"+name, m.base.N, 8, 1)[0]
			var err error
			if m.an, err = sstar.Analyze(m.base, opts); err != nil {
				return nil, fmt.Errorf("analyze %s: %w", name, err)
			}
			if m.f, err = m.an.FactorizeWith(m.base); err != nil {
				return nil, fmt.Errorf("factorize %s: %w", name, err)
			}
			x, err := m.f.Solve(m.rhs[0])
			if err != nil || sstar.Residual(m.base, x, m.rhs[0]) > residualTol {
				return nil, fmt.Errorf("first solve of %s failed verification (err %v)", name, err)
			}
			if r.tr != nil {
				// The stepwise analysis the traced ops factor with; its x must
				// be the facade's, bit for bit.
				m.sym = stepwiseAnalyze(r.tr, r.nextOp(name), 0, m.base)
				fact, err := core.FactorizeSeq(m.base, m.sym)
				if err != nil {
					return nil, fmt.Errorf("stepwise factorize %s: %w", name, err)
				}
				if !equalBits(fact.Solve(m.rhs[0]), x) {
					return nil, fmt.Errorf("%s: stepwise pipeline drifted from sstar.Analyze/FactorizeWith", name)
				}
			}
			w.mats = append(w.mats, m)
		}
		return w, nil
	}
}

func (w *factorWorkload) close() {}

func (w *factorWorkload) measure(r *run) {
	if r.tr != nil {
		xblas.EnableStats()
		defer xblas.DisableStats()
	}
	t0 := time.Now()
	deadline := t0.Add(r.cfg.duration())
	for round := 0; round < minBlocks || time.Now().Before(deadline); round++ {
		start := time.Now()
		for _, m := range w.mats {
			w.refactor(r, m, round)
			if r.tr != nil && round%extrasEvery == 0 {
				w.extras(r, m, round)
			}
		}
		r.rec.block(len(w.mats)*solvesPerRefactor, time.Since(start))
	}
	r.rate = r.rec.throughput(time.Since(t0))
	if r.tr != nil {
		libraryLayers(r, w.mats, &w.tally)
	}
}

// refactor is one round on one matrix: new values on a known structure to x,
// then further right-hand sides on the live factors.
func (w *factorWorkload) refactor(r *run, m *libMatrix, round int) {
	a := m.vals[round%len(m.vals)]
	op := r.nextOp(m.name)
	r.rec.ops += solvesPerRefactor
	root := r.tr.begin("facade.refactor", op, 0)
	t0 := time.Now()
	if err := m.f.Refactorize(a); err != nil {
		r.rec.fail("refactorize %s: %v", m.name, err)
		r.rec.failed += solvesPerRefactor - 1
		return
	}
	var first []float64
	for i, b := range m.rhs {
		t1 := time.Now()
		x, err := m.f.Solve(b)
		t2 := time.Now()
		if i == 0 {
			r.tr.end(root)
			r.rec.add("refactor", m.name, t2.Sub(t0))
			first = x
		}
		r.rec.add("solve", m.name, t2.Sub(t1))
		if err != nil {
			r.rec.fail("solve %s: %v", m.name, err)
			continue
		}
		checkSolve(r.rec, "solve "+m.name, a, x, b)
	}
	if r.tr == nil {
		return
	}
	var fact *core.Factorization
	var err error
	var x []float64
	sroot := r.tr.begin("op.refactor", op, 0)
	fact, err = w.tally.factorizeSeq(r.tr, op, sroot, a, m.sym)
	if err == nil {
		r.tr.do("core.solve", op, sroot, func() { x = fact.Solve(m.rhs[0]) })
	}
	r.tr.end(sroot)
	if err != nil || !equalBits(x, first) {
		r.rec.fail("%s: stepwise refactor differs from the facade (err %v)", m.name, err)
		return
	}
	m.last = fact
}

// extras times what is not on an op's path but belongs to its layers: the
// host-parallel executor (whose factors must solve bitwise as the sequential
// ones), the two 8-wide solve kernels, and the task graph build.
func (w *factorWorkload) extras(r *run, m *libMatrix, round int) {
	if m.last == nil {
		return
	}
	a := m.vals[round%len(m.vals)]
	op := r.nextOp(m.name)
	want := m.last.Solve(m.rhs[0])
	if nw := hostWorkers(); nw >= 2 {
		var fact *core.Factorization
		var err error
		r.tr.do("core.factor_host", op, 0, func() { fact, err = core.FactorizeHost(a, m.sym, nw) })
		if err != nil || !equalBits(fact.Solve(m.rhs[0]), want) {
			r.rec.fail("%s: HostWorkers=%d factors do not solve bitwise as HostWorkers=1 (err %v)", m.name, nw, err)
		}
	}
	r.tr.do("core.solve_exact_w8", op, 0, func() { _, _ = m.last.SolveManyExact(m.wide, 8) })
	r.tr.do("core.solve_many_w8", op, 0, func() { _, _ = m.last.SolveMany(m.wide, 8) })
	r.tr.do("taskgraph.build", op, 0, func() { taskgraph.Build(m.sym.Partition) })
}

// libraryLayers fills the per-layer counts of a traced library run. Span
// times are filled by the caller from the trace.
func libraryLayers(r *run, mats []*libMatrix, t *layerTally) {
	var nnz, fill, blocks, tasks, interchanges, maxBlock int
	var width, cpFrac, growth float64
	for _, m := range mats {
		p := m.sym.Partition
		nnz += m.base.Nnz()
		fill += m.sym.Static.NnzTotal()
		blocks += p.NB
		for b := 0; b < p.NB; b++ {
			maxBlock = max(maxBlock, p.Size(b))
		}
		width += p.FlopWeightedWidth() / float64(len(mats))
		g := taskgraph.Build(p)
		wts := g.Weights(1, 1, 1, 1, 0)
		cp, _ := g.CriticalPath(wts)
		tasks += len(g.Tasks)
		cpFrac += cp / g.TotalWork(wts) / float64(len(mats))
		if m.last != nil {
			st := m.last.Stats(core.MaxAbs(m.base.Val))
			interchanges += st.Interchanges
			growth = math.Max(growth, st.GrowthFactor)
		}
	}
	l := r.layer
	l.set("sparse.nnz", float64(nnz))
	l.set("symbolic.static_fill", float64(fill))
	l.set("supernode.blocks", float64(blocks))
	l.set("supernode.max_block", float64(maxBlock))
	l.set("supernode.flop_weighted_width", width)
	l.set("taskgraph.tasks", float64(tasks))
	l.set("taskgraph.critical_path_frac", cpFrac)
	l.set("core.interchanges", float64(interchanges))
	l.set("core.growth_factor", growth)
	l.set("xblas.gemm_flops", float64(t.xb.GemmFlops))
	l.set("xblas.scatter_flops", float64(t.xb.ScatterFlops))
	l.set("xblas.trsm_flops", float64(t.xb.TrsmFlops))
	l.set("xblas.bytes", float64(t.xb.GemmBytes))
	l.set("core.factor_flops", float64(t.factorFlops))
	if t.xb.GemmBytes > 0 {
		l.set("xblas.flops_per_byte", float64(t.xb.GemmFlops+t.xb.ScatterFlops+t.xb.TrsmFlops)/float64(t.xb.GemmBytes))
	}
	if t.factorFlops > 0 {
		l.set("core.blas3_frac", float64(t.b3Flops)/float64(t.factorFlops))
		l.set("core.gemm_share", float64(t.xb.Flops())/float64(t.factorFlops))
	}
	if t.factorSec > 0 {
		l.set("core.factor_gflops", float64(t.factorFlops)/t.factorSec/1e9)
	}
}

// ---------------------------------------------------------------------------
// cold-start

type coldBase struct {
	libMatrix
	variants []*sstar.Matrix
}

type coldWorkload struct {
	bases []*coldBase
	tally layerTally
	// fallbacks counts facade Patch calls that fell back to a full analyze.
	fallbacks int
}

func setupCold(r *run) (instance, error) {
	s := r.cfg.scale
	opts := sstar.DefaultOptions()
	gens := []struct {
		name string
		gen  func() *sstar.Matrix
	}{
		{"sherman5", func() *sstar.Matrix { return suiteMatrix("sherman5", 0.6*s) }},
		{"circuit", func() *sstar.Matrix {
			return sstar.GenCircuit(max(int(5000*s), 50), 3, sstar.GenOptions{Seed: 7})
		}},
		{"af23560", func() *sstar.Matrix { return suiteMatrix("af23560", 0.45*s) }},
	}
	w := &coldWorkload{}
	for _, g := range gens {
		b := &coldBase{libMatrix: libMatrix{name: g.name, base: g.gen()}}
		r.in.noteMatrix(b.base, opts)
		b.rhs = r.in.rhs("rhs/"+g.name, b.base.N, 1, solvesPerRefactor)
		rng := r.in.rng("variants/" + g.name)
		churn := max(1, b.base.Nnz()/200)
		for v := 0; v < variantsPerBase; v++ {
			a := perturbLocal(b.base, churn, churn/2, rng)
			r.in.noteMatrix(a, opts)
			b.variants = append(b.variants, a)
		}
		var err error
		if b.an, err = sstar.Analyze(b.base, opts); err != nil {
			return nil, fmt.Errorf("analyze %s: %w", g.name, err)
		}
		if r.tr != nil {
			b.sym = stepwiseAnalyze(r.tr, r.nextOp(g.name), 0, b.base)
		}
		w.bases = append(w.bases, b)
	}
	return w, nil
}

func (w *coldWorkload) close() {}

func (w *coldWorkload) measure(r *run) {
	if r.tr != nil {
		xblas.EnableStats()
		defer xblas.DisableStats()
	}
	t0 := time.Now()
	deadline := t0.Add(r.cfg.duration())
	// One block is one variant on every base, cold then patch: a run cut
	// short by the clock still holds the same share of each.
	for i := 0; i < minBlocks || time.Now().Before(deadline); i++ {
		start := time.Now()
		for _, b := range w.bases {
			a := b.variants[i%variantsPerBase]
			w.cold(r, b, a)
			w.patch(r, b, a)
		}
		r.rec.block(len(w.bases)*2*solvesPerRefactor, time.Since(start))
	}
	r.rate = r.rec.throughput(time.Since(t0))
	r.notes["patch_fallbacks"] = w.fallbacks
	if r.tr != nil {
		mats := make([]*libMatrix, len(w.bases))
		for i, b := range w.bases {
			mats[i] = &b.libMatrix
		}
		libraryLayers(r, mats, &w.tally)
	}
}

// cold is one structure never seen before to its first verified x.
func (w *coldWorkload) cold(r *run, b *coldBase, a *sstar.Matrix) {
	op := r.nextOp(b.name)
	r.rec.ops++
	rhs := b.rhs[0]
	root := r.tr.begin("facade.cold", op, 0)
	t0 := time.Now()
	var an *sstar.Analysis
	var err error
	r.tr.do("facade.analyze", op, root, func() { an, err = sstar.Analyze(a, sstar.DefaultOptions()) })
	if err != nil {
		r.rec.fail("analyze %s: %v", b.name, err)
		return
	}
	xf, ok := w.factorSolve(r, "cold", b, an, a, t0, root)
	if !ok || r.tr == nil {
		return
	}
	sroot := r.tr.begin("op.cold", op, 0)
	sym := stepwiseAnalyze(r.tr, op, sroot, a)
	w.stepwiseFactorSolve(r, op, sroot, b, sym, a, rhs, xf)
}

// patch is one near-miss of an analyzed base to its first verified x.
func (w *coldWorkload) patch(r *run, b *coldBase, a *sstar.Matrix) {
	op := r.nextOp(b.name)
	r.rec.ops++
	rhs := b.rhs[0]
	root := r.tr.begin("facade.patch", op, 0)
	t0 := time.Now()
	var an *sstar.Analysis
	var info sstar.PatchInfo
	var err error
	r.tr.do("facade.patch_analyze", op, root, func() { an, info, err = b.an.Patch(a) })
	if err != nil {
		r.rec.fail("patch %s: %v", b.name, err)
		return
	}
	if !info.Patched {
		w.fallbacks++
	}
	xf, ok := w.factorSolve(r, "patch", b, an, a, t0, root)
	if !ok || r.tr == nil || !info.Patched {
		return
	}
	sroot := r.tr.begin("op.patch", op, 0)
	sym, err := stepwisePatch(r.tr, op, sroot, &b.libMatrix, a)
	if err != nil {
		r.tr.end(sroot)
		r.rec.fail("%v", err)
		return
	}
	w.stepwiseFactorSolve(r, op, sroot, b, sym, a, rhs, xf)
}

// factorSolve finishes a facade op that started at t0 under the span root
// with its analysis, then solves the base's further right-hand sides on the
// fresh factors.
func (w *coldWorkload) factorSolve(r *run, class string, b *coldBase, an *sstar.Analysis, a *sstar.Matrix, t0 time.Time, root int) ([]float64, bool) {
	f, err := an.FactorizeWith(a)
	if err != nil {
		r.rec.fail("%s factorize %s: %v", class, b.name, err)
		return nil, false
	}
	var first []float64
	ok := true
	for i, rhs := range b.rhs {
		t1 := time.Now()
		x, err := f.Solve(rhs)
		t2 := time.Now()
		if i == 0 {
			r.tr.end(root)
			r.rec.add(class, b.name, t2.Sub(t0))
			first = x
		} else {
			r.rec.ops++
		}
		r.rec.add("solve", b.name, t2.Sub(t1))
		if err != nil {
			r.rec.fail("%s solve %s: %v", class, b.name, err)
			ok = false
			continue
		}
		ok = checkSolve(r.rec, class+" "+b.name, a, x, rhs) && ok
	}
	return first, ok
}

// stepwiseFactorSolve finishes a stepwise op under the open span sroot and
// holds its x against the facade's.
func (w *coldWorkload) stepwiseFactorSolve(r *run, op, sroot int, b *coldBase, sym *core.Symbolic, a *sstar.Matrix, rhs, want []float64) {
	var x []float64
	fact, err := w.tally.factorizeSeq(r.tr, op, sroot, a, sym)
	if err == nil {
		r.tr.do("core.solve", op, sroot, func() { x = fact.Solve(rhs) })
	}
	r.tr.end(sroot)
	if err != nil || !equalBits(x, want) {
		r.rec.fail("%s: stepwise op differs from the facade (err %v)", b.name, err)
		return
	}
	b.last = fact
}
