package bench

import (
	"fmt"
	"time"

	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/ordering"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
)

// Blas3Fraction regenerates the paper's Section 3.2 measurement: "more than
// 64 percent of numerical updates is performed by the BLAS-3 routine DGEMM in
// S*", per matrix, along with interchange counts and pivot-growth factors.
func Blas3Fraction(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Claim check: fraction of numerical work performed by BLAS-3 kernels (paper: r ~ 0.64)",
		Headers: []string{"matrix", "BLAS-1", "BLAS-2", "BLAS-3", "B3 fraction", "interchanges", "growth"},
		Notes: []string{
			"paper: DGEMM share ~64% after 2D L/U partitioning + amalgamation; BLAS-2 is the",
			"within-panel Factor() work the 1D/2D codes cannot avoid.",
		},
	}
	for _, spec := range append(SmallSuite(), LargeSuite()...) {
		p, err := prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		fact, err := core.FactorizeSeq(p.a, p.sym)
		if err != nil {
			return nil, err
		}
		st := fact.Stats(core.MaxAbs(p.a.Val))
		fl := fact.Fl
		t.AddRow(spec.Name,
			fmt.Sprintf("%d", fl.B1),
			fmt.Sprintf("%d", fl.B2),
			fmt.Sprintf("%d", fl.B3),
			fmt.Sprintf("%.2f", st.Blas3Fraction),
			fmt.Sprintf("%d", st.Interchanges),
			fmt.Sprintf("%.1f", st.GrowthFactor),
		)
	}
	return t, nil
}

// Caveats regenerates the paper's Section 3.1/7 caveat discussion: a
// memplus-like matrix with nearly dense rows blows the static overestimate
// up, while a wang3-like 3D device matrix overestimates ~4x yet still runs at
// GFLOPS-class rates on many processors.
func Caveats(cfg Config, nproc int) (*Table, error) {
	t := &Table{
		Title:   "Claim check: overestimation caveats (memplus and wang3 analogs, Section 3.1/7)",
		Headers: []string{"matrix", "order", "fill dyn", "fill S*", "ratio", fmt.Sprintf("2D P=%d MFLOPS", nproc)},
		Notes: []string{
			"paper: memplus overestimates 119x under MMD(A'A) (2.34x under A'+A ordering) — nearly",
			"dense rows are the static scheme's failure mode; wang3 overestimates ~4x yet still",
			"reaches 1 GFLOPS on 128 T3E nodes. Analog matrices reproduce both regimes.",
		},
	}
	model := machine.T3E()
	cases := []struct {
		name string
		gen  func() *sparse.CSR
		run  bool // run the 2D code (skip for the blowup case: too expensive by design)
	}{
		{"memplus-like", func() *sparse.CSR { return sparse.MemoryCircuitFrac(dimScale(1500, cfg.Scale), 2, 301) }, false},
		{"wang3-like", func() *sparse.CSR {
			d := dimScale(14, cfg.Scale)
			return sparse.Grid3D(d, d, d, sparse.GenOptions{Convection: 0.8, StructuralDrop: 0.08, Seed: 302})
		}, true},
	}
	for _, c := range cases {
		a := c.gen()
		sym := core.Analyze(a, core.AnalyzeOptions{
			Supernode: supernodeOptions(cfg),
		})
		gp, err := core.GPFactorize(sym.PermutedMatrix(a))
		if err != nil {
			return nil, err
		}
		mf := "-"
		if c.run {
			pr, pc := core.GridShape(nproc)
			res, err := core.Factorize2D(a, sym, effModel(model, sym), pr, pc, true)
			if err != nil {
				return nil, err
			}
			mf = fmt.Sprintf("%.1f", mflops(gp.Flops, res.ParallelTime))
		}
		t.AddRow(c.name,
			fmt.Sprintf("%d", a.N),
			fmt.Sprintf("%d", gp.NnzTotal()),
			fmt.Sprintf("%d", sym.Static.NnzTotal()),
			fmt.Sprintf("%.1f", float64(sym.Static.NnzTotal())/float64(gp.NnzTotal())),
			mf)
	}
	return t, nil
}

func dimScale(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 4 {
		return 4
	}
	return v
}

// ScalingReport is the classical speedup/efficiency table for the 2D
// asynchronous code: speedup = modeled sequential time / parallel time,
// efficiency = speedup / P.
func ScalingReport(cfg Config, procs []int) (*Table, error) {
	headers := []string{"matrix", "T_seq(s)"}
	for _, p := range procs {
		headers = append(headers, fmt.Sprintf("S(%d)", p), fmt.Sprintf("E(%d)", p))
	}
	t := &Table{
		Title:   "Scaling report: 2D asynchronous code speedup and efficiency (T3E model)",
		Headers: headers,
		Notes: []string{
			"speedup vs the modeled sequential S* time; efficiency = speedup/P. Larger, denser",
			"matrices sustain efficiency to higher P (Tables 5/6 in ratio form).",
		},
	}
	model := machine.T3E()
	for _, spec := range append(SmallSuite(), LargeSuite()...) {
		p, err := prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		fact, err := core.FactorizeSeq(p.a, p.sym)
		if err != nil {
			return nil, err
		}
		tseq := effModel(model, p.sym).ComputeSeconds(fact.Fl.B1, fact.Fl.B2, fact.Fl.B3, fact.Fl.Sw)
		row := []string{spec.Name, fmt.Sprintf("%.3f", tseq)}
		for _, np := range procs {
			res, err := run2D(p, np, model, true)
			if err != nil {
				return nil, err
			}
			sp := tseq / res.ParallelTime
			row = append(row, fmt.Sprintf("%.1f", sp), fmt.Sprintf("%.2f", sp/float64(np)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// SolveCost regenerates the paper's Section 2 remark that "the triangular
// solvers are much less time consuming than the Gaussian elimination
// process": modeled factorization versus distributed-solve time on the same
// processors.
func SolveCost(cfg Config, nproc int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Claim check: factorization vs triangular-solve time (1D, P=%d, T3E)", nproc),
		Headers: []string{"matrix", "factor PT(s)", "solve PT(s)", "ratio", "solve msgs"},
		Notes: []string{
			"paper Section 2: triangular solves cost far less than the factorization; the gap",
			"widens with matrix size (solves are O(fill), factorization O(sum of fill products)).",
		},
	}
	model := machine.T3E()
	for _, spec := range SmallSuite() {
		p, err := prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		s := core.ScheduleRAPID(p.sym, nproc, effModel(model, p.sym))
		res, err := core.Factorize1D(p.a, p.sym, effModel(model, p.sym), s)
		if err != nil {
			return nil, err
		}
		b := make([]float64, p.a.N)
		for i := range b {
			b[i] = 1
		}
		at := func(_, j int) int { return s.Owner[j] }
		sr, err := core.SolvePar(res.Fact, nproc, at, effModel(model, p.sym), b)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Name,
			fmt.Sprintf("%.4f", res.ParallelTime),
			fmt.Sprintf("%.5f", sr.ParallelTime),
			fmt.Sprintf("%.1fx", res.ParallelTime/sr.ParallelTime),
			fmt.Sprintf("%d", sr.SentMessages))
	}
	return t, nil
}

// Theorem2Buffers validates the paper's Theorem 2 buffer-space analysis
// empirically: the asynchronous 2D code's peak per-processor buffered message
// volume must stay below the analytic bound
// C*pc + R*(pr-1) <= n*BSIZE*s*(pc/pr + pr/pc) words (Section 5.2), far below
// the matrix size.
func Theorem2Buffers(cfg Config, procs []int) (*Table, error) {
	headers := []string{"matrix"}
	for _, p := range procs {
		headers = append(headers, fmt.Sprintf("P=%d high(B)", p), fmt.Sprintf("P=%d bound(B)", p), fmt.Sprintf("P=%d matrix%%", p))
	}
	t := &Table{
		Title:   "Claim check: Theorem 2 — asynchronous 2D buffer space is bounded and small",
		Headers: headers,
		Notes: []string{
			"bound: 8*n*BSIZE*s*(pc/pr + pr/pc) bytes with s the post-fill density; 'matrix%' is",
			"the measured high-water mark relative to total factor storage (paper: <100K words).",
		},
	}
	model := machine.T3E()
	for _, spec := range SmallSuite() {
		p, err := prepare(spec, cfg)
		if err != nil {
			return nil, err
		}
		row := []string{spec.Name}
		for _, np := range procs {
			pr, pc := core.GridShape(np)
			res, err := core.Factorize2D(p.a, p.sym, effModel(model, p.sym), pr, pc, true)
			if err != nil {
				return nil, err
			}
			storageBytes := 8 * res.Fact.BM.StorageEntries()
			// Post-fill density s and the Theorem 2 expression.
			n := float64(p.sym.N)
			density := float64(res.Fact.BM.StorageEntries()) / (n * n)
			bound := 8 * n * float64(cfg.BSize) * density *
				(float64(pc)/float64(pr) + float64(pr)/float64(pc))
			row = append(row,
				fmt.Sprintf("%d", res.BufferHigh),
				fmt.Sprintf("%.0f", bound),
				fmt.Sprintf("%.1f%%", 100*float64(res.BufferHigh)/float64(storageBytes)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// PrepCost measures the host wall-clock of the analyze pipeline stages
// (transversal, ordering, static symbolic factorization, partitioning) next
// to the numeric factorization — the paper's footnote reports the static
// preprocessing is cheap (2.76 s for its largest matrix on one T3E node).
// These are real measured times on the current host, not modeled times.
func PrepCost(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Claim check: analyze-phase cost vs numeric factorization (host wall-clock)",
		Headers: []string{"matrix", "transversal", "ordering", "symbolic", "partition", "numeric", "prep/numeric"},
		Notes: []string{
			"paper footnote: static symbolic preprocessing is very efficient (2.76 s for vavasis3",
			"on one T3E node); and it is paid once per pattern, amortized over refactorizations.",
		},
	}
	for _, spec := range append(SmallSuite(), LargeSuite()...) {
		a := spec.Gen(cfg.Scale)
		t0 := time.Now()
		rp, _ := ordering.MaxTransversal(a)
		work := a.PermuteRows(rp)
		t1 := time.Now()
		cp := ordering.MinimumDegree(sparse.ATAPattern(work))
		work = work.Permute(cp, cp)
		t2 := time.Now()
		st := symbolic.Factorize(sparse.PatternOf(work))
		t3 := time.Now()
		part := supernode.NewPartition(st, supernodeOptions(cfg))
		t4 := time.Now()
		sym := &core.Symbolic{N: a.N, RowPerm: composedPerm(rp, cp), ColPerm: cp, Static: st, Partition: part}
		if _, err := core.FactorizeSeq(a, sym); err != nil {
			return nil, err
		}
		t5 := time.Now()
		prep := t4.Sub(t0).Seconds()
		numeric := t5.Sub(t4).Seconds()
		t.AddRow(spec.Name,
			fmt.Sprintf("%.3fs", t1.Sub(t0).Seconds()),
			fmt.Sprintf("%.3fs", t2.Sub(t1).Seconds()),
			fmt.Sprintf("%.3fs", t3.Sub(t2).Seconds()),
			fmt.Sprintf("%.3fs", t4.Sub(t3).Seconds()),
			fmt.Sprintf("%.3fs", numeric),
			fmt.Sprintf("%.2f", prep/numeric))
	}
	return t, nil
}

func composedPerm(p, q []int) []int {
	out := make([]int, len(p))
	for i := range p {
		out[i] = q[p[i]]
	}
	return out
}

// supernodeOptions builds the partition options from a config.
func supernodeOptions(cfg Config) supernode.Options {
	return supernode.Options{MaxBlock: cfg.BSize, Amalgamate: cfg.Amalg}
}
