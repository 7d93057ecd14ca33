package bench

import (
	"fmt"

	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/supernode"
)

// AblationBlockSize sweeps the supernode panel width (the paper fixes 25
// after observing that larger blocks cut parallelism and smaller ones cut
// BLAS-3 efficiency is folded into the rate model; here the visible effect is
// on parallel time and task granularity).
func AblationBlockSize(cfg Config, name string, sizes []int, nproc int) (*Table, error) {
	spec := ByName(name)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown matrix %q", name)
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: block size sweep on %s (2D async, P=%d, T3E)", name, nproc),
		Headers: []string{"BSIZE", "blocks", "PT(s)", "MFLOPS", "storage"},
		Notes:   []string{"paper: BSIZE=25 balances cache efficiency against available parallelism."},
	}
	a := spec.Gen(cfg.Scale)
	model := machine.T3E()
	for _, bs := range sizes {
		sym := core.Analyze(a, core.AnalyzeOptions{Supernode: supernode.Options{MaxBlock: bs, Amalgamate: cfg.Amalg}})
		pre := sym.PermutedMatrix(a)
		gp, err := core.GPFactorize(pre)
		if err != nil {
			return nil, err
		}
		pr, pc := core.GridShape(nproc)
		res, err := core.Factorize2D(a, sym, effModel(model, sym), pr, pc, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", bs),
			fmt.Sprintf("%d", sym.Partition.NB),
			fmt.Sprintf("%.4f", res.ParallelTime),
			fmt.Sprintf("%.1f", mflops(gp.Flops, res.ParallelTime)),
			fmt.Sprintf("%d", res.Fact.BM.StorageEntries()))
	}
	return t, nil
}

// AblationAmalgamation sweeps the relaxation factor r (paper Section 3.3:
// r in 4..6 is best, improving sequential time 10-55%).
func AblationAmalgamation(cfg Config, name string, factors []int) (*Table, error) {
	spec := ByName(name)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown matrix %q", name)
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: amalgamation factor sweep on %s (sequential, T3E model)", name),
		Headers: []string{"r", "blocks", "storage", "T_seq(s)", "MFLOPS"},
		Notes:   []string{"paper: bigger supernodes raise BLAS-3 share until padding zeros dominate."},
	}
	a := spec.Gen(cfg.Scale)
	model := machine.T3E()
	for _, r := range factors {
		sym := core.Analyze(a, core.AnalyzeOptions{Supernode: supernode.Options{MaxBlock: cfg.BSize, Amalgamate: r}})
		pre := sym.PermutedMatrix(a)
		gp, err := core.GPFactorize(pre)
		if err != nil {
			return nil, err
		}
		fact, err := core.FactorizeSeq(a, sym)
		if err != nil {
			return nil, err
		}
		ts := seqModeledTime(fact.Fl, effModel(model, sym))
		t.AddRow(fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", sym.Partition.NB),
			fmt.Sprintf("%d", fact.BM.StorageEntries()),
			fmt.Sprintf("%.4f", ts),
			fmt.Sprintf("%.1f", mflops(gp.Flops, ts)))
	}
	return t, nil
}

// AblationGridAspect sweeps the processor-grid aspect ratio at a fixed
// processor count (the paper reports pr <= pc + 1, in practice pc/pr = 2,
// works best).
func AblationGridAspect(cfg Config, name string, nproc int) (*Table, error) {
	spec := ByName(name)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown matrix %q", name)
	}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: 2D grid aspect sweep on %s (P=%d, T3E, async)", name, nproc),
		Headers: []string{"pr x pc", "PT(s)", "MFLOPS", "msgs", "bytes"},
		Notes:   []string{"paper: pc/pr ~ 2 is best — pivot search serializes along pr, U multicasts along pc."},
	}
	a := spec.Gen(cfg.Scale)
	model := machine.T3E()
	sym := core.Analyze(a, core.AnalyzeOptions{Supernode: supernode.Options{MaxBlock: cfg.BSize, Amalgamate: cfg.Amalg}})
	pre := sym.PermutedMatrix(a)
	gp, err := core.GPFactorize(pre)
	if err != nil {
		return nil, err
	}
	for pr := 1; pr <= nproc; pr++ {
		if nproc%pr != 0 {
			continue
		}
		pc := nproc / pr
		res, err := core.Factorize2D(a, sym, effModel(model, sym), pr, pc, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dx%d", pr, pc),
			fmt.Sprintf("%.4f", res.ParallelTime),
			fmt.Sprintf("%.1f", mflops(gp.Flops, res.ParallelTime)),
			fmt.Sprintf("%d", res.SentMessages),
			fmt.Sprintf("%d", res.SentBytes))
	}
	return t, nil
}

// AblationOrdering quantifies how much the preprocessing ordering matters for
// the static overestimate (the paper's Section 7 future-work discussion):
// natural order versus MC21 transversal + minimum degree on A^T A.
func AblationOrdering(cfg Config) (*Table, error) {
	t := &Table{
		Title:   "Ablation: ordering impact on static fill (natural vs MMD(A'A))",
		Headers: []string{"matrix", "fill natural", "fill MMD(A'A)", "MMD reduction"},
		Notes: []string{
			"paper Section 7: the static scheme depends on a good ordering; a poor one (or a",
			"nearly dense row) inflates the overestimate dramatically.",
		},
	}
	for _, spec := range SmallSuite() {
		a := spec.Gen(cfg.Scale)
		sn := supernode.Options{MaxBlock: cfg.BSize, Amalgamate: cfg.Amalg}
		natural := core.Analyze(a, core.AnalyzeOptions{SkipOrdering: true, Supernode: sn})
		mmd := core.Analyze(a, core.AnalyzeOptions{Supernode: sn})
		fn := natural.Static.NnzTotal()
		fm := mmd.Static.NnzTotal()
		t.AddRow(spec.Name,
			fmt.Sprintf("%d", fn),
			fmt.Sprintf("%d", fm),
			fmt.Sprintf("%.1f%%", 100*(1-float64(fm)/float64(fn))))
	}
	return t, nil
}

// AblationMapping compares 1D cyclic (CA), 1D graph-scheduled and 2D async on
// one matrix across processor counts.
func AblationMapping(cfg Config, name string, procs []int) (*Table, error) {
	spec := ByName(name)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown matrix %q", name)
	}
	headers := []string{"P", "1D CA (s)", "1D RAPID (s)", "2D async (s)"}
	t := &Table{
		Title:   fmt.Sprintf("Ablation: mapping/scheduling comparison on %s (T3E)", name),
		Headers: headers,
	}
	p, err := prepare(*spec, cfg)
	if err != nil {
		return nil, err
	}
	model := machine.T3E()
	for _, np := range procs {
		ca, err := run1D(p, np, model, "ca")
		if err != nil {
			return nil, err
		}
		ra, err := run1D(p, np, model, "rapid")
		if err != nil {
			return nil, err
		}
		d2, err := run2D(p, np, model, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", np),
			fmt.Sprintf("%.4f", ca.ParallelTime),
			fmt.Sprintf("%.4f", ra.ParallelTime),
			fmt.Sprintf("%.4f", d2.ParallelTime))
	}
	return t, nil
}
