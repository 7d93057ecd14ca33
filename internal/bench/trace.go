package bench

import (
	"fmt"
	"os"
	"time"

	"sstar/internal/core"
	"sstar/internal/obs"
	"sstar/internal/supernode"
)

// TraceSummary describes one traced factorization run: what ran, how long,
// and what landed in the trace file.
type TraceSummary struct {
	Matrix  string
	Order   int
	Nnz     int
	Workers int
	Tasks   int
	Seconds float64
	Spans   int
	Dropped int64
	Path    string
}

// TraceRun factorizes one suite matrix with the host executor
// under a trace recorder and writes the timeline as Chrome trace_event JSON
// to path (open in chrome://tracing or https://ui.perfetto.dev). The trace
// holds the analyze phases plus one span per Factor(k)/Update(k,j) task on
// one lane per worker — the direct visualization of the executor's pipeline
// overlap.
func TraceRun(cfg Config, matrixName string, workers int, path string) (*TraceSummary, error) {
	spec := ByName(matrixName)
	if spec == nil {
		return nil, fmt.Errorf("bench: unknown matrix %q", matrixName)
	}
	a := spec.Gen(cfg.Scale)
	tr := obs.NewTracer(0)
	sym := core.Analyze(a, core.AnalyzeOptions{
		Supernode: supernode.Options{MaxBlock: cfg.BSize, Amalgamate: cfg.Amalg},
		Obs:       tr,
	})
	t0 := time.Now()
	if _, err := core.FactorizeHostObs(a, sym, workers, tr); err != nil {
		return nil, fmt.Errorf("bench: trace run %s: %w", matrixName, err)
	}
	sec := time.Since(t0).Seconds()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	// One Factor(k) per panel plus one Update(k, j) per U block.
	tasks := sym.Partition.NB
	for _, ub := range sym.Partition.UBlocks {
		tasks += len(ub)
	}
	return &TraceSummary{
		Matrix:  matrixName,
		Order:   a.N,
		Nnz:     a.Nnz(),
		Workers: workers,
		Tasks:   tasks,
		Seconds: sec,
		Spans:   tr.Len(),
		Dropped: tr.Dropped(),
		Path:    path,
	}, nil
}
