// Command sstar-info prints structural and symbolic statistics for a matrix:
// its Table 1 row (order, nnz, symmetry, dynamic/static/Cholesky fills, ops
// ratio), the supernode partition summary and the host executor's verdict
// (task grain against G, critical-path fraction, workers chosen).
//
//	sstar-info -list
//	sstar-info -gen sherman5
//	sstar-info -file m.mtx -bsize 25 -r 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/ordering"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
)

func main() {
	var (
		file  = flag.String("file", "", "Matrix Market file")
		gen   = flag.String("gen", "", "benchmark matrix name")
		scale = flag.Float64("scale", 1.0, "generator size multiplier")
		bsize = flag.Int("bsize", 0, "supernode panel width; 0 = structure-adaptive")
		amalg = flag.Int("r", 0, "amalgamation factor; 0 under -bsize 0 = cost model chooses")
		list  = flag.Bool("list", false, "list the benchmark suite and exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-12s %-10s %8s %9s  %s\n", "name", "family", "order", "nnz", "notes")
		for _, s := range append(bench.Suite(), bench.Extras()...) {
			note := ""
			if s.Scaled {
				note = "scaled-down vs paper"
			}
			fmt.Printf("%-12s %-10s %8d %9d  %s\n", s.Name, s.Kind, s.Paper.Order, s.Paper.Nnz, note)
		}
		return
	}

	var a *sparse.CSR
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		a, err = sparse.ReadMatrixMarket(f)
		if err != nil {
			fatalf("%v", err)
		}
	case *gen != "":
		spec := bench.ByName(*gen)
		if spec == nil {
			fatalf("unknown matrix %q", *gen)
		}
		a = spec.Gen(*scale)
	default:
		fatalf("need -file, -gen or -list")
	}

	stats := sparse.ComputeStats(a)
	fmt.Printf("order:            %d\n", stats.Order)
	fmt.Printf("nonzeros:         %d (%.1f per row)\n", stats.Nnz, stats.AvgPerRow)
	fmt.Printf("pattern symmetry: %.3f (1 = symmetric pattern)\n", stats.Symmetry)
	fmt.Printf("zero-free diag:   %v\n", stats.DiagFree)

	sym := core.Analyze(a, core.AnalyzeOptions{Supernode: supernode.Options{MaxBlock: *bsize, Amalgamate: *amalg}})
	work := sym.PermutedMatrix(a)
	fmt.Printf("\nafter MC21 transversal + minimum degree on A'A:\n")
	fmt.Printf("static fill (George-Ng):   %d entries\n", sym.Static.NnzTotal())
	fmt.Printf("static element ops:        %d\n", sym.Static.ElementOps())
	chol := symbolic.CholeskyFill(sparse.ATAPattern(work))
	fmt.Printf("Cholesky(A'A) fill bound:  %d entries\n", 2*chol-int64(a.N))
	if gp, err := core.GPFactorize(work); err == nil {
		fmt.Printf("dynamic fill (GP LU):      %d entries\n", gp.NnzTotal())
		fmt.Printf("dynamic flops:             %d\n", gp.Flops)
		fmt.Printf("static/dynamic fill:       %.2f\n", float64(sym.Static.NnzTotal())/float64(gp.NnzTotal()))
		fmt.Printf("static/dynamic ops:        %.2f\n", float64(sym.Static.ElementOps())/float64(gp.Flops))
	} else {
		fmt.Printf("dynamic baseline failed:   %v\n", err)
	}
	p := sym.Partition
	if c := p.Choice; c.Adaptive {
		fmt.Printf("\n2D L/U partition (adaptive: max width %d, r=%d, model cost %.3g):\n", c.MaxBlock, c.Amalgamate, c.ModelCost)
	} else {
		fmt.Printf("\n2D L/U partition (BSIZE=%d, r=%d):\n", *bsize, *amalg)
	}
	fmt.Printf("supernode panels:          %d (avg width %.2f)\n", p.NB, float64(p.N)/float64(p.NB))
	var lblocks, ublocks int
	for k := 0; k < p.NB; k++ {
		lblocks += len(p.LBlocks[k])
		ublocks += len(p.UBlocks[k])
	}
	fmt.Printf("nonzero L blocks:          %d\n", lblocks)
	fmt.Printf("nonzero U blocks:          %d\n", ublocks)
	forest := p.EliminationForest()
	fmt.Printf("elimination forest height: %d of %d blocks (tree parallelism proxy)\n",
		ordering.TreeHeight(forest), p.NB)
	fmt.Printf("flop-weighted panel width: %.1f\n", p.FlopWeightedWidth())

	tasks, grain := sym.Grain()
	g := sym.TaskGraph()
	w := g.Weights(1, 1, 1, 1, 0)
	cp, _ := g.CriticalPath(w)
	fmt.Printf("\nhost executor (numeric phase, HostWorkers=0):\n")
	fmt.Printf("Factor/Update tasks:       %d\n", tasks)
	fmt.Printf("mean flops per task:       %.0f (parallel from G = %d)\n", grain, core.ParallelGrain)
	fmt.Printf("critical-path fraction:    %.3f of total work\n", cp/g.TotalWork(w))
	fmt.Printf("workers at GOMAXPROCS=%d:   %d\n", runtime.GOMAXPROCS(0), sym.HostWorkers(0))

	pt, tm := sym.Phases, p.Times
	fmt.Printf("\nanalyze-phase breakdown:\n")
	fmt.Printf("ordering:                  %9.2f ms\n", float64(pt.OrderingNs)/1e6)
	fmt.Printf("symbolic fill:             %9.2f ms\n", float64(pt.SymbolicNs)/1e6)
	fmt.Printf("partition:                 %9.2f ms\n", float64(pt.PartitionNs)/1e6)
	fmt.Printf("  supernode detect:        %9.2f ms\n", float64(tm.DetectNs)/1e6)
	fmt.Printf("  blocking choice:         %9.2f ms\n", float64(tm.ChooseNs)/1e6)
	fmt.Printf("  structure build:         %9.2f ms\n", float64(tm.BuildNs)/1e6)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sstar-info: "+format+"\n", args...)
	os.Exit(1)
}
