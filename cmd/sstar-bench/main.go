// Command sstar-bench regenerates the tables and figures of the paper's
// evaluation section on the virtual T3D/T3E machines.
//
// Usage:
//
//	sstar-bench -experiment all                 # everything (several minutes)
//	sstar-bench -experiment table6 -scale 0.5   # one artifact, smaller inputs
//	sstar-bench -experiment ablations -matrix goodwin
//	sstar-bench -trace out.json -matrix goodwin -procs 8  # Chrome trace of one run
//
// Experiments: table1 table2 table3 fig16 table4 table5 table6 fig17 fig18
// table7 blas3 theorem2 solvecost scaling caveats prepcost ablations all.
// Host kernel and service performance are measured by the repository's
// benchmark instead (go run ./benchmark; see benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sstar/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which table/figure to regenerate (table1..table7, fig16..fig18, ablations, all)")
		scale      = flag.Float64("scale", 1.0, "matrix size multiplier relative to DESIGN.md sizes")
		bsize      = flag.Int("bsize", 25, "supernode panel width (paper: 25)")
		amalg      = flag.Int("r", 4, "amalgamation factor (paper: 4-6)")
		procsFlag  = flag.String("procs", "", "comma-separated processor counts (default: per-experiment paper values)")
		matrix     = flag.String("matrix", "goodwin", "matrix for the ablation sweeps and -trace runs")
		trace      = flag.String("trace", "", "trace one host-parallel factorization of -matrix and write Chrome trace JSON to this file, then exit")
	)
	flag.Parse()
	cfg := bench.Config{Scale: *scale, BSize: *bsize, Amalg: *amalg}

	if *trace != "" {
		workers := runtime.NumCPU()
		if *procsFlag != "" {
			if v, err := strconv.Atoi(strings.TrimSpace(strings.Split(*procsFlag, ",")[0])); err == nil && v > 0 {
				workers = v
			}
		}
		sum, err := bench.TraceRun(cfg, *matrix, workers, *trace)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("traced %s (n=%d nnz=%d): %d tasks on %d workers in %.3fs, %d spans -> %s (%d dropped)\n",
			sum.Matrix, sum.Order, sum.Nnz, sum.Tasks, sum.Workers, sum.Seconds, sum.Spans, sum.Path, sum.Dropped)
		return
	}

	parseProcs := func(def []int) []int {
		if *procsFlag == "" {
			return def
		}
		var out []int
		for _, s := range strings.Split(*procsFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				fatalf("bad -procs entry %q", s)
			}
			out = append(out, v)
		}
		return out
	}

	type job struct {
		name string
		run  func() (*bench.Table, error)
	}
	jobs := []job{
		{"table1", func() (*bench.Table, error) { return bench.Table1(cfg) }},
		{"table2", func() (*bench.Table, error) { return bench.Table2(cfg) }},
		{"table3", func() (*bench.Table, error) { return bench.Table3(cfg, parseProcs([]int{2, 4, 8, 16, 32, 64})) }},
		{"fig16", func() (*bench.Table, error) { return bench.Fig16(cfg, parseProcs([]int{2, 4, 8, 16, 32})) }},
		{"table4", func() (*bench.Table, error) { return bench.Table4(cfg, parseProcs([]int{1, 2, 4, 8, 16, 32})) }},
		{"table5", func() (*bench.Table, error) { return bench.Table5(cfg, parseProcs([]int{16, 32, 64})) }},
		{"table6", func() (*bench.Table, error) { return bench.Table6(cfg, parseProcs([]int{8, 16, 32, 64, 128})) }},
		{"fig17", func() (*bench.Table, error) { return bench.Fig17(cfg, firstOr(parseProcs(nil), 32)) }},
		{"fig18", func() (*bench.Table, error) { return bench.Fig18(cfg, firstOr(parseProcs(nil), 32)) }},
		{"table7", func() (*bench.Table, error) { return bench.Table7(cfg, parseProcs([]int{2, 4, 8, 16, 32, 64})) }},
		{"blas3", func() (*bench.Table, error) { return bench.Blas3Fraction(cfg) }},
		{"theorem2", func() (*bench.Table, error) { return bench.Theorem2Buffers(cfg, parseProcs([]int{8, 32, 128})) }},
		{"solvecost", func() (*bench.Table, error) { return bench.SolveCost(cfg, firstOr(parseProcs(nil), 16)) }},
		{"scaling", func() (*bench.Table, error) { return bench.ScalingReport(cfg, parseProcs([]int{4, 16, 64})) }},
		{"caveats", func() (*bench.Table, error) { return bench.Caveats(cfg, firstOr(parseProcs(nil), 32)) }},
		{"prepcost", func() (*bench.Table, error) { return bench.PrepCost(cfg) }},
		{"ablations", func() (*bench.Table, error) {
			// Ablations print several tables; run them here and return the
			// last for uniformity.
			var last *bench.Table
			for _, f := range []func() (*bench.Table, error){
				func() (*bench.Table, error) { return bench.AblationBlockSize(cfg, *matrix, []int{8, 16, 25, 40}, 16) },
				func() (*bench.Table, error) { return bench.AblationAmalgamation(cfg, *matrix, []int{0, 2, 4, 6, 8}) },
				func() (*bench.Table, error) { return bench.AblationGridAspect(cfg, *matrix, 16) },
				func() (*bench.Table, error) { return bench.AblationOrdering(cfg) },
				func() (*bench.Table, error) {
					return bench.AblationMapping(cfg, *matrix, parseProcs([]int{2, 4, 8, 16, 32}))
				},
			} {
				t, err := f()
				if err != nil {
					return nil, err
				}
				if last != nil {
					fmt.Println(last.Render())
				}
				last = t
			}
			return last, nil
		}},
	}

	ran := false
	for _, j := range jobs {
		if *experiment != "all" && *experiment != j.name {
			continue
		}
		ran = true
		start := time.Now()
		t, err := j.run()
		if err != nil {
			fatalf("%s: %v", j.name, err)
		}
		fmt.Println(t.Render())
		fmt.Printf("[%s regenerated in %v]\n\n", j.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fatalf("unknown experiment %q", *experiment)
	}
}

func firstOr(xs []int, def int) int {
	if len(xs) > 0 {
		return xs[0]
	}
	return def
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sstar-bench: "+format+"\n", args...)
	os.Exit(1)
}
