// Command sstar-solve factorizes a sparse system and solves it against a
// random (or all-ones) right-hand side, reporting fill, timing and the
// backward-error residual.
//
// The matrix comes from a Matrix Market file or from one of the built-in
// benchmark generators:
//
//	sstar-solve -file m.mtx
//	sstar-solve -gen goodwin -scale 0.5 -mapping 2d -p 16 -machine t3e
//	sstar-solve -gen goodwin -workers 8 -trace out.json
//
// -trace FILE records the run through the library's Observer hook and
// writes a Chrome trace_event JSON timeline (open in chrome://tracing or
// https://ui.perfetto.dev): the analyze/factor/solve phases, and with
// -workers > 1 one lane per executor worker showing every Factor(k) and
// Update(k,j) task of the numeric DAG. With a virtual-machine mapping it
// additionally records per-processor utilization, summarized on stdout.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"sstar"
	"sstar/internal/bench"
)

func main() {
	var (
		file    = flag.String("file", "", "Matrix Market file to solve")
		gen     = flag.String("gen", "", "benchmark matrix name (see sstar-info -list)")
		scale   = flag.Float64("scale", 1.0, "generator size multiplier")
		mapping = flag.String("mapping", "seq", "seq | 1d-ca | 1d-rapid | 2d | 2d-sync")
		procs   = flag.Int("p", 4, "processor count for parallel mappings")
		mach    = flag.String("machine", "t3e", "virtual machine model: t3d | t3e")
		bsize   = flag.Int("bsize", 0, "supernode panel width; 0 = structure-adaptive")
		amalg   = flag.Int("r", 0, "amalgamation factor; 0 under -bsize 0 = cost model chooses")
		workers = flag.Int("workers", 0, "goroutine cap for the numeric factor phase (seq mapping; 0 = the task-grain gate picks, at most 2; 1 = sequential)")
		ones    = flag.Bool("ones", false, "use b = A*1 instead of a random rhs (exact solution all ones)")
		trace   = flag.String("trace", "", "write a Chrome trace JSON timeline of the run to this file")
	)
	flag.Parse()

	var a *sstar.Matrix
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if isHB(*file) {
			a, err = sstar.ReadHarwellBoeing(f)
		} else {
			a, err = sstar.ReadMatrixMarket(f)
		}
		if err != nil {
			fatalf("%v", err)
		}
	case *gen != "":
		spec := bench.ByName(*gen)
		if spec == nil {
			fatalf("unknown generator %q (try sstar-info -list)", *gen)
		}
		a = spec.Gen(*scale)
	default:
		fatalf("need -file or -gen")
	}
	fmt.Printf("matrix: %d x %d, %d nonzeros\n", a.N, a.M, a.Nnz())

	b := make([]float64, a.N)
	var xTrue []float64
	if *ones {
		xTrue = make([]float64, a.N)
		for i := range xTrue {
			xTrue[i] = 1
		}
		a.MulVec(xTrue, b)
	} else {
		rng := rand.New(rand.NewSource(42))
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
	}

	opts := sstar.DefaultOptions()
	opts.BlockSize = *bsize
	opts.Amalgamate = *amalg
	opts.HostWorkers = *workers
	var tr *sstar.Trace
	if *trace != "" {
		tr = sstar.NewTrace(0)
		opts.Observer = tr
	}

	if *mapping != "seq" {
		opts.Procs = *procs
		opts.Machine = sstar.MachineName(*mach)
		opts.Mapping = sstar.Mapping(*mapping)
		opts.TraceParallel = *trace != ""
	}
	start := time.Now()
	fact, err := sstar.Factorize(a, opts)
	if err != nil {
		fatalf("factorization failed: %v", err)
	}
	stats := fact.RunStats()
	wall := time.Since(start)
	x, err := fact.Solve(b)
	if err != nil {
		fatalf("solve failed: %v", err)
	}
	fmt.Printf("factor storage entries: %d (static fill %d), %d blocks\n",
		fact.FillIn(), fact.StaticFill(), fact.Blocks())
	if bc := fact.Blocking(); bc.Adaptive {
		fmt.Printf("blocking: adaptive (max width %d, r=%d, %d panels)\n", bc.MaxBlock, bc.Amalgamate, bc.Panels)
	} else {
		fmt.Printf("blocking: fixed (bsize %d, r=%d, %d panels)\n", bc.MaxBlock, bc.Amalgamate, bc.Panels)
	}
	fmt.Printf("host wall-clock: %v\n", wall.Round(time.Microsecond))
	if stats != nil {
		fmt.Printf("virtual machine %s x %d (%s): parallel time %.4fs, %.1f MFLOPS, %d msgs, %d bytes, load balance %.3f\n",
			*mach, *procs, *mapping, stats.ParallelTime, stats.MFLOPS, stats.SentMessages, stats.SentBytes, stats.LoadBalance)
		if stats.Utilization != nil {
			fmt.Print("utilization:")
			for i, u := range stats.Utilization {
				fmt.Printf(" P%d=%.0f%%", i, 100*u)
			}
			fmt.Println()
		}
	}
	fmt.Printf("residual ||Ax-b||/(||A|| ||x|| + ||b||): %.3e\n", sstar.Residual(a, x, b))
	if tr != nil {
		if err := writeTrace(*trace, tr); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("trace: %d spans -> %s (%d dropped)\n", tr.Len(), *trace, tr.Dropped())
	}
	if xTrue != nil {
		maxErr := 0.0
		for i := range x {
			if d := x[i] - xTrue[i]; d > maxErr {
				maxErr = d
			} else if -d > maxErr {
				maxErr = -d
			}
		}
		fmt.Printf("max error vs exact ones solution: %.3e\n", maxErr)
	}
}

// writeTrace dumps the recorded timeline as Chrome trace JSON.
func writeTrace(path string, tr *sstar.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// isHB guesses Harwell-Boeing input from the file suffix.
func isHB(path string) bool {
	for _, suf := range []string{".rua", ".rsa", ".pua", ".psa", ".hb", ".rb"} {
		if strings.HasSuffix(strings.ToLower(path), suf) {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sstar-solve: "+format+"\n", args...)
	os.Exit(1)
}
