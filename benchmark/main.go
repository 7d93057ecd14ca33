// Command benchmark is the one benchmark of S*: six workloads, each measured
// end to end with tracing off and, in a separate traced run, layer by layer
// from outside the layers. See README.md in this directory.
//
//	go run ./benchmark --workload factor-dense --seed 1 --seconds 15 --trace 0
//
// runs one workload and prints its result as the last line of standard output
// (the form BENCHMARK.json's driver uses). Without --workload it runs all six,
// untraced and traced, each in a fresh child process, and prints every metric
// by name; with -aa it runs the untraced set twice and checks that the two
// agree within the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sstar/internal/xblas"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every workload's input size; 1 is the benchmark
	setups   int     // set-up repetitions; setup_s is their median
	outDir   string  // where a traced run writes trace.<workload>.json
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// instance is a workload set up and ready to be measured.
type instance interface {
	// measure runs ops for cfg.seconds, recording into r, and sets r.rate.
	measure(r *run)
	close()
}

// run is the state of one set-up + measurement of one workload.
type run struct {
	cfg   config
	in    *inputs
	tr    *tracer   // nil with tracing off
	rec   *recorder // samples and verdicts
	layer metricSet // per-layer values a traced run fills
	rate  float64   // ops per second, see recorder.throughput
	notes map[string]any
	opSeq int
}

// nextOp numbers the next op and names the kind its spans belong to.
func (r *run) nextOp(kind string) int {
	r.opSeq++
	r.tr.setKind(r.opSeq, kind)
	return r.opSeq
}

type workloadDef struct {
	Name string
	Why  string
	// Op is the class of the headline op op_p50_ms and op_p90_ms report:
	// the workload's own time to solution.
	Op    string
	setup func(r *run) (instance, error)
}

var workloads = []workloadDef{
	{"factor-dense", "big supernodes (3D grids, panels ~60 wide): refactor-to-x is >90% numeric factor, GEMM/TRSM-bound; a kernel or blocking gain must show here",
		"refactor", setupFactor([]string{"ex11", "raefsky4", "inaccura"}, 0.8)},
	{"factor-sparse", "same layers, tiny supernodes: task overhead, scatter and pivot search dominate; large-tile GEMM work must not move it, a blocking change that hurts it is caught",
		"refactor", setupFactor([]string{"lnsp3937", "lns3937", "jpwh991", "orsreg1"}, 1.0)},
	{"cold-start", "never-analyzed structures to first x: ordering, symbolic and supernode do most of the work; pays for smarter blocking chosen at Analyze time",
		"cold", setupCold},
	{"svc-direct", "small solves through client, wire and one server: numerics are a sliver of a request, codec, queue and registry dominate; a wire or server gain shows here, a kernel gain must not",
		"refactor", setupService(svcDirect)},
	{"svc-cluster", "router in front of two shards, writes replicating beside reads, cold near-misses: adds router hop, placement and replication with numerics large enough to matter",
		"refactor", setupService(svcCluster)},
	{"sim-t3e", "the paper's T3E runs on the virtual-time machine: only user of the par1d/par2d/solvepar executors; modelled numbers must repeat exactly, host wall time must not grow",
		"run", setupSim},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the line the driver reads.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// detail is printed on the line before the result: what a reader needs to
// trust and compare two runs, which the driver's format has no room for.
type detail struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Fingerprint string             `json:"input_fingerprint"`
	Samples     map[string]int     `json:"samples"`            // per op class
	KindP50ms   map[string]float64 `json:"kind_p50_ms"`        // per "class kind": what the geometric means are taken over
	Beyond90    map[string]int     `json:"samples_beyond_p90"` // per reported p90
	Failures    []string           `json:"failures,omitempty"`
	Notes       map[string]any     `json:"notes,omitempty"`
	Envelope    map[string]any     `json:"envelope"`
}

func envelope() map[string]any {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	mc, nc := xblas.TileShape()
	return map[string]any{
		"git_sha": sha, "go_version": runtime.Version(), "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "micro_kernel": xblas.KernelName(),
		"tile_mc": mc, "tile_nc": nc,
	}
}

// peakRSSMB reads this process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload sets the workload up cfg.setups times, measures the last
// instance and returns the result line and its detail.
func runWorkload(cfg config) (result, detail, error) {
	def := findWorkload(cfg.workload)
	if def == nil {
		return result{}, detail{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Never xblas.Autotune: a timing-dependent tile choice would make two
	// runs of the same code disagree. The shape in use is in the envelope.
	runtime.GOMAXPROCS(hostWorkers())

	var r *run
	var inst instance
	var setups []float64
	for i := 0; i < max(cfg.setups, 1); i++ {
		if inst != nil {
			inst.close()
		}
		r = &run{cfg: cfg, in: &inputs{seed: cfg.seed}, rec: newRecorder(), notes: map[string]any{}}
		if cfg.trace {
			r.tr = newTracer()
			r.layer = newMetricSet(perLayer)
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(r); err != nil {
			return result{}, detail{}, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC() // start every measurement from a collected heap, whatever set-up left
	inst.measure(r)
	inst.close()

	op := classStats(r.rec.samples[def.Op])
	solve := classStats(r.rec.samples["solve"])
	res := result{Correct: r.rec.failed == 0, Attempted: r.rec.ops, Failed: r.rec.failed}
	det := detail{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Fingerprint: fmt.Sprintf("%016x", r.in.fingerprint),
		Samples:     map[string]int{},
		KindP50ms:   map[string]float64{},
		Beyond90:    map[string]int{"op": op.Beyond90, "solve": solve.Beyond90},
		Failures:    r.rec.failures, Notes: r.notes, Envelope: envelope(),
	}
	for class, kinds := range r.rec.samples {
		for kind, xs := range kinds {
			det.Samples[class] += len(xs)
			det.KindP50ms[class+" "+kind] = ms(median(xs))
		}
	}
	if !cfg.trace {
		m := newMetricSet(endToEnd)
		m.set("setup_s", median(setups))
		m.set("ops_per_s", r.rate)
		m.set("op_p50_ms", ms(op.P50))
		m.set("solve_p50_ms", ms(solve.P50))
		m.set("peak_rss_mb", peakRSSMB())
		res.Metrics = m
		return res, det, nil
	}
	traceLayers(r, def)
	res.Metrics = r.layer
	if err := r.tr.write(cfg.outDir, cfg.workload); err != nil {
		return res, det, err
	}
	return res, det, nil
}

// traceLayers fills what every traced run reports the same way: span self
// times, the facade's op classes, the kernel roofline and the benchmark's
// account of itself.
func traceLayers(r *run, def *workloadDef) {
	l := r.layer
	self, dur := r.tr.times()
	p50 := func(m map[string]map[string][]float64, span string) float64 { return classStats(m[span]).P50 }
	for name := range self {
		// A span reports to the metric named after it, in that metric's unit.
		if l.has(name + "_ms") {
			l.set(name+"_ms", ms(p50(self, name)))
		} else if l.has(name + "_us") {
			l.set(name+"_us", us(p50(self, name)))
		}
	}
	// What the server does not account for: the client's solve span minus the
	// queue, analyze, factor and solve times the reply reports.
	l.set("server.unaccounted_us", us(p50(self, "client.solve")))
	if def.Op != "run" { // sim-t3e's ops are the machine layer's
		for _, class := range []string{"cold", "patch", "refactor", "solve", "solvemany", "factorize"} {
			l.set("op."+class+"_p50_ms", ms(classStats(r.rec.samples[class]).P50))
		}
		for _, class := range []string{"cold", "refactor", "solve"} {
			l.set("op."+class+"_p90_ms", ms(classStats(r.rec.samples[class]).P90))
		}
	}
	if host := p50(dur, "core.factor_host"); host > 0 {
		// The facade's HostWorkers=N refactor is the host executor plus the
		// same solve; the traced run times the executor alone.
		l.set("op.refactor_par_p50_ms", ms(host+p50(dur, "core.solve")))
		l.set("core.hostpar_speedup", p50(dur, "core.factor_seq")/host)
	}
	if patch := p50(dur, "facade.patch_analyze"); patch > 0 {
		l.set("symbolic.patch_speedup", p50(dur, "facade.analyze")/patch)
	}
	// The share of the stepwise ops no layer span covers, and what tracing
	// costs: on library workloads the stepwise op against the facade op, on
	// the others the ops that recorded spans against those that did not.
	var opSelf, opDur, facadeDur float64
	for _, class := range []string{"cold", "patch", "refactor"} {
		for kind, xs := range dur["op."+class] {
			for i, x := range xs {
				opDur += x
				opSelf += self["op."+class][kind][i]
			}
		}
		for _, xs := range dur["facade."+class] {
			for _, x := range xs {
				facadeDur += x
			}
		}
	}
	if opDur > 0 && facadeDur > 0 {
		l.set("bench.unattributed_frac", opSelf/opDur)
		l.set("bench.trace_overhead_frac", opDur/facadeDur-1)
	}
	if plain := classStats(r.rec.samples["plain"]).P50; plain > 0 {
		l.set("bench.trace_overhead_frac", classStats(r.rec.samples["traced"]).P50/plain-1)
	}
	xblasRoofline(l)
	if peak := l["xblas.gemm_gflops_128"].Value; peak > 0 {
		l.set("core.rate_over_gemm_peak", l["core.factor_gflops"].Value/peak)
	}
}

// keepFreedMemoryMapped restarts the process once with GODEBUG
// madvdontneed=0, so freed heap stays mapped (MADV_FREE) instead of going back
// to the OS at once. The VM this was sized on hands returned memory on to its
// host, and touching it again is a host page fault whose price moves with the
// host's load: with the default the same binary and seed gave svc-cluster's
// op_p50_ms anywhere from 10.9 to 14.4 ms, with this 11.1 to 11.7, on a third
// of the page faults. The runtime reads the setting only at start-up, and
// //go:debug does not take it, hence the exec: same pid, no child.
func keepFreedMemoryMapped() {
	env := os.Getenv("GODEBUG")
	if strings.Contains(env, "madvdontneed") {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	if env != "" {
		env += ","
	}
	os.Setenv("GODEBUG", env+"madvdontneed=0")
	if err := syscall.Exec(exe, os.Args, os.Environ()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: could not restart with madvdontneed=0:", err)
	}
}

func main() {
	keepFreedMemoryMapped()
	// Input scale, set-up repetitions and the trace directory are fixed: they
	// are part of what the numbers mean. Only the test runs smaller.
	cfg := config{scale: 1, setups: 5, outDir: filepath.Join("benchmark", "out")}
	var trace int
	var aa bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all six, untraced and traced")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&aa, "aa", false, "run the untraced set twice and check the two agree within the bounds")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in this package declare it")
	flag.Parse()
	cfg.trace = trace != 0

	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}

	switch {
	case aa:
		os.Exit(runAA(cfg))
	case cfg.workload == "":
		os.Exit(runAll(cfg))
	}
	res, det, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := errors.Join(enc.Encode(det), enc.Encode(res)); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !res.Correct {
		for _, f := range det.Failures {
			fmt.Fprintln(os.Stderr, "benchmark: failed:", f)
		}
		os.Exit(1)
	}
}

// runSeconds is BENCHMARK.json's run_seconds. The driver makes 4 + 22 x 6
// runs inside 3420 s, so a run, with its five set-ups and its build check,
// has about 25 s; it takes 16 to 20.
const runSeconds = 15

// manifestJSON renders BENCHMARK.json from the tables the benchmark emits
// from; bench_test.go holds the checked-in file to it.
func manifestJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds, EndToEnd: endToEnd}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// child runs one workload in a fresh process of this binary, so peak RSS,
// heap state and caches of one workload never reach the next.
func child(cfg config, name string, trace bool) (result, detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, detail{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", t)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	var det detail
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-2]), &det) != nil || json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
		return res, det, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	return res, det, nil
}

func printMetrics(defs []metricDef, m metricSet, skipZero bool) {
	for _, d := range defs {
		if v := m[d.Name]; !skipZero || v.Value != 0 {
			fmt.Printf("  %-34s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// runAll is the command a person runs: every workload, untraced then traced.
func runAll(cfg config) int {
	env, _ := json.Marshal(envelope())
	fmt.Printf("envelope %s\n", env)
	status := 0
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, det, err := child(cfg, w.Name, trace)
			if err != nil {
				fmt.Println("FAILED:", err)
				status = 1
				continue
			}
			fmt.Printf("\n%s trace=%v seed=%d fingerprint=%s attempted=%d failed=%d fail_frac=%g samples=%v beyond_p90=%v\n",
				w.Name, trace, det.Seed, det.Fingerprint, res.Attempted, res.Failed,
				float64(res.Failed)/float64(max(res.Attempted, 1)), det.Samples, det.Beyond90)
			if trace {
				// A layer the workload does not exercise reports 0; leave those out.
				printMetrics(perLayer, res.Metrics, true)
			} else {
				printMetrics(endToEnd, res.Metrics, false)
			}
			if !res.Correct {
				fmt.Println("  FAILED:", det.Failures)
				status = 1
			}
		}
	}
	return status
}

// runAA runs the untraced set twice on the same code and reports, per
// workload and end-to-end metric, whether the two runs agree within the
// metric's bound.
func runAA(cfg config) int {
	status := 0
	fmt.Printf("%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "run A", "run B", "rel diff", "bound")
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			var err error
			if runs[i], _, err = child(cfg, w.Name, false); err != nil || !runs[i].Correct {
				fmt.Println("FAILED:", w.Name, err)
				return 1
			}
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			diff := (b - a) / a
			if d.Better == "higher" {
				diff = -diff
			}
			verdict := "agree"
			if diff > d.Bound || -diff > d.Bound {
				verdict, status = "DISAGREE", 1
			}
			fmt.Printf("%-14s %-14s %14.6g %14.6g %+8.2f%% %6.0f%% %s\n", w.Name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	return status
}
