package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef declares one metric of BENCHMARK.json. The tables below are the
// source the benchmark emits from; bench_test.go pins BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is emitted by every workload with tracing off. The driver's
// contract wants every end-to-end metric on every workload, so each is
// defined in terms every workload has: a headline op (see workloadDef.Op) and
// a solve. Metrics that exist on one workload only (cold-start latency on the
// cluster, GFLOP/s, modelled MFLOPS) are per-layer metrics instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"solve_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

var mappings = []string{"1d-ca", "1d-rapid", "2d", "2d-sync"}

// perLayer is emitted by every workload's traced run. A layer a workload
// does not exercise reports 0: that is the measurement ("this layer does no
// work here"), and it is what lets a later PR see work move between layers.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// The op classes of the paper's time-to-solution claim as their caller
	// sees them, through the facade on library workloads and through the
	// client on service workloads: structure never seen to x, near-miss of an
	// analyzed structure to x, new values to x, new right-hand side(s) to x.
	add("lower", "ms", "op.cold_p50_ms", "op.cold_p90_ms", "op.patch_p50_ms", "op.refactor_p50_ms", "op.refactor_p90_ms",
		"op.refactor_par_p50_ms", "op.solve_p50_ms", "op.solve_p90_ms", "op.solvemany_p50_ms", "op.factorize_p50_ms")
	add("lower", "ms", "sparse.permute_ms", "sparse.ata_ms")
	add("lower", "count", "sparse.nnz")
	add("lower", "ms", "ordering.transversal_ms", "ordering.mindeg_ms")
	add("lower", "ms", "symbolic.factorize_ms", "symbolic.patch_ms")
	add("lower", "count", "symbolic.static_fill")
	add("higher", "ratio", "symbolic.patch_speedup")
	add("lower", "ms", "supernode.partition_ms", "supernode.detect_ms", "supernode.choose_ms", "supernode.build_ms")
	add("lower", "count", "supernode.blocks")
	add("higher", "count", "supernode.max_block", "supernode.flop_weighted_width")
	add("lower", "ms", "taskgraph.build_ms")
	add("lower", "count", "taskgraph.tasks")
	add("lower", "ratio", "taskgraph.critical_path_frac")
	add("lower", "ms", "sched.ca_ms", "sched.rapid_ms")
	add("lower", "count", "xblas.gemm_flops", "xblas.scatter_flops", "xblas.trsm_flops", "xblas.bytes")
	add("higher", "flop/B", "xblas.flops_per_byte")
	add("higher", "GFLOP/s", "xblas.gemm_gflops_16", "xblas.gemm_gflops_32", "xblas.gemm_gflops_64",
		"xblas.gemm_gflops_128", "xblas.scatter_gflops_32", "xblas.trsm_gflops_32")
	add("higher", "count", "xblas.tile_mc", "xblas.tile_nc")
	add("lower", "ms", "core.factor_seq_ms", "core.factor_host_ms")
	add("higher", "ratio", "core.hostpar_speedup")
	add("lower", "ms", "core.solve_ms", "core.solve_exact_w8_ms", "core.solve_many_w8_ms")
	add("lower", "count", "core.factor_flops")
	add("higher", "GFLOP/s", "core.factor_gflops")
	add("higher", "ratio", "core.blas3_frac", "core.gemm_share", "core.rate_over_gemm_peak")
	add("lower", "count", "core.interchanges")
	add("lower", "ratio", "core.growth_factor")
	for _, m := range mappings {
		add("lower", "s", "machine.model_time_s."+m, "machine.solve_model_time_s."+m)
		add("lower", "count", "machine.sent_msgs."+m, "machine.sent_bytes."+m)
		add("higher", "ratio", "machine.load_balance."+m, "machine.util_mean."+m)
		add("lower", "ms", "machine.wall_ms."+m)
	}
	add("higher", "ratio", "machine.async_gain")
	add("higher", "MFLOPS", "machine.model_mflops")
	add("lower", "us", "wire.encode_solve_us", "wire.decode_solve_us", "wire.encode_factorize_us", "wire.frame_crc_us_per_kb")
	add("lower", "B", "wire.bytes_per_solve")
	add("lower", "count", "wire.allocs_per_solve")
	add("lower", "ms", "client.solve_p99_ms")
	add("lower", "count", "client.dials", "client.retries", "client.redials", "client.redirects", "client.sheds")
	add("higher", "count", "client.reused")
	add("lower", "us", "server.queue_us", "server.solve_us", "server.unaccounted_us")
	add("lower", "ms", "server.analyze_ms", "server.factor_ms")
	add("higher", "count", "server.batch_width_mean")
	add("higher", "ratio", "server.cache_hit_rate", "server.patch_rate")
	add("lower", "count", "server.sheds")
	add("lower", "us", "cluster.router_hop_us")
	add("lower", "ns", "cluster.ring_owner_ns")
	add("lower", "count", "cluster.replications", "cluster.replication_pending_max", "cluster.scatters",
		"cluster.failovers", "cluster.redirects")
	add("lower", "ratio", "bench.trace_overhead_frac", "bench.unattributed_frac")
	return out
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds the values of one run, pre-filled from a declaration table
// so that every declared name is always emitted and an undeclared one is a
// bug caught at once.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.Name] = metricValue{Unit: d.Unit}
	}
	return ms
}

func (ms metricSet) set(name string, v float64) {
	mv, ok := ms[name]
	if !ok {
		panic("benchmark: metric " + name + " is not declared")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	mv.Value = v
	ms[name] = mv
}

// has reports whether name is declared in this set.
func (ms metricSet) has(name string) bool { _, ok := ms[name]; return ok }

// recorder collects the latency samples and the verification verdicts of one
// goroutine of a run. Samples are keyed by op class ("refactor", "solve",
// ...) and, inside a class, by kind: the matrix or mapping the op ran on.
// Percentiles are taken per kind and combined (see classStats) because a
// plain percentile over a mix of three matrices is multi-modal and flips
// between runs.
type recorder struct {
	samples map[string]map[string][]float64 // class -> kind -> seconds
	// rates holds the ops per second of every completed block: a run of ops
	// of fixed composition (a round over the matrices, a deck of the mix).
	rates    []float64
	ops      int      // ops attempted
	failed   int      // ops that errored or failed verification
	failures []string // first few failure messages
}

func newRecorder() *recorder {
	return &recorder{samples: map[string]map[string][]float64{}}
}

func (r *recorder) add(class, kind string, d time.Duration) {
	k := r.samples[class]
	if k == nil {
		k = map[string][]float64{}
		r.samples[class] = k
	}
	k[kind] = append(k[kind], d.Seconds())
}

// block records that ops ops of one block took d.
func (r *recorder) block(ops int, d time.Duration) {
	r.rates = append(r.rates, float64(ops)/d.Seconds())
}

// throughput is the median rate over the recorder's blocks: an interference
// burst slows the blocks it hits and leaves the median alone, where ops/window
// takes the full hit. A run too short to finish a block falls back to that.
func (r *recorder) throughput(window time.Duration) float64 {
	if len(r.rates) == 0 {
		return float64(r.ops) / window.Seconds()
	}
	return median(r.rates)
}

// fail counts one failed op.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// merge adds o's samples and verdicts to r. Block rates stay with their
// recorder: clients run side by side, so their rates add up, they do not pool.
func (r *recorder) merge(o *recorder) {
	for class, kinds := range o.samples {
		for kind, xs := range kinds {
			if r.samples[class] == nil {
				r.samples[class] = map[string][]float64{}
			}
			r.samples[class][kind] = append(r.samples[class][kind], xs...)
		}
	}
	r.ops += o.ops
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
}

// quantile returns the nearest-rank q-quantile of sorted xs (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// classStat summarises one op class.
type classStat struct {
	P50, P90, P99 float64 // seconds
	N             int     // samples pooled over kinds
	Beyond90      int     // samples beyond the p90 — ten are needed to trust it
}

// classStats combines the kinds of one class. P50 is the geometric mean over
// kinds of the per-kind median. The tail is taken on the pooled samples after
// dividing each by its kind's median, so a class of three matrices with 40
// samples each has 120 samples behind its p90 and not 40: P90 = P50 x the
// p90 of (sample / median of its kind).
func classStats(kinds map[string][]float64) classStat {
	var meds, ratios []float64
	for _, xs := range kinds {
		m := median(xs)
		if m <= 0 {
			continue
		}
		meds = append(meds, m)
		for _, x := range xs {
			ratios = append(ratios, x/m)
		}
	}
	sort.Float64s(ratios)
	st := classStat{P50: geomean(meds), N: len(ratios)}
	st.P90 = st.P50 * quantile(ratios, 0.90)
	st.P99 = st.P50 * quantile(ratios, 0.99)
	st.Beyond90 = len(ratios) - int(math.Ceil(0.90*float64(len(ratios))))
	return st
}

func ms(sec float64) float64 { return sec * 1e3 }
func us(sec float64) float64 { return sec * 1e6 }
