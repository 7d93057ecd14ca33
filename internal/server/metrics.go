package server

import (
	"net/http"
	"net/http/pprof"
	"time"

	"sstar"
	"sstar/internal/obs"
)

// metrics bundles the server's observability surface: a Prometheus-style
// registry over the server counters, per-request phase histograms, and a
// ring-buffer tracer holding the most recent request spans for
// /debug/trace. Created once per server; the scrape-time funcs read the
// live server state so the counters are never double-maintained.
type metrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	panics    *obs.Counter
	queueWait *obs.Histogram
	analyze   *obs.Histogram
	factor    *obs.Histogram
	solve     *obs.Histogram
	request   *obs.Histogram

	// Analyze-phase breakdown, observed once per freshly computed analysis
	// (cache hits contribute nothing — they ran no phase).
	phOrdering *obs.Histogram
	phSymbolic *obs.Histogram
	phDetect   *obs.Histogram
	phChoose   *obs.Histogram
	phBuild    *obs.Histogram
	phPatch    *obs.Histogram
}

func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg, tracer: obs.NewTracer(0)}

	reg.CounterFunc("sstar_server_requests_total",
		"Requests processed, all operations.",
		func() float64 { return float64(s.requests.Load()) })
	reg.CounterFunc("sstar_server_errors_total",
		"Requests answered with an error.",
		func() float64 { return float64(s.errors.Load()) })
	m.panics = reg.Counter("sstar_server_panics_total",
		"Request handlers recovered from a panic (each one failed a single request, never the server).")
	reg.CounterFunc("sstar_server_factorize_total",
		"Factorize requests.",
		func() float64 { return float64(s.factorizes.Load()) })
	reg.CounterFunc("sstar_server_refactorize_total",
		"Refactorize requests.",
		func() float64 { return float64(s.refactorizes.Load()) })
	reg.CounterFunc("sstar_server_solve_total",
		"Solve requests.",
		func() float64 { return float64(s.solves.Load()) })
	reg.CounterFunc("sstar_server_cache_hits_total",
		"Analysis cache hits (factorize requests whose structure was already analyzed).",
		func() float64 { hit, _, _ := s.cache.counters(); return float64(hit) })
	reg.CounterFunc("sstar_server_cache_misses_total",
		"Analysis cache misses.",
		func() float64 { _, miss, _ := s.cache.counters(); return float64(miss) })
	reg.CounterFunc("sstar_server_cache_coalesced_total",
		"Factorize requests merged into a concurrent identical analysis by the singleflight.",
		func() float64 { return float64(s.cache.coalescedCount()) })
	reg.GaugeFunc("sstar_server_cache_entries",
		"Live cached analyses.",
		func() float64 { _, _, n := s.cache.counters(); return float64(n) })
	reg.GaugeFunc("sstar_server_handles",
		"Live factorization handles.",
		func() float64 { n, _, _ := s.reg.stats(); return float64(n) })
	reg.CounterFunc("sstar_server_replicas_installed_total",
		"Replication pushes accepted from peer shards.",
		func() float64 { return float64(s.replicasInstalled.Load()) })
	reg.GaugeFunc("sstar_server_handle_bytes",
		"Estimated bytes held by live handles (bounded by the memory budget).",
		func() float64 { _, b, _ := s.reg.stats(); return float64(b) })
	reg.CounterFunc("sstar_server_handle_evictions_total",
		"Handles evicted by the memory budget (LRU) or idle TTL.",
		func() float64 { _, _, ev := s.reg.stats(); return float64(ev) })
	reg.CounterFunc("sstar_server_sheds_total",
		"Requests refused by admission control: queue wait exceeded the deadline, or shutdown.",
		func() float64 { return float64(s.sheds.Load()) })
	reg.GaugeFunc("sstar_server_queue_depth",
		"Requests waiting for a worker.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("sstar_server_workers",
		"Request-level worker pool size.",
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("sstar_server_factor_workers",
		"Cap on factor-phase goroutines per request (the core-split knob).",
		func() float64 { return float64(s.cfg.FactorWorkers) })

	m.queueWait = reg.Histogram("sstar_server_queue_wait_seconds",
		"Time requests waited for a worker.")
	m.analyze = reg.Histogram("sstar_server_analyze_seconds",
		"Analyze-phase time of factorize requests (near zero on cache hits).")
	m.factor = reg.Histogram("sstar_server_factor_seconds",
		"Numeric factorization time of factorize/refactorize requests.")
	m.solve = reg.Histogram("sstar_server_solve_seconds",
		"Triangular-solve time of solve requests.")
	m.request = reg.Histogram("sstar_server_request_seconds",
		"End-to-end request processing time, queue wait excluded.")

	reg.CounterFunc("sstar_server_analysis_patches_total",
		"Cache misses served by incrementally patching a near-miss cached analysis.",
		func() float64 { return float64(s.patches.Load()) })
	reg.CounterFunc("sstar_server_analysis_patch_fallbacks_total",
		"Near-miss patch candidates that fell back to a full analyze (diff over budget, lost diagonal).",
		func() float64 { return float64(s.patchFallbacks.Load()) })
	m.phOrdering = reg.Histogram("sstar_analyze_ordering_seconds",
		"Ordering stage (max transversal + minimum degree) of freshly computed analyses.")
	m.phSymbolic = reg.Histogram("sstar_analyze_symbolic_seconds",
		"Static symbolic fill computation of freshly computed analyses.")
	m.phDetect = reg.Histogram("sstar_analyze_detect_seconds",
		"Strict supernode detection of freshly computed analyses.")
	m.phChoose = reg.Histogram("sstar_analyze_choose_seconds",
		"Blocking choice (amalgamation sweep + split planning) of freshly computed analyses.")
	m.phBuild = reg.Histogram("sstar_analyze_build_seconds",
		"Per-block partition structure build of freshly computed analyses.")
	m.phPatch = reg.Histogram("sstar_analyze_patch_seconds",
		"Incremental symbolic re-analysis time of patched analyses.")
	return m
}

// observeAnalyze records the phase breakdown of one freshly computed (or
// patched) analysis. Zero phases are skipped: a patched analysis inherited
// its ordering and symbolic stages, a full one ran no patch.
func (m *metrics) observeAnalyze(ph sstar.AnalyzePhases) {
	obsPh := func(h *obs.Histogram, d time.Duration) {
		if d > 0 {
			h.ObserveNs(int64(d))
		}
	}
	obsPh(m.phOrdering, ph.Ordering)
	obsPh(m.phSymbolic, ph.Symbolic)
	obsPh(m.phDetect, ph.Detect)
	obsPh(m.phChoose, ph.Choose)
	obsPh(m.phBuild, ph.Build)
	obsPh(m.phPatch, ph.Patch)
}

// observe records the phase split of one processed request and its span on
// the request timeline (one lane per pool worker).
func (m *metrics) observe(op Op, worker int, queueNs, processNs int64, st RequestStats) {
	m.queueWait.ObserveNs(queueNs)
	m.request.ObserveNs(processNs)
	if st.AnalyzeNs > 0 {
		m.analyze.ObserveNs(st.AnalyzeNs)
	}
	if st.FactorNs > 0 {
		m.factor.ObserveNs(st.FactorNs)
	}
	if st.SolveNs > 0 {
		m.solve.ObserveNs(st.SolveNs)
	}
	end := m.tracer.Since()
	start := end - processNs
	if start < 0 {
		start = 0
	}
	m.tracer.Span(op.String(), "server", worker, start, processNs)
}

// Registry returns the server's metrics registry so outer layers (the
// cluster shard) can register their own gauges next to the server's on the
// same /metrics exposition.
func (s *Server) Registry() *obs.Registry { return s.met.reg }

// AdminHandler returns the HTTP admin surface of the server, mounted by
// sstar-serve's -admin listener:
//
//	/metrics      Prometheus text exposition of the server counters
//	/debug/trace  recent request spans as Chrome trace_event JSON
//	/debug/pprof  the standard Go profiling endpoints
//
// The handler holds no state of its own — it reads the live server — so it
// can be mounted on any mux, wrapped with auth, or served from several
// listeners at once.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.met.tracer.WriteChromeTrace(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
