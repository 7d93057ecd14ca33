package server

import (
	"encoding/json"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sstar"
)

// TestAdminMetricsGoldenFormat drives a small workload through the server
// and checks the /metrics output line by line against the Prometheus text
// exposition format: HELP/TYPE pairs, the full histogram sample family, and
// counter values that match the work actually performed.
func TestAdminMetricsGoldenFormat(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	a := sstar.GenGrid2D(7, 7, false, sstar.GenOptions{Seed: 11, Convection: 0.1})
	resp := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	b := make([]float64, a.N)
	b[0] = 1
	if r := s.submit(&Request{Op: OpSolve, Handle: resp.Handle, B: b}); r.Err != "" {
		t.Fatal(r.Err)
	}
	if r := s.submit(&Request{Op: OpSolve, Handle: 999, B: b}); r.Err == "" {
		t.Fatal("bad solve accepted")
	}

	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body := rec.Body.String()

	// Exact-value samples: the workload above fixes these.
	for _, want := range []string{
		"sstar_server_requests_total 3\n",
		"sstar_server_errors_total 1\n",
		"sstar_server_panics_total 0\n",
		"sstar_server_factorize_total 1\n",
		"sstar_server_solve_total 2\n",
		"sstar_server_cache_misses_total 1\n",
		"sstar_server_handles 1\n",
		"sstar_server_workers 2\n",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing sample %q in:\n%s", want, body)
		}
	}

	// Every metric family must carry its HELP and TYPE header.
	for name, typ := range map[string]string{
		"sstar_server_requests_total":     "counter",
		"sstar_server_panics_total":       "counter",
		"sstar_server_queue_depth":        "gauge",
		"sstar_server_factor_workers":     "gauge",
		"sstar_server_request_seconds":    "histogram",
		"sstar_server_queue_wait_seconds": "histogram",
		"sstar_server_solve_seconds":      "histogram",
		"sstar_server_factor_seconds":     "histogram",
		"sstar_server_analyze_seconds":    "histogram",
		"sstar_server_cache_hits_total":   "counter",
		"sstar_server_cache_misses_total": "counter",
	} {
		if !strings.Contains(body, "# HELP "+name+" ") {
			t.Fatalf("/metrics missing HELP for %s", name)
		}
		if !strings.Contains(body, "# TYPE "+name+" "+typ+"\n") {
			t.Fatalf("/metrics missing TYPE %s for %s", typ, name)
		}
	}

	// Histogram shape: cumulative buckets ending in +Inf, _sum, _count, and
	// _count equal to the +Inf bucket. The solve histogram saw exactly one
	// observation (the failed solve never reached the solver).
	lines := strings.Split(body, "\n")
	bucketRe := regexp.MustCompile(`^sstar_server_solve_seconds_bucket\{le="([^"]+)"\} (\d+)$`)
	var bucketCount, infValue int
	prev := int64(-1)
	for _, ln := range lines {
		m := bucketRe.FindStringSubmatch(ln)
		if m == nil {
			continue
		}
		bucketCount++
		v, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket value in %q", ln)
		}
		if v < prev {
			t.Fatalf("buckets not cumulative at %q", ln)
		}
		prev = v
		if m[1] == "+Inf" {
			infValue = int(v)
		}
	}
	if bucketCount == 0 {
		t.Fatal("no solve histogram buckets rendered")
	}
	if infValue != 1 {
		t.Fatalf("solve histogram +Inf bucket %d, want 1", infValue)
	}
	if !strings.Contains(body, "sstar_server_solve_seconds_count 1\n") {
		t.Fatal("solve histogram _count != 1 or missing")
	}
	if !strings.Contains(body, "sstar_server_solve_seconds_sum ") {
		t.Fatal("solve histogram missing _sum")
	}

	// Every non-comment line must be "name[{labels}] value".
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+\-]+$`)
	for _, ln := range lines {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		if !sampleRe.MatchString(ln) {
			t.Fatalf("malformed exposition line %q", ln)
		}
	}
}

// TestAdminDebugTrace: request spans land on the tracer and /debug/trace
// renders them as valid Chrome trace JSON with server-category spans.
func TestAdminDebugTrace(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(6, 6, false, sstar.GenOptions{Seed: 12})
	resp := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	b := make([]float64, a.N)
	b[0] = 1
	if r := s.submit(&Request{Op: OpSolve, Handle: resp.Handle, B: b}); r.Err != "" {
		t.Fatal(r.Err)
	}

	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace status %d", rec.Code)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "server" {
			if ev.Ph != "X" {
				t.Fatalf("span %q has ph=%q", ev.Name, ev.Ph)
			}
			names[ev.Name] = true
		}
	}
	if !names["factorize"] || !names["solve"] {
		t.Fatalf("trace lacks factorize/solve spans: %v", names)
	}
}

// TestAdminPprofIndex: the pprof index must answer (the profiling surface is
// part of the admin contract).
func TestAdminPprofIndex(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/ status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index lacks profile listing")
	}
}
