package server

import (
	"strings"
	"testing"
	"time"

	"sstar"
)

// newTestServer returns a server without listeners; requests go straight
// through submit (the worker pool still runs, so queue stats are real).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRequestLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	a := sstar.GenGrid2D(8, 8, false, sstar.GenOptions{Seed: 5, Convection: 0.2})

	resp := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp.Handle == 0 || resp.N != a.N || resp.Nnz != a.Nnz() {
		t.Fatalf("factorize response %+v", resp)
	}
	if resp.Stats.CacheHit {
		t.Fatal("first factorize reported a cache hit")
	}
	h := resp.Handle

	// Second factorize of the same structure hits the cache.
	resp2 := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if resp2.Err != "" || !resp2.Stats.CacheHit {
		t.Fatalf("second factorize: err=%q hit=%v", resp2.Err, resp2.Stats.CacheHit)
	}

	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	solve := s.submit(&Request{Op: OpSolve, Handle: h, B: b})
	if solve.Err != "" {
		t.Fatal(solve.Err)
	}
	if r := sstar.Residual(a, solve.X, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}

	// Values-only refactorize, then solve reflects the new values.
	vals := append([]float64(nil), a.Val...)
	for i := range vals {
		vals[i] *= 2
	}
	refac := s.submit(&Request{Op: OpRefactorize, Handle: h, Values: vals})
	if refac.Err != "" {
		t.Fatal(refac.Err)
	}
	a2 := a.Clone()
	copy(a2.Val, vals)
	solve2 := s.submit(&Request{Op: OpSolve, Handle: h, B: b})
	if solve2.Err != "" {
		t.Fatal(solve2.Err)
	}
	if r := sstar.Residual(a2, solve2.X, b); r > 1e-9 {
		t.Fatalf("post-refactorize residual %g", r)
	}

	if free := s.submit(&Request{Op: OpFree, Handle: h}); free.Err != "" {
		t.Fatal(free.Err)
	}
	if again := s.submit(&Request{Op: OpFree, Handle: h}); again.Err == "" {
		t.Fatal("double free succeeded")
	}

	st := s.Stats()
	if st.CacheHits < 1 || st.CacheMisses < 1 || st.Requests < 6 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("hit rate %g", st.HitRate())
	}
}

// TestBadInputNeverKillsServer feeds every malformed request shape through
// the pool and requires an in-band error each time — then proves the server
// still serves good requests.
func TestBadInputNeverKillsServer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(6, 6, false, sstar.GenOptions{Seed: 2})
	good := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if good.Err != "" {
		t.Fatal(good.Err)
	}
	h := good.Handle

	// A structurally singular matrix: row 1 is empty.
	sing := &sstar.Matrix{N: 2, M: 2, RowPtr: []int{0, 2, 2}, ColInd: []int{0, 1}, Val: []float64{1, 1}}

	bad := []struct {
		name string
		req  *Request
		want string
	}{
		{"factorize nil matrix", &Request{Op: OpFactorize}, "needs a matrix"},
		{"factorize singular", &Request{Op: OpFactorize, Matrix: sing, Opts: sstar.DefaultOptions()}, "singular"},
		{"solve unknown handle", &Request{Op: OpSolve, Handle: 999, B: make([]float64, 36)}, "unknown handle"},
		{"solve nil rhs", &Request{Op: OpSolve, Handle: h}, "rhs length"},
		{"solve short rhs", &Request{Op: OpSolve, Handle: h, B: make([]float64, 3)}, "rhs length"},
		{"refactorize unknown handle", &Request{Op: OpRefactorize, Handle: 999, Values: nil}, "unknown handle"},
		{"refactorize short values", &Request{Op: OpRefactorize, Handle: h, Values: make([]float64, 3)}, "values length"},
		{"refactorize wrong pattern", &Request{Op: OpRefactorize, Handle: h, Matrix: sstar.GenGrid2D(6, 6, true, sstar.GenOptions{Seed: 2})}, "pattern mismatch"},
		{"unknown op", &Request{Op: Op(99)}, "unknown op"},
	}
	for _, tc := range bad {
		resp := s.submit(tc.req)
		if resp.Err == "" {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(resp.Err, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, resp.Err, tc.want)
		}
	}

	// Still alive and correct.
	if resp := s.submit(&Request{Op: OpPing}); resp.Err != "" {
		t.Fatal("ping after bad inputs failed")
	}
	b := make([]float64, a.N)
	b[0] = 1
	solve := s.submit(&Request{Op: OpSolve, Handle: h, B: b})
	if solve.Err != "" {
		t.Fatal(solve.Err)
	}
	if r := sstar.Residual(a, solve.X, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
	st := s.Stats()
	if st.Errors != int64(len(bad)) {
		t.Fatalf("error counter %d, want %d", st.Errors, len(bad))
	}
}

// panicHooks is a ClusterHooks whose routing gate panics on every factorize:
// the one way left to make a request panic, since outside input is checked
// before use.
type panicHooks struct{ captureHooks }

func (panicHooks) Route(req *Request) *Response {
	if req.Op == OpFactorize {
		panic("test: route hook panics")
	}
	return nil
}

func TestProcessRecoversPanic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Cluster: panicHooks{}})
	// A panic inside a request's execution must become that request's
	// error response, classed internal, and count as a recovered panic.
	a := sstar.GenGrid2D(4, 4, false, sstar.GenOptions{Seed: 2})
	resp := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if resp.Err == "" || resp.Code != CodeInternal {
		t.Fatalf("panicking factorize answered code %s (%q), want internal", resp.Code, resp.Err)
	}
	if n := s.met.panics.Value(); n != 1 {
		t.Fatalf("panic counter %d, want 1", n)
	}
	if resp := s.submit(&Request{Op: OpPing}); resp.Err != "" {
		t.Fatal("server dead after panic recovery")
	}
}

// testRHS builds nrhs deterministic, mutually distinct right-hand sides.
func testRHS(n, nrhs int) [][]float64 {
	out := make([][]float64, nrhs)
	for q := range out {
		b := make([]float64, n)
		for i := range b {
			b[i] = float64((i*7+q*13)%11) - 5 + float64(q)/8
		}
		out[q] = b
	}
	return out
}

// solveJob wraps a solve on handle h as a dequeued job: a plain OpSolve when
// nrhs is 0, an OpSolveMany of nrhs columns otherwise.
func solveJob(h uint64, b []float64, nrhs int) *job {
	req := &Request{Op: OpSolve, Handle: h, B: b}
	if nrhs > 0 {
		req.Op, req.NRHS = OpSolveMany, nrhs
	}
	return &job{req: req, enqueued: time.Now(), done: make(chan *Response, 1)}
}

// TestSolveBatchBitwiseIdentical is the solve path's correctness property,
// driven through run one request at a time: a plain solve and a SolveMany of
// any width up to 40 columns each get back, bitwise, their columns' lone
// Solves and report BatchWidth 1, and a plain solve one entry short is
// answered with the length error.
func TestSolveBatchBitwiseIdentical(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(11, 10, false, sstar.GenOptions{Seed: 42, Convection: 0.3})
	fr := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	f, err := sstar.Factorize(a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := a.N
	const wide = 40
	rhs := testRHS(n, wide)
	ref := make([][]float64, wide)
	for c, b := range rhs {
		if ref[c], err = f.Solve(b); err != nil {
			t.Fatal(err)
		}
	}

	// One request per width: 0 is a plain solve, k > 0 a SolveMany of k
	// columns, -1 a plain solve one entry short.
	widths := []int{0, -1}
	for k := 1; k <= wide; k++ {
		widths = append(widths, k)
	}
	for r, k := range widths {
		first := (7 * r) % wide // the request's first column in rhs
		var j *job
		switch {
		case k < 0:
			j = solveJob(fr.Handle, rhs[first][:n-1], 0)
		case k == 0:
			j = solveJob(fr.Handle, rhs[first], 0)
		default:
			b := make([]float64, 0, n*k)
			for i := 0; i < k; i++ {
				b = append(b, rhs[(first+i)%wide]...)
			}
			j = solveJob(fr.Handle, b, k)
		}
		s.run(0, j)
		resp := <-j.done
		if k < 0 {
			if !strings.Contains(resp.Err, "rhs length") {
				t.Fatalf("width %d: short rhs answered %q, want a length error", k, resp.Err)
			}
			continue
		}
		if resp.Err != "" {
			t.Fatalf("width %d: %s", k, resp.Err)
		}
		if resp.Stats.BatchWidth != 1 {
			t.Fatalf("width %d reported BatchWidth %d, want 1", k, resp.Stats.BatchWidth)
		}
		cols := max(k, 1)
		if len(resp.X) != n*cols {
			t.Fatalf("width %d: len %d want %d", k, len(resp.X), n*cols)
		}
		for i := 0; i < cols; i++ {
			want := ref[(first+i)%wide]
			for row, x := range resp.X[i*n : (i+1)*n] {
				if x != want[row] {
					t.Fatalf("width %d column %d: x[%d] = %x, lone Solve %x", k, i, row, x, want[row])
				}
			}
		}
	}
}
