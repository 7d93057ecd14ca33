package server

import (
	"errors"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sstar"
)

// slowMatrix is big enough that its factorization visibly occupies a worker.
func slowMatrix(seed int64) *sstar.Matrix {
	return sstar.GenGrid2D(64, 64, false, sstar.GenOptions{Seed: seed, Convection: 0.1})
}

func smallMatrix(seed int64) *sstar.Matrix {
	return sstar.GenGrid2D(8, 8, false, sstar.GenOptions{Seed: seed, Convection: 0.1})
}

// waitFactorizing blocks until at least n factorize requests have been picked
// up by workers (the factorizes counter increments on entry to doFactorize,
// so it is a "worker is busy now" signal, not a completion count).
func waitFactorizing(t *testing.T, s *Server, n int64) {
	t.Helper()
	for i := 0; s.factorizes.Load() < n; i++ {
		if i > 5000 {
			t.Fatalf("worker never started factorize %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionShedsExpiredDeadline: with a single busy worker, a queued
// request whose deadline passes while it waits is shed with CodeOverloaded —
// never executed — and the shed counter records it.
func TestAdmissionShedsExpiredDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})

	// Occupy the only worker with a factorize that takes real time.
	busy := make(chan *Response, 1)
	go func() {
		busy <- s.submit(&Request{Op: OpFactorize, Matrix: slowMatrix(1), Opts: sstar.DefaultOptions()})
	}()
	waitFactorizing(t, s, 1)

	// A deadline far smaller than the busy factorize: whether it expires in
	// the enqueue select or while queued, the request must never execute.
	resp := s.submit(&Request{Op: OpPing, TimeoutNs: int64(time.Millisecond)})
	if resp.Code != CodeOverloaded {
		t.Fatalf("expired-deadline request answered code %s (%q), want overloaded", resp.Code, resp.Err)
	}
	if err := resp.Error(); !errors.Is(err, sstar.ErrOverloaded) {
		t.Fatalf("errors.Is(ErrOverloaded) false for %v", err)
	}
	if b := <-busy; b.Err != "" {
		t.Fatalf("busy factorize failed: %s", b.Err)
	}
	if st := s.Stats(); st.Sheds == 0 {
		t.Fatalf("sheds counter %d, want > 0", st.Sheds)
	}

	// A request with no deadline still waits out the queue and succeeds.
	if resp := s.submit(&Request{Op: OpPing}); resp.Err != "" {
		t.Fatalf("deadline-free ping failed: %s", resp.Err)
	}
}

// TestAdmissionShedsOnFullQueue: when the queue itself cannot accept the
// request before its deadline, the request is refused at the door.
func TestAdmissionShedsOnFullQueue(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	var wg sync.WaitGroup
	// One job on the worker plus one in the queue fills the service.
	for i := int64(0); i < 2; i++ {
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			s.submit(&Request{Op: OpFactorize, Matrix: slowMatrix(10 + i), Opts: sstar.DefaultOptions()})
		}(i)
	}
	waitFactorizing(t, s, 1)
	for i := 0; len(s.queue) == 0; i++ {
		if i > 5000 {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp := s.submit(&Request{Op: OpPing, TimeoutNs: int64(2 * time.Millisecond)})
	if resp.Code != CodeOverloaded {
		t.Fatalf("full-queue request answered code %s (%q), want overloaded", resp.Code, resp.Err)
	}
	wg.Wait()
}

// TestHandleEvictionByMemBudget: a small budget keeps only the most recently
// used handles; evicted ones fail typed as evicted, and solves on survivors
// keep working.
func TestHandleEvictionByMemBudget(t *testing.T) {
	// One 8x8-grid handle is roughly 10-20 KiB of factors; a 64 KiB budget
	// holds a few of them, not ten.
	s := newTestServer(t, Config{Workers: 1, MemBudget: 64 << 10})
	var handles []uint64
	for i := int64(0); i < 10; i++ {
		m := sstar.GenGrid2D(8, 8+int(i), false, sstar.GenOptions{Seed: i})
		resp := s.submit(&Request{Op: OpFactorize, Matrix: m, Opts: sstar.DefaultOptions()})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		handles = append(handles, resp.Handle)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions with budget %d and %d handles (bytes %d)", s.cfg.MemBudget, len(handles), st.HandleBytes)
	}
	if st.HandleBytes > s.cfg.MemBudget {
		t.Fatalf("handle bytes %d exceed budget %d", st.HandleBytes, s.cfg.MemBudget)
	}
	// The oldest handle is evicted and says so.
	resp := s.submit(&Request{Op: OpSolve, Handle: handles[0], B: make([]float64, 64)})
	if resp.Code != CodeEvicted {
		t.Fatalf("evicted handle answered code %s (%q), want evicted", resp.Code, resp.Err)
	}
	if !errors.Is(resp.Error(), sstar.ErrHandleEvicted) {
		t.Fatalf("errors.Is(ErrHandleEvicted) false for %v", resp.Error())
	}
	// The newest survives and solves.
	resp = s.submit(&Request{Op: OpSolve, Handle: handles[9], B: make([]float64, 8*17)})
	if resp.Err != "" {
		t.Fatalf("most-recent handle evicted too: %s", resp.Err)
	}
	// A never-issued handle is distinguishable from an evicted one.
	resp = s.submit(&Request{Op: OpSolve, Handle: 99999, B: make([]float64, 64)})
	if resp.Code != CodeBadHandle {
		t.Fatalf("unknown handle answered code %s, want bad-handle", resp.Code)
	}
	if !errors.Is(resp.Error(), sstar.ErrBadHandle) {
		t.Fatalf("errors.Is(ErrBadHandle) false for %v", resp.Error())
	}
}

// TestHandleEvictionByTTL: an idle handle is swept after its TTL while a
// periodically touched one survives.
func TestHandleEvictionByTTL(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, HandleTTL: 80 * time.Millisecond})
	m := smallMatrix(1)
	idle := s.submit(&Request{Op: OpFactorize, Matrix: m, Opts: sstar.DefaultOptions()})
	kept := s.submit(&Request{Op: OpFactorize, Matrix: smallMatrix(2), Opts: sstar.DefaultOptions()})
	if idle.Err != "" || kept.Err != "" {
		t.Fatal(idle.Err, kept.Err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Handles > 1 {
		// Touching one handle every sweep period keeps it alive; the other is
		// never referenced again, so only the sweeper can remove it. (Probing
		// the idle handle would itself reset its idle clock.)
		if r := s.submit(&Request{Op: OpSolve, Handle: kept.Handle, B: make([]float64, m.N)}); r.Err != "" {
			t.Fatalf("touched handle evicted: %s", r.Err)
		}
		if time.Now().After(deadline) {
			t.Fatal("idle handle never evicted by TTL")
		}
		time.Sleep(20 * time.Millisecond)
	}
	r := s.submit(&Request{Op: OpSolve, Handle: idle.Handle, B: make([]float64, m.N)})
	if r.Code != CodeEvicted {
		t.Fatalf("idle handle answered code %s (%q), want evicted", r.Code, r.Err)
	}
	if r = s.submit(&Request{Op: OpSolve, Handle: kept.Handle, B: make([]float64, m.N)}); r.Err != "" {
		t.Fatalf("touched handle evicted: %s", r.Err)
	}
}

// TestGracefulCloseDrains: requests admitted before Close get their real
// responses; requests arriving after Close has begun are refused in-band
// with CodeOverloaded.
func TestGracefulCloseDrains(t *testing.T) {
	s := New(Config{Workers: 1})
	inflight := make(chan *Response, 1)
	go func() {
		inflight <- s.submit(&Request{Op: OpFactorize, Matrix: slowMatrix(5), Opts: sstar.DefaultOptions()})
	}()
	waitFactorizing(t, s, 1)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	resp := <-inflight
	if resp.Err != "" {
		t.Fatalf("in-flight factorize not drained: %s (%s)", resp.Err, resp.Code)
	}
	if resp.Handle == 0 {
		t.Fatal("drained factorize returned no handle")
	}
	<-closed
	// Post-close submissions are refused, typed, and do not hang.
	post := s.submit(&Request{Op: OpPing})
	if post.Code != CodeOverloaded {
		t.Fatalf("post-close request answered code %s (%q), want overloaded", post.Code, post.Err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRacesSubmitters: with one worker and a queue two deep, many
// submitters — with and without deadlines — race Close. Every submit
// returns, answered or shed with CodeOverloaded; none hangs and none sends on
// a closed channel.
func TestCloseRacesSubmitters(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2})
	const n = 24
	resps := make(chan *Response, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		req := &Request{Op: OpPing}
		if i%3 == 0 {
			req = &Request{Op: OpFactorize, Matrix: smallMatrix(int64(i)), Opts: sstar.DefaultOptions()}
		}
		if i%2 == 0 {
			req.TimeoutNs = int64(time.Duration(1+i%4) * time.Millisecond)
		}
		go func() {
			<-start
			resps <- s.submit(req)
		}()
	}
	close(start)
	time.Sleep(200 * time.Microsecond) // let some submitters reach the queue first
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	timeout := time.After(30 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case r := <-resps:
			if r.Err != "" && r.Code != CodeOverloaded {
				t.Fatalf("submit answered code %s (%q), want success or overloaded", r.Code, r.Err)
			}
		case <-timeout:
			t.Fatalf("%d of %d submits never returned", n-i, n)
		}
	}
	select {
	case <-closed:
	case <-timeout:
		t.Fatal("Close never returned")
	}
	if d := len(s.queue); d != 0 {
		t.Fatalf("%d jobs left queued after Close", d)
	}
}

// TestSingularTypedThroughProcess: a numerically singular matrix fails the
// factorize with CodeSingular, leaks no handle, and the panic counter stays
// untouched (singularity is an error path, not a recovered crash).
func TestSingularTypedThroughProcess(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	sing := &sstar.Matrix{
		N: 2, M: 2,
		RowPtr: []int{0, 2, 4},
		ColInd: []int{0, 1, 0, 1},
		Val:    []float64{1, 1, 1, 1}, // rank 1: the second pivot is exactly zero
	}
	resp := s.submit(&Request{Op: OpFactorize, Matrix: sing, Opts: sstar.DefaultOptions()})
	if resp.Err == "" {
		t.Fatal("singular matrix factorized")
	}
	if resp.Code != CodeSingular {
		t.Fatalf("singular factorize answered code %s (%q), want singular", resp.Code, resp.Err)
	}
	if !errors.Is(resp.Error(), sstar.ErrSingular) {
		t.Fatalf("errors.Is(ErrSingular) false for %v", resp.Error())
	}
	st := s.Stats()
	if st.Handles != 0 {
		t.Fatalf("%d handles leaked by failed factorize", st.Handles)
	}
	if st.Errors != 1 {
		t.Fatalf("error counter %d, want 1", st.Errors)
	}
	if s.panics.Load() != 0 {
		t.Fatal("singularity counted as a panic")
	}
}

// TestNonFiniteTypedThroughProcess: a matrix holding a NaN or an infinity is
// refused as singular input, on factorize and on both forms of refactorize,
// never as an internal error, and a refused refactorize leaves the handle
// solving as before.
func TestNonFiniteTypedThroughProcess(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(7, 6, false, sstar.GenOptions{Seed: 3, Convection: 0.2})
	fr := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	b := make([]float64, a.N)
	for k := range b {
		b[k] = float64(k%5) - 2
	}
	before := s.submit(&Request{Op: OpSolve, Handle: fr.Handle, B: b})
	if before.Err != "" {
		t.Fatal(before.Err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := a.Clone()
		bad.Val[len(bad.Val)/3] = v
		for _, req := range []*Request{
			{Op: OpFactorize, Matrix: bad, Opts: sstar.DefaultOptions()},
			{Op: OpRefactorize, Handle: fr.Handle, Values: bad.Val},
			{Op: OpRefactorize, Handle: fr.Handle, Matrix: bad},
		} {
			r := s.submit(req)
			if r.Code != CodeSingular || !errors.Is(r.Error(), sstar.ErrSingular) {
				t.Fatalf("%s with a %v value answered code %s (%q), want singular", req.Op, v, r.Code, r.Err)
			}
		}
		after := s.submit(&Request{Op: OpSolve, Handle: fr.Handle, B: b})
		if after.Err != "" || !slices.Equal(after.X, before.X) {
			t.Fatalf("solve after refused refactorizes with a %v value: err %q, x changed %v", v, after.Err, !slices.Equal(after.X, before.X))
		}
	}
	if s.panics.Load() != 0 {
		t.Fatal("a non-finite value counted as a panic")
	}
}

// TestMalformedMatrixIsBadInput: a factorize of malformed CSR storage and a
// full-matrix refactorize one value short are outside input. Each gets an
// ordinary error response, not an internal one, no recovered panic is
// counted, and a well-formed matrix still factorizes under its usual
// structure key.
func TestMalformedMatrixIsBadInput(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(6, 6, false, sstar.GenOptions{Seed: 2})
	good := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if good.Err != "" {
		t.Fatal(good.Err)
	}
	if want := sstar.StructureKey(a, sstar.DefaultOptions()); good.Key != want {
		t.Fatalf("structure key %#x, want %#x", good.Key, want)
	}
	bad := func(edit func(m *sstar.Matrix)) *sstar.Matrix {
		m := a.Clone()
		edit(m)
		return m
	}
	reqs := map[string]*Request{
		"rowptr short":                 {Op: OpFactorize, Opts: sstar.DefaultOptions(), Matrix: bad(func(m *sstar.Matrix) { m.RowPtr = m.RowPtr[:m.N] })},
		"rowptr past end":              {Op: OpFactorize, Opts: sstar.DefaultOptions(), Matrix: bad(func(m *sstar.Matrix) { m.RowPtr[m.N-1] = m.RowPtr[m.N] + 2 })},
		"column too large":             {Op: OpFactorize, Opts: sstar.DefaultOptions(), Matrix: bad(func(m *sstar.Matrix) { m.ColInd[3] = m.M })},
		"val short":                    {Op: OpFactorize, Opts: sstar.DefaultOptions(), Matrix: bad(func(m *sstar.Matrix) { m.Val = m.Val[:len(m.Val)-1] })},
		"refactorize matrix val short": {Op: OpRefactorize, Handle: good.Handle, Matrix: bad(func(m *sstar.Matrix) { m.Val = m.Val[:len(m.Val)-1] })},
	}
	for name, req := range reqs {
		resp := s.submit(req)
		if resp.Err == "" {
			t.Fatalf("%s: accepted", name)
		}
		if resp.Code == CodeInternal || errors.Is(resp.Error(), sstar.ErrInternal) {
			t.Fatalf("%s: answered as an internal error: %q", name, resp.Err)
		}
	}
	if n := s.panics.Load(); n != 0 {
		t.Fatalf("malformed input counted %d recovered panics", n)
	}
	again := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if again.Err != "" || again.Key != good.Key {
		t.Fatalf("well-formed factorize after bad input: err %q, key %#x want %#x", again.Err, again.Key, good.Key)
	}
}

// TestShedAndEvictionCountersExposed: the new resilience counters are part
// of the /metrics contract.
func TestShedAndEvictionCountersExposed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	rec := httptest.NewRecorder()
	s.AdminHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		"sstar_server_sheds_total",
		"sstar_server_handle_evictions_total",
		"sstar_server_handle_bytes",
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Fatalf("/metrics missing %s:\n%s", name, body)
		}
	}
}
