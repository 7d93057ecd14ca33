package server

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sstar"
	"sstar/internal/wire"
)

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

// TestQoschedEqualShareOrder: with every queue backlogged, tenants take one
// dequeue per turn in round-robin order, so a deep backlog gets no more
// turns than a shallow one.
func TestQoschedEqualShareOrder(t *testing.T) {
	q := newQosched()
	mk := func(tenant string) *job {
		return &job{req: &Request{Op: OpPing}, tenant: tenant, done: make(chan *Response, 1)}
	}
	for i := 0; i < 6; i++ {
		q.enqueue(mk("heavy"))
	}
	for i := 0; i < 2; i++ {
		q.enqueue(mk("light"))
	}
	var order []string
	for i := 0; i < 8; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("pop reported stopped")
		}
		order = append(order, j.tenant)
	}
	want := []string{"heavy", "light", "heavy", "light", "heavy", "heavy", "heavy", "heavy"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dequeue order %v, want %v", order, want)
	}
	if d := q.depth(); d != 0 {
		t.Fatalf("depth %d after draining", d)
	}
}

// TestQoschedPopClearsSlot: pop clears the slot it dequeues from, so the
// queue's backing array does not keep a dequeued job — its request, matrix
// and right-hand sides — reachable until the queue next reallocates.
func TestQoschedPopClearsSlot(t *testing.T) {
	q := newQosched()
	for i := 0; i < 3; i++ {
		q.enqueue(&job{req: &Request{Op: OpPing}, tenant: "a", done: make(chan *Response, 1)})
	}
	tq := q.queues["a"]
	for i := 0; i < 3; i++ {
		before := tq.jobs
		if _, ok := q.pop(); !ok {
			t.Fatal("pop reported stopped")
		}
		if before[0] != nil {
			t.Fatalf("pop %d left the dequeued job in its queue's backing array", i)
		}
	}
}

// solveJob wraps a solve on handle h as a dequeued job: a plain OpSolve when
// nrhs is 0, an OpSolveMany of nrhs columns otherwise.
func solveJob(h uint64, b []float64, nrhs int) *job {
	req := &Request{Op: OpSolve, Handle: h, B: b}
	if nrhs > 0 {
		req.Op, req.NRHS = OpSolveMany, nrhs
	}
	return &job{req: req, tenant: DefaultTenant, enqueued: time.Now(), done: make(chan *Response, 1)}
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

// TestTenantFairShareUnderStorm: one tenant flooding the queue with
// factorizes cannot starve another tenant's solve — round-robin
// serves the quiet tenant on its next turn, ahead of the storm's backlog.
func TestTenantFairShareUnderStorm(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 64})
	a := sstar.GenGrid2D(10, 10, false, sstar.GenOptions{Seed: 9, Convection: 0.2})
	fr := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions(), Tenant: "quiet"})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	b := testRHS(a.N, 1)[0]
	ref := s.submit(&Request{Op: OpSolve, Handle: fr.Handle, B: b, Tenant: "quiet"})
	if ref.Err != "" {
		t.Fatal(ref.Err)
	}

	// The storm: occupy the worker, then queue 10 more factorizes of
	// distinct structures (no cache hits, real work each).
	const stormN = 10
	var wg sync.WaitGroup
	stormResps := make([]*Response, stormN)
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.submit(&Request{Op: OpFactorize, Matrix: slowMatrix(11), Opts: sstar.DefaultOptions(), Tenant: "storm"})
	}()
	waitFactorizing(t, s, 2)
	for i := 0; i < stormN; i++ {
		wg.Add(1)
		go func(i int, m *sstar.Matrix) {
			defer wg.Done()
			stormResps[i] = s.submit(&Request{Op: OpFactorize, Matrix: m, Opts: sstar.DefaultOptions(), Tenant: "storm"})
		}(i, sstar.GenGrid2D(16, 17+i, false, sstar.GenOptions{Seed: int64(i), Convection: 0.1}))
	}
	for i := 0; s.sched.depth() < stormN; i++ {
		if i > 5000 {
			t.Fatal("storm never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The quiet tenant's solve arrives with 10 storm factorizes already
	// queued ahead of it in submission order. Fair share: it runs on the
	// quiet queue's next round-robin turn, behind at most one more storm
	// job — not behind the whole backlog. The assertion uses the
	// server-measured queue waits (QueueNs, clocked at dequeue), which are
	// immune to goroutine wake-up latency: served fairly, the solve waits
	// less than almost every storm job; served FIFO, it would wait longer
	// than all of them.
	resp := s.submit(&Request{Op: OpSolve, Handle: fr.Handle, B: b, Tenant: "quiet"})
	if resp.Err != "" {
		t.Fatalf("quiet solve under storm: %s", resp.Err)
	}
	for i := range resp.X {
		if resp.X[i] != ref.X[i] {
			t.Fatalf("quiet solve changed under storm: x[%d] = %x want %x", i, resp.X[i], ref.X[i])
		}
	}
	wg.Wait()
	longerWaits := 0
	for i, r := range stormResps {
		if r == nil || r.Err != "" {
			t.Fatalf("storm factorize %d failed: %+v", i, r)
		}
		if r.Stats.QueueNs > resp.Stats.QueueNs {
			longerWaits++
		}
	}
	if longerWaits < stormN*2/3 {
		t.Fatalf("quiet solve queued %v, longer than %d of %d storm jobs — starved past its fair share",
			time.Duration(resp.Stats.QueueNs), stormN-longerWaits, stormN)
	}

	st := s.Stats()
	qs, ss := st.Tenants["quiet"], st.Tenants["storm"]
	if qs.Requests < 3 || ss.Requests != stormN+1 {
		t.Fatalf("tenant request counters: quiet=%d storm=%d (want >=3, %d)", qs.Requests, ss.Requests, stormN+1)
	}
}

// legacyRequest mirrors the wire Request as a peer that predates the Tenant
// field encoded it. Gob matches struct fields by name, so a stream encoded
// from this type must decode into today's Request with Tenant left zero.
type legacyRequest struct {
	Op     Op
	Handle uint64
	B      []float64
}

// TestOldPeerRequestDefaultTenant: a fieldless (pre-Tenant) request decodes
// cleanly and is admitted under the default tenant.
func TestOldPeerRequestDefaultTenant(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(8, 8, false, sstar.GenOptions{Seed: 2, Convection: 0.2})
	fr := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	b := testRHS(a.N, 1)[0]

	for _, legacy := range []*legacyRequest{
		{Op: OpPing},
		{Op: OpSolve, Handle: fr.Handle, B: b},
	} {
		var buf bytes.Buffer
		if err := wire.WriteGob(&buf, FrameRequest, legacy); err != nil {
			t.Fatal(err)
		}
		req := new(Request)
		if err := wire.ReadGob(&buf, FrameRequest, 1<<20, req); err != nil {
			t.Fatalf("old-peer request failed to decode: %v", err)
		}
		if req.Tenant != "" {
			t.Fatalf("fieldless request decoded Tenant %q", req.Tenant)
		}
		if got := tenantOf(req); got != DefaultTenant {
			t.Fatalf("tenantOf(fieldless) = %q, want %q", got, DefaultTenant)
		}
		if resp := s.submit(req); resp.Err != "" {
			t.Fatalf("old-peer %s refused: %s", req.Op, resp.Err)
		}
	}
	if n := s.Stats().Tenants[DefaultTenant].Requests; n < 2 {
		t.Fatalf("default-tenant requests %d, want >= 2", n)
	}
}
