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

// TestQoschedTakeKeepsTurn: when the collector empties a queue that sits
// before the round-robin pointer, the turn stays with the tenant that held
// it. Tenants a, b and c are queued; pop serves a, the collector takes a's
// queued solve, and b is next, not c.
func TestQoschedTakeKeepsTurn(t *testing.T) {
	q := newQosched()
	mk := func(tenant string, op Op) {
		q.enqueue(&job{req: &Request{Op: op, Handle: 7}, tenant: tenant, done: make(chan *Response, 1)})
	}
	mk("a", OpPing)
	mk("a", OpSolve)
	mk("b", OpPing)
	mk("c", OpPing)
	j, _ := q.pop()
	order := []string{j.tenant}
	if batch := q.takeSolves(nil, 7, batchColumns); len(batch) != 1 || batch[0].tenant != "a" {
		t.Fatalf("the collector took %d jobs, want a's one solve", len(batch))
	}
	for q.depth() > 0 {
		j, _ := q.pop()
		order = append(order, j.tenant)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("dequeue order %s, want [a b c]", got)
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

// TestSolveBatchBitwiseIdentical is the coalescing correctness property,
// driven through run: in any batch of plain solves and SolveMany members up
// to the column budget, each member gets back, bitwise, its columns' lone
// Solves and reports the batch's width. A member that fails the length gate
// is answered alone while its companions succeed, and a SolveMany wider than
// the budget runs as a batch of its own.
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
	const wide = batchColumns + 8
	rhs := testRHS(n, wide)
	ref := make([][]float64, wide)
	for c, b := range rhs {
		if ref[c], err = f.Solve(b); err != nil {
			t.Fatal(err)
		}
	}

	// A layout lists the members of one batch: 0 is a plain solve, k > 0 a
	// SolveMany of k columns, -1 a plain solve one entry short.
	var layouts [][]int
	for w := 1; w <= batchColumns; w++ {
		layouts = append(layouts, make([]int, w))
	}
	layouts = append(layouts,
		[]int{1}, []int{8}, []int{0, 1, 0, 2}, []int{8, 8, 8, 8},
		[]int{3, 0, 8, 0, 5, 1, 0, 4, 6, 2}, // 32 columns
		[]int{0, -1, 3, 0},
		[]int{wide},
	)
	for _, layout := range layouts {
		batch := make([]*job, len(layout))
		first := make([]int, len(layout)) // each member's first column in rhs
		c, valid := 0, 0
		for q, k := range layout {
			first[q] = c % wide
			switch {
			case k < 0:
				batch[q] = solveJob(fr.Handle, rhs[first[q]][:n-1], 0)
			case k == 0:
				batch[q] = solveJob(fr.Handle, rhs[first[q]], 0)
			default:
				b := make([]float64, 0, n*k)
				for i := 0; i < k; i++ {
					b = append(b, rhs[(first[q]+i)%wide]...)
				}
				batch[q] = solveJob(fr.Handle, b, k)
			}
			c += max(k, 1)
			if k >= 0 {
				valid++
			}
		}
		s.run(0, batch)
		for q, j := range batch {
			resp := <-j.done
			if layout[q] < 0 {
				if !strings.Contains(resp.Err, "rhs length") {
					t.Fatalf("layout %v member %d: short rhs answered %q, want a length error", layout, q, resp.Err)
				}
				continue
			}
			if resp.Err != "" {
				t.Fatalf("layout %v member %d: %s", layout, q, resp.Err)
			}
			if resp.Stats.BatchWidth != valid {
				t.Fatalf("layout %v member %d reported BatchWidth %d, want %d", layout, q, resp.Stats.BatchWidth, valid)
			}
			k := max(layout[q], 1)
			if len(resp.X) != n*k {
				t.Fatalf("layout %v member %d: len %d want %d", layout, q, len(resp.X), n*k)
			}
			for i := 0; i < k; i++ {
				want := ref[(first[q]+i)%wide]
				for r, x := range resp.X[i*n : (i+1)*n] {
					if x != want[r] {
						t.Fatalf("layout %v member %d column %d: x[%d] = %x, lone Solve %x — coalescing changed bits",
							layout, q, i, r, x, want[r])
					}
				}
			}
		}
	}
	if n := s.solveBatches.Load(); n == 0 {
		t.Fatal("no batched solve recorded")
	}
}

// TestTakeSolvesColumnBudget: the collector takes queued solves of both ops
// on the lead's handle, FIFO across tenants, while their columns fit the
// room left; everything else stays queued, and a lead wider than the budget
// takes no riders.
func TestTakeSolvesColumnBudget(t *testing.T) {
	q := newQosched()
	mk := func(tenant string, op Op, handle uint64, nrhs int) *job {
		j := &job{req: &Request{Op: op, Handle: handle, NRHS: nrhs}, tenant: tenant, done: make(chan *Response, 1)}
		q.enqueue(j)
		return j
	}
	s1 := mk("a", OpSolve, 7, 0)
	m8 := mk("a", OpSolveMany, 7, 8)
	mk("a", OpSolveMany, 7, 30) // does not fit the room left
	mk("a", OpSolve, 9, 0)      // another handle
	mk("a", OpPing, 7, 0)       // not a solve
	s2 := mk("a", OpSolve, 7, 0)
	m2 := mk("a", OpSolveMany, 7, 2)
	m4 := mk("b", OpSolveMany, 7, 4)

	lead := solveJob(7, nil, 0)
	batch := q.takeSolves([]*job{lead}, 7, batchColumns-1)
	want := []*job{lead, s1, m8, s2, m2, m4}
	if fmt.Sprint(batch) != fmt.Sprint(want) {
		t.Fatalf("took %v, want %v", batch, want)
	}
	if d := q.depth(); d != 3 {
		t.Fatalf("depth %d after the take, want the 3 jobs that did not ride", d)
	}

	wideLead := solveJob(7, nil, batchColumns+1)
	mk("a", OpSolve, 7, 0)
	batch = q.takeSolves([]*job{wideLead}, 7, batchColumns-wideLead.req.columns())
	if len(batch) != 1 || q.depth() != 4 {
		t.Fatalf("a lead wider than the budget took %d riders", len(batch)-1)
	}
}

// TestCoalescingEndToEnd drives coalescing through the real queue: solves
// piling up behind a busy worker ride one batch when the worker frees, each
// answered bitwise identically to solving alone.
func TestCoalescingEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 64})
	a := sstar.GenGrid2D(12, 12, false, sstar.GenOptions{Seed: 7, Convection: 0.2})
	fr := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	h := fr.Handle

	const nrhs = 8
	rhs := testRHS(a.N, nrhs)
	ref := make([][]float64, nrhs)
	for q, b := range rhs {
		resp := s.submit(&Request{Op: OpSolve, Handle: h, B: b})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		ref[q] = resp.X
	}

	// Occupy the only worker, then pile the solves up behind it.
	busy := make(chan *Response, 1)
	go func() {
		busy <- s.submit(&Request{Op: OpFactorize, Matrix: slowMatrix(3), Opts: sstar.DefaultOptions()})
	}()
	waitFactorizing(t, s, 2)
	resps := make([]*Response, nrhs)
	var wg sync.WaitGroup
	for q := 0; q < nrhs; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			resps[q] = s.submit(&Request{Op: OpSolve, Handle: h, B: rhs[q]})
		}(q)
	}
	for i := 0; s.sched.depth() < nrhs; i++ {
		if i > 5000 {
			t.Fatal("solves never queued behind the busy worker")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if r := <-busy; r.Err != "" {
		t.Fatalf("blocker factorize failed: %s", r.Err)
	}

	for q, resp := range resps {
		if resp.Err != "" {
			t.Fatalf("solve %d: %s", q, resp.Err)
		}
		for i := range resp.X {
			if resp.X[i] != ref[q][i] {
				t.Fatalf("solve %d: x[%d] = %x, lone solve %x", q, i, resp.X[i], ref[q][i])
			}
		}
	}
	st := s.Stats()
	if st.SolveBatches == 0 || st.CoalescedSolves < 2 {
		t.Fatalf("queued solves never coalesced: batches=%d coalesced=%d", st.SolveBatches, st.CoalescedSolves)
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
