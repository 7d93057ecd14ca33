package server

// Unit tests for the request-level pieces the cluster builds on: the
// singleflight analysis cache, the SolveMany op, and the replication ops —
// all driven through process, the same path a connection takes.

import (
	"bytes"
	"context"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstar"
)

// TestAnalyzeSingleflight: N concurrent factorizes of one never-seen
// structure perform exactly one symbolic analysis — one miss, everyone else
// either coalesces onto the in-flight computation or hits the freshly
// inserted entry. Without the singleflight a cold popular structure costs
// N analyses.
func TestAnalyzeSingleflight(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	a := sstar.GenGrid2D(12, 12, true, sstar.GenOptions{Seed: 71})

	const n = 16
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = s.process(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
		}(i)
	}
	wg.Wait()

	key := sstar.StructureKey(a, sstar.DefaultOptions())
	for i, r := range resps {
		if r.Err != "" {
			t.Fatalf("factorize %d: %s", i, r.Err)
		}
		if r.Key != key {
			t.Fatalf("factorize %d: key %#x, want %#x", i, r.Key, key)
		}
	}
	st := s.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 analysis for %d concurrent factorizes", st.CacheMisses, n)
	}
	if st.CacheHits+st.Coalesced != n-1 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d", st.CacheHits, st.Coalesced, st.CacheHits+st.Coalesced, n-1)
	}
}

// TestCacheSingleflightCoalesces pins the coalescing itself, which the
// server-level test cannot assert deterministically (goroutine start latency
// can serialize the herd): the leader blocks inside compute while four
// waiters join the flight, and exactly one compute ever runs.
func TestCacheSingleflightCoalesces(t *testing.T) {
	c := newAnalysisCache(8)
	a := sstar.GenGrid2D(6, 6, false, sstar.GenOptions{Seed: 75})
	opts := sstar.DefaultOptions()
	opts.Observer = nil
	key := sstar.StructureKey(a, opts)

	entered := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the leader: first in, blocks mid-compute
		defer wg.Done()
		an, hit, computed, err := c.getOrCompute(key, a, opts, func() (*sstar.Analysis, error) {
			close(entered)
			<-release
			computes.Add(1)
			return sstar.Analyze(a, opts)
		})
		if err != nil || an == nil || hit || !computed {
			t.Errorf("leader: an=%v hit=%v computed=%v err=%v", an != nil, hit, computed, err)
		}
	}()
	<-entered
	const waiters = 4
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an, hit, computed, err := c.getOrCompute(key, a, opts, func() (*sstar.Analysis, error) {
				computes.Add(1)
				return sstar.Analyze(a, opts)
			})
			if err != nil || an == nil || !hit || computed {
				t.Errorf("waiter: an=%v hit=%v computed=%v err=%v", an != nil, hit, computed, err)
			}
		}()
	}
	// Waiters count themselves into coalesced before blocking on the flight.
	deadline := time.Now().Add(10 * time.Second)
	for c.coalescedCount() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters joined the flight", c.coalescedCount(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if got := c.coalescedCount(); got != waiters {
		t.Errorf("coalesced = %d, want %d", got, waiters)
	}
}

// TestSolveManyOp: the blocked multi-RHS op answers bit-identically to a
// local SolveMany and validates its inputs in-band.
func TestSolveManyOp(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	a := sstar.GenGrid2D(9, 10, false, sstar.GenOptions{Seed: 72, Convection: 0.4})
	f, err := sstar.Factorize(a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fr := s.process(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}

	const nrhs = 5
	b := make([]float64, a.N*nrhs)
	for k := range b {
		b[k] = math.Sin(float64(k)*0.9 + 3)
	}
	want, err := f.SolveMany(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	r := s.process(&Request{Op: OpSolveMany, Handle: fr.Handle, B: b, NRHS: nrhs})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	if len(r.X) != len(want) {
		t.Fatalf("X length %d, want %d", len(r.X), len(want))
	}
	for i := range want {
		if math.Float64bits(r.X[i]) != math.Float64bits(want[i]) {
			t.Fatalf("X[%d] differs bitwise from local SolveMany", i)
		}
	}

	for _, bad := range []*Request{
		{Op: OpSolveMany, Handle: fr.Handle, B: b, NRHS: 0},
		{Op: OpSolveMany, Handle: fr.Handle, B: b[:len(b)-1], NRHS: nrhs},
		{Op: OpSolveMany, Handle: fr.Handle + 999, B: b, NRHS: nrhs},
	} {
		if r := s.process(bad); r.Err == "" {
			t.Errorf("invalid SolveMany (nrhs=%d, len=%d, handle=%d) accepted", bad.NRHS, len(bad.B), bad.Handle)
		}
	}
}

// TestReplicateInstallsUnderSameHandle: an OpReplicate push installs the
// factors under the pushed handle id, solves bit-identically, and supports
// the values-only refactorize fast path — the full failover contract of a
// promoted replica.
func TestReplicateInstallsUnderSameHandle(t *testing.T) {
	owner := New(Config{Workers: 2})
	defer owner.Close()
	replica := New(Config{Workers: 2})
	defer replica.Close()
	a := sstar.GenGrid2D(8, 9, true, sstar.GenOptions{Seed: 73})
	f, err := sstar.Factorize(a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for k := range b {
		b[k] = math.Cos(float64(k) + 2)
	}
	xref, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}

	fr := owner.process(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	// Serialize the owner's factors the way the Stored hook does.
	var events []StoredEvent
	owner2 := New(Config{Workers: 2, Cluster: captureHooks{stored: func(ev StoredEvent) { events = append(events, ev) }}})
	defer owner2.Close()
	fr2 := owner2.process(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr2.Err != "" {
		t.Fatal(fr2.Err)
	}
	if len(events) != 1 {
		t.Fatalf("Stored hook fired %d times, want 1", len(events))
	}
	ev := events[0]

	rr := replica.process(&Request{
		Op:     OpReplicate,
		Handle: ev.Handle,
		Key:    ev.Key,
		Matrix: &sstar.Matrix{N: ev.N, M: ev.N, RowPtr: ev.RowPtr, ColInd: ev.ColInd},
		Blob:   ev.Blob,
	})
	if rr.Err != "" {
		t.Fatalf("replicate: %s", rr.Err)
	}
	if !replica.HasHandle(ev.Handle) {
		t.Fatal("replica does not hold the pushed handle id")
	}
	if got := replica.Stats().ReplicaHandles; got != 1 {
		t.Errorf("ReplicaHandles = %d, want 1", got)
	}
	sr := replica.process(&Request{Op: OpSolve, Handle: ev.Handle, B: b})
	if sr.Err != "" {
		t.Fatal(sr.Err)
	}
	for i := range xref {
		if math.Float64bits(sr.X[i]) != math.Float64bits(xref[i]) {
			t.Fatalf("replica solve X[%d] differs bitwise from the owner's factors", i)
		}
	}
	// Values-only refactorize on the replica: the pattern rode along.
	if r := replica.process(&Request{Op: OpRefactorize, Handle: ev.Handle, Values: a.Val}); r.Err != "" {
		t.Fatalf("refactorize on replica: %s", r.Err)
	}
	// Garbage blob: typed in-band error, never a panic.
	if r := replica.process(&Request{Op: OpReplicate, Handle: 999, Key: 1, Matrix: a, Blob: []byte("junk")}); r.Err == "" {
		t.Error("garbage replicate blob accepted")
	}
}

// TestReplicateAnalysisWarmsCache: an OpReplicateAnalysis push makes the
// next factorize of that structure a cache hit. The pushed analysis carries
// the owner's *normalized* options (HostWorkers = FactorWorkers, no
// Observer) — exactly what a shard's Analyzed hook replicates — because the
// cache's exact-options check compares against the receiver's normalized
// options; a heterogeneous FactorWorkers config across the fleet degrades
// the push to a harmless cache miss.
func TestReplicateAnalysisWarmsCache(t *testing.T) {
	a := sstar.GenGrid2D(10, 8, false, sstar.GenOptions{Seed: 74})
	opts := sstar.DefaultOptions()
	opts.HostWorkers = 3 // matches FactorWorkers below
	opts.Observer = nil
	an, err := sstar.Analyze(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := an.Save(&buf); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Workers: 2, FactorWorkers: 3})
	defer s.Close()
	if r := s.process(&Request{Op: OpReplicateAnalysis, Key: an.Key(), Blob: buf.Bytes()}); r.Err != "" {
		t.Fatalf("replicate analysis: %s", r.Err)
	}
	fr := s.process(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Errorf("cache hits/misses = %d/%d, want 1/0: replicated analysis did not warm the cache", st.CacheHits, st.CacheMisses)
	}
	// Garbage analysis blob: in-band error.
	if r := s.process(&Request{Op: OpReplicateAnalysis, Key: 7, Blob: []byte("junk")}); r.Err == "" {
		t.Error("garbage analysis blob accepted")
	}
}

// TestSingularRefactorizeIsAtomic: a refactorize with numerically singular
// values is refused with CodeSingular and changes nothing — the handle solves
// bitwise as before, its values-epoch is not bumped (a replica holding the
// old epoch is still current) and no replication push is made.
func TestSingularRefactorizeIsAtomic(t *testing.T) {
	var events []StoredEvent
	s := New(Config{Workers: 2, Cluster: captureHooks{stored: func(ev StoredEvent) { events = append(events, ev) }}})
	defer s.Close()
	a := sstar.GenGrid2D(9, 8, false, sstar.GenOptions{Seed: 75, Convection: 0.3})
	fr := s.process(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	b := make([]float64, a.N)
	for k := range b {
		b[k] = math.Sin(float64(k) + 1)
	}
	before := s.process(&Request{Op: OpSolve, Handle: fr.Handle, B: b})
	if before.Err != "" {
		t.Fatal(before.Err)
	}
	epochOf := func() uint64 {
		for _, e := range s.Manifest() {
			if e.Handle == fr.Handle {
				return e.ValEpoch
			}
		}
		t.Fatal("handle missing from the manifest")
		return 0
	}
	epoch, pushes := epochOf(), len(events)

	// All-zero values on the stored pattern: the first pivot search fails.
	for _, req := range []*Request{
		{Op: OpRefactorize, Handle: fr.Handle, Values: make([]float64, len(a.Val))},
		{Op: OpRefactorize, Handle: fr.Handle, Matrix: &sstar.Matrix{N: a.N, M: a.M, RowPtr: a.RowPtr, ColInd: a.ColInd, Val: make([]float64, len(a.Val))}},
	} {
		r := s.process(req)
		if r.Err == "" || r.Code != CodeSingular {
			t.Fatalf("singular refactorize: err %q code %d, want CodeSingular", r.Err, r.Code)
		}
		if got := epochOf(); got != epoch {
			t.Fatalf("values-epoch went %d -> %d on a failed refactorize", epoch, got)
		}
		if len(events) != pushes {
			t.Fatalf("failed refactorize made %d replication pushes", len(events)-pushes)
		}
		after := s.process(&Request{Op: OpSolve, Handle: fr.Handle, B: b})
		if after.Err != "" {
			t.Fatal(after.Err)
		}
		for i := range before.X {
			if math.Float64bits(after.X[i]) != math.Float64bits(before.X[i]) {
				t.Fatalf("X[%d] changed after a failed refactorize", i)
			}
		}
	}

	// A good refactorize still goes through: epoch +1, one push.
	if r := s.process(&Request{Op: OpRefactorize, Handle: fr.Handle, Values: a.Val}); r.Err != "" {
		t.Fatal(r.Err)
	}
	if got := epochOf(); got != epoch+1 || len(events) != pushes+1 {
		t.Fatalf("good refactorize: epoch %d -> %d, %d pushes; want +1 and 1", epoch, got, len(events)-pushes)
	}
}

// captureHooks is a minimal ClusterHooks that records Stored events.
type captureHooks struct {
	stored func(StoredEvent)
}

func (c captureHooks) Route(*Request) *Response          { return nil }
func (c captureHooks) Placement(uint64) (string, string) { return "", "" }
func (c captureHooks) Analyzed(uint64, *sstar.Analysis)  {}
func (c captureHooks) Stored(ev StoredEvent)             { c.stored(ev) }
func (c captureHooks) Freed(uint64, uint64)              {}
func (c captureHooks) AugmentStats(*ServerStats)         {}

// slowRouteHooks answers every request in Route after a pause, the way a
// shard answers membership, manifest and redirects inside its cluster hook.
type slowRouteHooks struct {
	captureHooks
	pause time.Duration
}

func (h slowRouteHooks) Route(*Request) *Response {
	time.Sleep(h.pause)
	return &Response{Err: "routed elsewhere", Code: CodeRedirect}
}

// TestRoutedAnswerKeepsProcessTime: an answer the cluster hook gives is
// observed with the time spent giving it, for a solve and for any other op,
// so /metrics and the request timeline still show shard-side routing cost.
func TestRoutedAnswerKeepsProcessTime(t *testing.T) {
	const pause = 3 * time.Millisecond
	s := New(Config{Workers: 1, Cluster: slowRouteHooks{pause: pause}})
	defer s.Close()
	for _, req := range []*Request{{Op: OpSolve, Handle: 1, B: []float64{1}}, {Op: OpMembership}} {
		sum := s.met.request.Sum()
		if r := s.process(req); r.Code != CodeRedirect {
			t.Fatalf("%s: code %v (%q), want the hook's redirect", req.Op, r.Code, r.Err)
		}
		if got := s.met.request.Sum() - sum; got < pause.Seconds() {
			t.Errorf("%s: observed process time %.6fs, want >= %v", req.Op, got, pause)
		}
	}
}

// TestSolveReplyCarriesValuesEpoch: a solve reply, read off the wire from a
// served shard, carries the values-epoch of the factors that produced X —
// after a Refactorize on the owner, and on a replica after it installs the
// owner's push. A router that splits a SolveMany over two holders gathers the
// halves only when both report the same epoch; this pins what it reads.
func TestSolveReplyCarriesValuesEpoch(t *testing.T) {
	var mu sync.Mutex // the hook runs on a worker; the test reads over TCP
	var events []StoredEvent
	owner := newTestServer(t, Config{Workers: 2, Cluster: captureHooks{stored: func(ev StoredEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}})
	replica := newTestServer(t, Config{Workers: 2})
	addrs := make([]string, 2)
	for i, s := range []*Server{owner, replica} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(l)
		addrs[i] = l.Addr().String()
	}
	p := &Pool{}
	t.Cleanup(p.Close)
	call := func(addr string, req *Request) *Response {
		t.Helper()
		resp, _, err := p.Exchange(context.Background(), addr, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Err != "" {
			t.Fatalf("%s: %s", req.Op, resp.Err)
		}
		return resp
	}
	a := sstar.GenGrid2D(9, 9, false, sstar.GenOptions{Seed: 77, Convection: 0.3})
	b := testRHS(a.N, 2)
	panel := append(append([]float64(nil), b[0]...), b[1]...)
	solves := func(addr string, h uint64) []*Response {
		return []*Response{
			call(addr, &Request{Op: OpSolve, Handle: h, B: b[0]}),
			call(addr, &Request{Op: OpSolveMany, Handle: h, B: panel, NRHS: 2}),
		}
	}
	wantEpoch := func(where string, resps []*Response, want uint64) {
		t.Helper()
		for _, r := range resps {
			if r.ValEpoch != want {
				t.Fatalf("%s: solve reply values-epoch %d, want %d", where, r.ValEpoch, want)
			}
		}
	}

	h := call(addrs[0], &Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()}).Handle
	wantEpoch("after factorize", solves(addrs[0], h), 1)
	vals := append([]float64(nil), a.Val...)
	for k := range vals {
		vals[k] *= 1.5
	}
	call(addrs[0], &Request{Op: OpRefactorize, Handle: h, Values: vals})
	onOwner := solves(addrs[0], h)
	wantEpoch("after refactorize", onOwner, 2)

	mu.Lock()
	pushes := append([]StoredEvent(nil), events...)
	mu.Unlock()
	if len(pushes) != 2 || pushes[1].ValEpoch != 2 {
		t.Fatalf("owner made %d replication pushes, want 2 ending at values-epoch 2", len(pushes))
	}
	call(addrs[1], pushes[1].ReplicateRequest())
	onReplica := solves(addrs[1], h)
	wantEpoch("on the replica after the install", onReplica, 2)
	for i := range onOwner {
		for k, x := range onReplica[i].X {
			if math.Float64bits(x) != math.Float64bits(onOwner[i].X[k]) {
				t.Fatalf("replica solve %d: X[%d] differs bitwise from the owner's", i, k)
			}
		}
	}
}
