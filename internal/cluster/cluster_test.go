package cluster

// In-process fleet tests: real shards behind real TCP listeners, a real
// router, real clients — everything short of separate processes. The bar
// throughout is the cluster's core promise: placement is deterministic,
// redirects are transparent to clients, and a failover solve is
// bit-identical to the owner's because the replica holds the same factors
// (never a refactorization).

import (
	"context"
	"math"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/server"
)

// testFleet is n shards plus a router, all on loopback listeners.
type testFleet struct {
	peers   []string
	servers []*server.Server
	shards  []*Shard
	router  *Router
	raddr   string
}

func startFleet(t *testing.T, n int, opts ...func(*ShardConfig)) *testFleet {
	t.Helper()
	f := &testFleet{}
	ls := make([]net.Listener, n)
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		f.peers = append(f.peers, l.Addr().String())
	}
	for i := range ls {
		cfg := ShardConfig{Self: f.peers[i], Peers: f.peers}
		for _, o := range opts {
			o(&cfg)
		}
		sh, err := NewShard(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := server.New(server.Config{Workers: 2, FactorWorkers: 2, Cluster: sh})
		sh.Bind(s)
		go s.Serve(ls[i])
		f.shards = append(f.shards, sh)
		f.servers = append(f.servers, s)
	}
	r, err := NewRouter(RouterConfig{Shards: f.peers})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(rl)
	f.router, f.raddr = r, rl.Addr().String()
	t.Cleanup(func() {
		r.Close()
		for _, s := range f.servers {
			s.Close() // idempotent: tests may have killed one already
		}
		for _, sh := range f.shards {
			sh.Close()
		}
	})
	return f
}

// totals sums factorize/refactorize counters across the servers still
// answering — the "was anything refactorized?" probe.
func (f *testFleet) totals() (factorizes, refactorizes int64) {
	for _, s := range f.servers {
		st := s.Stats()
		factorizes += st.Factorizes
		refactorizes += st.Refactorizes
	}
	return
}

// replicaHolder returns the index of the server holding handle id as a
// replica (installed by a peer's push), -1 if none does yet.
func (f *testFleet) replicaHolder(id uint64, skip int) int {
	for i, s := range f.servers {
		if i == skip {
			continue
		}
		if s.HasHandle(id) && s.Stats().ReplicaHandles > 0 {
			return i
		}
	}
	return -1
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testSystem builds one grid system with its locally computed, bit-exact
// ground truth.
type testSystem struct {
	a    *sstar.Matrix
	b    []float64
	xref []float64
	f    *sstar.Factorization
}

func buildSystem(t *testing.T, seed int) *testSystem {
	t.Helper()
	a := sstar.GenGrid2D(9+seed%3, 10+seed%4, seed%2 == 1, sstar.GenOptions{Seed: int64(40 + seed), Convection: 0.3})
	f, err := sstar.Factorize(a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for k := range b {
		b[k] = math.Sin(float64(2*k+seed) + 1)
	}
	xref, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	return &testSystem{a: a, b: b, xref: xref, f: f}
}

func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ownerIndex returns the fleet index of the shard owning key.
func (f *testFleet) ownerIndex(key uint64) int {
	owner := f.shards[0].ring.Owner(key)
	for i, p := range f.peers {
		if p == owner {
			return i
		}
	}
	return -1
}

// TestClientFollowsRedirect: a client pointed at a shard that does NOT hold
// a structure gets a typed redirect and follows it transparently — the
// factorize lands on the owner, solves work, and Metrics records the hop.
func TestClientFollowsRedirect(t *testing.T) {
	fleet := startFleet(t, 3)
	sys := buildSystem(t, 1)
	key := sstar.StructureKey(sys.a, sstar.DefaultOptions())

	// With 3 shards and 2 replicas exactly one shard refuses this key.
	reps := fleet.shards[0].ring.Replicas(key, 2)
	inReps := func(addr string) bool { return addr == reps[0] || addr == reps[1] }
	wrong := -1
	for i, p := range fleet.peers {
		if !inReps(p) {
			wrong = i
		}
	}
	if wrong < 0 {
		t.Fatal("no non-replica shard found")
	}

	c, err := client.Dial("tcp", fleet.peers[wrong])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatalf("factorize via non-owner shard: %v", err)
	}
	if got := c.Metrics().Redirects; got < 1 {
		t.Errorf("Metrics().Redirects = %d, want >= 1", got)
	}
	if h.Key() != key {
		t.Errorf("handle key %#x, want %#x", h.Key(), key)
	}
	// The wrong shard must not have executed it; the owner must hold it.
	if fleet.servers[wrong].HasHandle(h.ID()) {
		t.Error("non-owner shard executed a redirected factorize")
	}
	x, _, err := h.Solve(context.Background(), sys.b)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(x, sys.xref) {
		t.Error("redirected solve differs from local reference")
	}
	if err := h.Free(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverNoRefactorize: factorize through the router, wait for the
// factors to replicate, kill the owner — the next solve must come back
// bit-identical from the replica with zero new factorizations anywhere.
func TestFailoverNoRefactorize(t *testing.T) {
	fleet := startFleet(t, 3)
	sys := buildSystem(t, 2)

	c, err := client.Dial("tcp", fleet.raddr, client.WithRetry(client.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	owner := fleet.ownerIndex(h.Key())
	waitFor(t, "factor replication", func() bool { return fleet.replicaHolder(h.ID(), owner) >= 0 })

	// Warm solve while the owner is alive, then the baseline counters.
	x, _, err := h.Solve(context.Background(), sys.b)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(x, sys.xref) {
		t.Fatal("pre-failover solve differs from local reference")
	}
	facBefore, refacBefore := fleet.totals()

	fleet.servers[owner].Close()

	x, _, err = h.Solve(context.Background(), sys.b)
	if err != nil {
		t.Fatalf("solve after owner death: %v", err)
	}
	if !bitIdentical(x, sys.xref) {
		t.Error("failover solve differs from local reference — replica factors are not the owner's")
	}
	facAfter, refacAfter := fleet.totals()
	if facAfter != facBefore || refacAfter != refacBefore {
		t.Errorf("failover triggered new factorizations: factorizes %d->%d, refactorizes %d->%d",
			facBefore, facAfter, refacBefore, refacAfter)
	}
	if st := fleet.router.Stats(); st.Failovers < 1 {
		t.Errorf("router failovers = %d, want >= 1", st.Failovers)
	}
}

// TestScatterSolveMany: a wide multi-RHS panel through the router is split
// across the two replica holders and gathered — and the gathered panel is
// bitwise equal to a single-node SolveMany of the whole panel.
func TestScatterSolveMany(t *testing.T) {
	fleet := startFleet(t, 3)
	sys := buildSystem(t, 3)
	const nrhs = 8
	b := make([]float64, sys.a.N*nrhs)
	for k := range b {
		b[k] = math.Cos(float64(k)*0.7 + 2)
	}
	want, err := sys.f.SolveMany(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial("tcp", fleet.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	owner := fleet.ownerIndex(h.Key())
	waitFor(t, "factor replication", func() bool { return fleet.replicaHolder(h.ID(), owner) >= 0 })

	x, _, err := h.SolveMany(context.Background(), b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(x, want) {
		t.Error("scattered SolveMany differs bitwise from single-node SolveMany")
	}
	if st := fleet.router.Stats(); st.Scatters < 1 {
		t.Errorf("router scatters = %d, want >= 1 (panel was not scattered)", st.Scatters)
	}

	// A narrow panel must not scatter but still answer identically.
	narrow, err := sys.f.SolveMany(b[:sys.a.N*2], 2)
	if err != nil {
		t.Fatal(err)
	}
	x2, _, err := h.SolveMany(context.Background(), b[:sys.a.N*2], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(x2, narrow) {
		t.Error("narrow SolveMany differs from single-node result")
	}
}

// TestScatterSolveManyOddSplit: five right-hand sides scatter as 2 + 3, and
// every gathered column is still bitwise a local Solve of that column.
func TestScatterSolveManyOddSplit(t *testing.T) {
	fleet := startFleet(t, 3)
	sys := buildSystem(t, 3)
	const nrhs = 5
	n := sys.a.N
	b := make([]float64, n*nrhs)
	for k := range b {
		b[k] = math.Sin(float64(k)*0.3 - 1)
	}

	c, err := client.Dial("tcp", fleet.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	owner := fleet.ownerIndex(h.Key())
	waitFor(t, "factor replication", func() bool { return fleet.replicaHolder(h.ID(), owner) >= 0 })

	x, _, err := h.SolveMany(context.Background(), b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	if st := fleet.router.Stats(); st.Scatters < 1 {
		t.Fatalf("router scatters = %d, want >= 1 (panel was not scattered)", st.Scatters)
	}
	for j := 0; j < nrhs; j++ {
		want, err := sys.f.Solve(b[j*n : (j+1)*n])
		if err != nil {
			t.Fatal(err)
		}
		if !bitIdentical(x[j*n:(j+1)*n], want) {
			t.Errorf("column %d of the scattered SolveMany differs bitwise from a local Solve", j)
		}
	}
}

// TestScatterGathersOneEpoch: the halves of a scattered SolveMany are
// gathered only when both shards solved against the same values-epoch. Two
// fake shards answer every solve with their own marker value and epoch; when
// the epochs differ (a replica lagging a refactorize) the whole panel must
// come from the shard holding the newer factors, never half from each.
func TestScatterGathersOneEpoch(t *testing.T) {
	var epochs [2]atomic.Uint64
	addrs := make([]string, 2)
	for i := range addrs {
		marker := float64(i + 1)
		ep := server.NewEndpoint(0, func(req *server.Request) *server.Response {
			if req.Op != server.OpSolveMany {
				return &server.Response{Err: "fake shard: solves only"}
			}
			x := make([]float64, len(req.B))
			for k := range x {
				x[k] = marker
			}
			return &server.Response{Handle: req.Handle, X: x, ValEpoch: epochs[i].Load()}
		}, nil)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go ep.Serve(l)
		t.Cleanup(func() { ep.Close() })
		addrs[i] = l.Addr().String()
	}
	r, err := NewRouter(RouterConfig{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	const key, n, nrhs = 0x5eed, 3, 4
	candidates := r.candidatesFor(key)
	index := map[string]int{addrs[0]: 0, addrs[1]: 1}
	solve := func() *server.Response {
		resp := r.handle(&server.Request{Op: server.OpSolveMany, Handle: 9, Key: key, B: make([]float64, n*nrhs), NRHS: nrhs})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		if len(resp.X) != n*nrhs {
			t.Fatalf("gathered %d entries, want %d", len(resp.X), n*nrhs)
		}
		return resp
	}

	for newer := range candidates {
		epochs[index[candidates[newer]]].Store(3)
		epochs[index[candidates[1-newer]]].Store(2)
		resp := solve()
		want := float64(index[candidates[newer]] + 1)
		for k, x := range resp.X {
			if x != want {
				t.Fatalf("newer factors on candidate %d: X[%d] came from shard %v, want every column from shard %v (epoch 3)", newer, k, x, want)
			}
		}
		if resp.ValEpoch != 3 {
			t.Fatalf("reply values-epoch %d, want 3", resp.ValEpoch)
		}
	}
	if got := r.Stats().Scatters; got != 0 {
		t.Fatalf("scatters = %d after mixed-epoch halves, want 0", got)
	}

	// Equal epochs: the halves gather, one from each holder.
	epochs[0].Store(3)
	epochs[1].Store(3)
	resp := solve()
	if first, last := resp.X[0], resp.X[n*nrhs-1]; first != float64(index[candidates[0]]+1) || last != float64(index[candidates[1]]+1) {
		t.Fatalf("same-epoch halves not gathered: X[0] from shard %v, X[last] from shard %v", first, last)
	}
	if got := r.Stats().Scatters; got != 1 {
		t.Fatalf("scatters = %d after same-epoch halves, want 1", got)
	}
}

// TestAnalysisReplicationWarmsCache: after a factorize on the owner, the
// successor has the symbolic analysis in cache — a failover factorize there
// is a cache hit, not a cold analyze.
func TestAnalysisReplicationWarmsCache(t *testing.T) {
	fleet := startFleet(t, 2) // 2 shards, 2 replicas: both hold every key
	sys := buildSystem(t, 4)
	key := sstar.StructureKey(sys.a, sstar.DefaultOptions())
	owner := fleet.ownerIndex(key)
	succ := 1 - owner

	c, err := client.Dial("tcp", fleet.peers[owner])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "analysis replication", func() bool {
		return fleet.servers[succ].Stats().CacheEntries >= 1
	})

	hitsBefore := fleet.servers[succ].Stats().CacheHits
	c2, err := client.Dial("tcp", fleet.peers[succ])
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	h2, _, err := c2.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hits := fleet.servers[succ].Stats().CacheHits; hits != hitsBefore+1 {
		t.Errorf("successor cache hits %d -> %d, want a hit from the replicated analysis", hitsBefore, hits)
	}
	x, _, err := h2.Solve(context.Background(), sys.b)
	if err != nil {
		t.Fatal(err)
	}
	if !bitIdentical(x, sys.xref) {
		t.Error("solve from replicated-analysis factorize differs from local reference")
	}
}

// TestRouterAggregateStats: OpStats through the router sums the fleet and
// reports how many shards answered.
func TestRouterAggregateStats(t *testing.T) {
	fleet := startFleet(t, 3)
	sys := buildSystem(t, 5)
	c, err := client.Dial("tcp", fleet.raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Solve(context.Background(), sys.b); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 3 {
		t.Errorf("aggregate Shards = %d, want 3", st.Shards)
	}
	if st.Factorizes < 1 || st.Solves < 1 {
		t.Errorf("aggregate counters missing work: factorizes=%d solves=%d", st.Factorizes, st.Solves)
	}
	fleet.servers[2].Close()
	st, err = c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 {
		t.Errorf("aggregate Shards after one death = %d, want 2", st.Shards)
	}
}

// TestLivePushCarriesValuesEpoch: the replication push a refactorize triggers
// carries the factors' values-epoch like a repair push does, so the replica
// tracks the owner without the anti-entropy sweep having to re-push every
// refactorized handle — and the receiver's stale-push guard works on the
// live path: a delayed older push cannot roll the replica back.
func TestLivePushCarriesValuesEpoch(t *testing.T) {
	// Both shards hold every key; no periodic sweep, so whatever the replica
	// ends up with came from live pushes alone.
	fleet := startFleet(t, 2, func(c *ShardConfig) { c.RepairInterval = -1 })
	sys := buildSystem(t, 6)
	owner := fleet.ownerIndex(sstar.StructureKey(sys.a, sstar.DefaultOptions()))
	succ := 1 - owner

	c, err := client.Dial("tcp", fleet.peers[owner])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	h, _, err := c.Factorize(ctx, sys.a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals := append([]float64(nil), sys.a.Val...)
	for i := 0; i < 3; i++ {
		for k := range vals {
			vals[k] *= 1.5
		}
		if _, err := h.Refactorize(ctx, vals); err != nil {
			t.Fatal(err)
		}
	}
	drained := func() bool { return fleet.servers[owner].Stats().ReplicationPending == 0 }
	waitFor(t, "replication queue to drain", drained)

	epochOn := func(i int) uint64 {
		for _, e := range fleet.servers[i].Manifest() {
			if e.Handle == h.ID() {
				return e.ValEpoch
			}
		}
		return 0
	}
	if o, r := epochOn(owner), epochOn(succ); o != 4 || r != 4 {
		t.Fatalf("values-epoch owner %d, replica %d after factorize + 3 refactorizes; want 4 and 4", o, r)
	}
	if v := PlacementViolations(fleet.shards); len(v) != 0 {
		t.Fatalf("placement violations with the queue drained: %v", v)
	}
	// A sweep now finds nothing to repair.
	fleet.shards[owner].sweep(true)
	if n := fleet.servers[owner].Stats().RepairPushes; n != 0 {
		t.Errorf("sweep re-pushed %d handles the live pushes had already brought up to date", n)
	}

	// A push older than what the replica holds is acknowledged and ignored.
	ev, ok := fleet.servers[owner].ExportHandle(h.ID())
	if !ok {
		t.Fatal("owner cannot export its own handle")
	}
	ev.ValEpoch = 2
	fleet.shards[owner].Stored(ev)
	waitFor(t, "stale push to be answered", drained)
	if n := fleet.servers[succ].Stats().StaleReplicas; n != 1 {
		t.Errorf("replica refused %d stale pushes, want 1", n)
	}
	if r := epochOn(succ); r != 4 {
		t.Errorf("replica values-epoch %d after a stale push, want 4 (rolled back)", r)
	}
}
