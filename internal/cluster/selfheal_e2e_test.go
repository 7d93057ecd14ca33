package cluster

// The self-healing chaos end-to-end: three shards whose advertised addresses
// are fault-injecting proxies, a concurrent solve workload, and the full
// kill → detect → repair → rejoin → re-converge cycle under
// injected latency, fragmented writes, bit flips, and resets. The acceptance
// bar, from the cluster's self-healing promise:
//
//   - zero failed solves across the whole cycle (failover + retries absorb
//     the owner's death);
//   - every answer bit-identical to a local reference factorization
//     (the ring, not a stored role, names the new owner; healing moves
//     factors, it never refactorizes);
//   - after the kill, the survivors converge to every key at min(R, live)
//     copies; after the rejoin, back to R=2 across all three — both asserted
//     with the manifest-diff predicate (PlacementViolations empty);
//   - the epoch advanced, each key the dead owner held is held by its new
//     ring owner, and a free routed there reaches the successor.

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/chaos"
	"sstar/internal/server"
)

// healNode bundles one shard's listener plumbing so the test can kill it and
// boot a replacement on the same addresses.
type healNode struct {
	// upstreamAddr holds the hidden real listener address as a string. It is
	// rewritten when a killed node reboots and read concurrently by the
	// proxy's dial closure, hence the atomic.
	upstreamAddr atomic.Value
	proxyAddr    string // advertised address (through the fault proxy)
	proxy        *chaos.Proxy
	srv          *server.Server
	sh           *Shard
	freed        sync.Map // handle ids the node's server freed, seen through the Freed hook
}

// recordFrees is a shard's cluster hooks with every successful free noted
// before the shard sees it.
type recordFrees struct {
	*Shard
	freed *sync.Map
}

func (h recordFrees) Freed(handle, key uint64) {
	h.freed.Store(handle, true)
	h.Shard.Freed(handle, key)
}

func (n *healNode) upstream() string {
	s, _ := n.upstreamAddr.Load().(string)
	return s
}

// bootHealNode boots n's shard and server on the listener ul, which the
// node's proxy reaches through n.upstream.
func bootHealNode(t *testing.T, n *healNode, ul net.Listener, peers []string, join string) {
	t.Helper()
	n.upstreamAddr.Store(ul.Addr().String())
	sh, err := NewShard(ShardConfig{
		Self:              n.proxyAddr,
		Peers:             peers,
		Join:              join,
		HeartbeatInterval: testHeartbeat,
		RepairInterval:    testRepair,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 2, FactorWorkers: 2, Cluster: recordFrees{sh, &n.freed}})
	sh.Bind(s)
	go s.Serve(ul)
	n.srv, n.sh = s, sh
}

func TestSelfHealKillRejoinE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("self-heal chaos e2e takes seconds")
	}
	const shards = 3
	systems := make([]*testSystem, 4)
	for i := range systems {
		systems[i] = buildSystem(t, 30+i)
	}

	nodes := make([]*healNode, shards)
	peers := make([]string, shards)
	uls := make([]net.Listener, shards) // each node's own listener, handed over, never re-listened
	for i := range nodes {
		ul, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := &healNode{proxyAddr: pl.Addr().String()}
		n.upstreamAddr.Store(ul.Addr().String())
		uls[i] = ul
		n.proxy = chaos.NewProxy(pl, func() (net.Conn, error) {
			return net.DialTimeout("tcp", n.upstream(), 2*time.Second)
		}, chaos.Config{
			Seed:         int64(7000 + i),
			Latency:      150 * time.Microsecond,
			PartialWrite: 0.1,
			Corrupt:      0.005,
			Reset:        0.002,
		})
		go n.proxy.Serve()
		nodes[i] = n
		peers[i] = n.proxyAddr
	}
	for i, n := range nodes {
		bootHealNode(t, n, uls[i], peers, "")
	}
	router, err := NewRouter(RouterConfig{Shards: peers})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(rl)
	t.Cleanup(func() {
		router.Close()
		for _, n := range nodes {
			if n.srv != nil {
				n.srv.Close()
			}
			if n.sh != nil {
				n.sh.Close()
			}
			n.proxy.Close()
		}
	})

	liveShards := func(skip int) []*Shard {
		var out []*Shard
		for i, n := range nodes {
			if i != skip {
				out = append(out, n.sh)
			}
		}
		return out
	}

	c, err := client.Dial("tcp", rl.Addr().String(), client.WithRetry(client.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Factorize through the router, retrying through the injected faults.
	factorize := func(a *sstar.Matrix) *client.Handle {
		deadline := time.Now().Add(20 * time.Second)
		for {
			h, _, err := c.Factorize(context.Background(), a, sstar.DefaultOptions())
			if err == nil {
				return h
			}
			if time.Now().After(deadline) {
				t.Fatalf("factorize never succeeded: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	handles := make([]*client.Handle, len(systems))
	for i, sys := range systems {
		handles[i] = factorize(sys.a)
	}
	ownerOf := func(sh *Shard, key uint64) int {
		owner := sh.Owner(key)
		for i, p := range peers {
			if p == owner {
				return i
			}
		}
		return -1
	}
	victim := ownerOf(nodes[0].sh, handles[0].Key())
	epochBefore := nodes[(victim+1)%shards].sh.Epoch()

	// A spare handle the workload never solves, on a structure the victim
	// owns: after the kill it is freed through the router.
	var spare *client.Handle
	for k := 0; k < 64 && spare == nil; k++ {
		a := sstar.GenGrid2D(12+k, 9, false, sstar.GenOptions{Seed: 90, Convection: 0.3})
		if ownerOf(nodes[0].sh, sstar.StructureKey(a, sstar.DefaultOptions())) == victim {
			spare = factorize(a)
		}
	}
	if spare == nil {
		t.Fatal("no spare structure owned by the victim among 64 grids")
	}
	var victimKeys []*client.Handle
	for _, h := range append(handles, spare) {
		if ownerOf(nodes[0].sh, h.Key()) == victim {
			victimKeys = append(victimKeys, h)
		}
	}
	waitForOr(t, "initial replication (R=2 everywhere)", func() bool {
		return len(PlacementViolations(liveShards(-1))) == 0
	}, nil)

	// The workload: concurrent solves against every system, each answer
	// checked bit-exactly, running through kill AND rejoin.
	const solvesPerSystem = 24
	var completed, failed atomic.Int64
	var wg sync.WaitGroup
	for i, sys := range systems {
		wg.Add(1)
		go func(i int, sys *testSystem, h *client.Handle) {
			defer wg.Done()
			for s := 0; s < solvesPerSystem; s++ {
				deadline := time.Now().Add(25 * time.Second)
				for {
					got, _, err := h.Solve(context.Background(), sys.b)
					if err == nil {
						if !bitIdentical(got, sys.xref) {
							t.Errorf("system %d solve %d: answer differs from local reference", i, s)
							failed.Add(1)
						}
						completed.Add(1)
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("system %d solve %d: never succeeded: %v", i, s, err)
						failed.Add(1)
						break
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(i, sys, handles[i])
	}

	// Kill the owner mid-workload: a crash, no goodbye.
	waitFor(t, "warm-up solves", func() bool {
		return completed.Load() >= int64(2*len(systems))
	})
	nodes[victim].srv.Close()
	nodes[victim].sh.Close()
	t.Logf("killed shard %d (%s) after %d solves", victim, peers[victim], completed.Load())

	// The survivors must notice the death (epoch bump past the old view)
	// and re-replicate until every key is back at min(R, live) = 2 copies
	// among the two survivors.
	waitForOr(t, "death detection and epoch bump", func() bool {
		for i, n := range nodes {
			if i == victim {
				continue
			}
			if n.sh.ring.Contains(peers[victim]) || n.sh.Epoch() <= epochBefore {
				return false
			}
		}
		return true
	}, nil)
	var viol []string
	waitForOr(t, "post-kill repair (R=2 among survivors)", func() bool {
		viol = PlacementViolations(liveShards(victim))
		return len(viol) == 0
	}, func() {
		for _, v := range viol {
			t.Logf("violation: %s", v)
		}
	})

	// Nothing was promoted: the ring changed, and each key the victim owned
	// is held by the shard the ring now names its owner.
	survivor := nodes[(victim+1)%shards].sh
	for _, h := range victimKeys {
		if o := ownerOf(survivor, h.Key()); o < 0 || !nodes[o].srv.HasHandle(h.ID()) {
			t.Errorf("handle %d: new ring owner %d does not hold it", h.ID(), o)
		}
	}
	// A free routed to the new owner is forwarded to its successor: both
	// survivors free the spare. A retry after an ambiguous delivery may
	// find it already freed. Where the copies end up is not asserted: a
	// successor sweep that runs between the owner's free and the forward's
	// arrival pushes the copy back to the owner.
	deadline := time.Now().Add(20 * time.Second)
	for {
		err := spare.Free(context.Background())
		if err == nil || errors.Is(err, sstar.ErrBadHandle) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("routed free of the spare never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitForOr(t, "the routed free to reach the successor", func() bool {
		for i, n := range nodes {
			if _, ok := n.freed.Load(spare.ID()); i != victim && !ok {
				return false
			}
		}
		return true
	}, nil)

	// Rejoin: a fresh, empty process on the same addresses, entering through
	// a survivor. The repair sweep must hand it back its owned range and
	// restore R=2 across all three — without a single refactorize.
	var facBefore int64
	for i, n := range nodes {
		if i != victim {
			facBefore += n.srv.Stats().Factorizes + n.srv.Stats().Refactorizes
		}
	}
	// The reboot listens on a fresh port: the proxy keeps the advertised
	// address and dials whatever upstream the node has now.
	ul, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bootHealNode(t, nodes[victim], ul, nil, peers[(victim+1)%shards])
	waitForOr(t, "rejoin convergence (R=2 across all three)", func() bool {
		viol = PlacementViolations(liveShards(-1))
		return len(viol) == 0
	}, func() {
		for _, v := range viol {
			t.Logf("violation: %s", v)
		}
	})
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d solves failed or mismatched (of %d)", n, int64(len(systems))*solvesPerSystem)
	}
	var facAfter int64
	for i, n := range nodes {
		if i != victim {
			facAfter += n.srv.Stats().Factorizes + n.srv.Stats().Refactorizes
		}
	}
	if facAfter != facBefore {
		t.Errorf("healing factorized: survivors' factorize+refactorize counters moved %d -> %d", facBefore, facAfter)
	}
	if got := nodes[victim].srv.Stats().Factorizes; got != 0 {
		t.Errorf("rejoined shard factorized %d times; repair must hand factors over, not recompute them", got)
	}
}

// TestClusterPartitionHeal: one shard becomes unreachable behind its proxy
// (SetPartitioned — connections die on accept, established relays are
// severed) while a workload runs. Solves keep succeeding bit-identically
// through router failover; after the partition heals, the fleet converges
// back to zero placement violations with no refactorization.
func TestClusterPartitionHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("partition e2e takes seconds")
	}
	const shards = 3
	systems := make([]*testSystem, 3)
	for i := range systems {
		systems[i] = buildSystem(t, 50+i)
	}

	nodes := make([]*healNode, shards)
	peers := make([]string, shards)
	uls := make([]net.Listener, shards) // each node's own listener, handed over, never re-listened
	for i := range nodes {
		ul, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		pl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := &healNode{proxyAddr: pl.Addr().String()}
		n.upstreamAddr.Store(ul.Addr().String())
		uls[i] = ul
		n.proxy = chaos.NewProxy(pl, func() (net.Conn, error) {
			return net.DialTimeout("tcp", n.upstream(), 2*time.Second)
		}, chaos.Config{Seed: int64(7700 + i)})
		go n.proxy.Serve()
		nodes[i] = n
		peers[i] = n.proxyAddr
	}
	for i, n := range nodes {
		bootHealNode(t, n, uls[i], peers, "")
	}
	router, err := NewRouter(RouterConfig{Shards: peers})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go router.Serve(rl)
	t.Cleanup(func() {
		router.Close()
		for _, n := range nodes {
			n.srv.Close()
			n.sh.Close()
			n.proxy.Close()
		}
	})

	c, err := client.Dial("tcp", rl.Addr().String(), client.WithRetry(client.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	handles := make([]*client.Handle, len(systems))
	for i, sys := range systems {
		h, _, err := c.Factorize(context.Background(), sys.a, sstar.DefaultOptions())
		if err != nil {
			t.Fatalf("factorize %d: %v", i, err)
		}
		handles[i] = h
	}
	all := func() []*Shard {
		out := make([]*Shard, len(nodes))
		for i, n := range nodes {
			out[i] = n.sh
		}
		return out
	}
	waitForOr(t, "initial replication", func() bool {
		return len(PlacementViolations(all())) == 0
	}, nil)

	// Partition the owner of system 0's structures.
	victim := -1
	owner := nodes[0].sh.ring.Owner(handles[0].Key())
	for i, p := range peers {
		if p == owner {
			victim = i
		}
	}
	nodes[victim].proxy.SetPartitioned(true)
	t.Logf("partitioned shard %d (%s)", victim, owner)

	// Solves during the partition: the owner is unreachable inbound, so the
	// router fails them over to the replica — bit-identically.
	for round := 0; round < 5; round++ {
		for i, sys := range systems {
			got, err := solveRetrying(handles[i], sys.b)
			if err != nil {
				t.Fatalf("partition solve %d/%d: %v", round, i, err)
			}
			if !bitIdentical(got, sys.xref) {
				t.Errorf("partition solve %d/%d differs bitwise from the reference", round, i)
			}
		}
	}
	if st := router.Stats(); st.Failovers < 1 {
		t.Errorf("router failovers = %d, want >= 1 while the owner was partitioned", st.Failovers)
	}

	// Heal. Whatever the fleet decided about the victim in the meantime —
	// suspect, dead-and-removed, or still in — it must converge back to all
	// three members with zero violations and no refactorization.
	var fac int64
	for _, n := range nodes {
		fac += n.srv.Stats().Refactorizes
	}
	nodes[victim].proxy.SetPartitioned(false)
	waitFor(t, "post-heal membership (all three back)", func() bool {
		for _, n := range nodes {
			if n.sh.ring.Size() != shards {
				return false
			}
		}
		return true
	})
	var viol []string
	waitForOr(t, "post-heal repair", func() bool {
		viol = PlacementViolations(all())
		return len(viol) == 0
	}, func() {
		for _, v := range viol {
			t.Logf("violation: %s", v)
		}
	})
	var facAfter int64
	for _, n := range nodes {
		facAfter += n.srv.Stats().Refactorizes
	}
	if facAfter != fac {
		t.Errorf("healing refactorized: %d -> %d", fac, facAfter)
	}
	// The healed fleet serves every system again, still bit-identically.
	for i, sys := range systems {
		got, err := solveRetrying(handles[i], sys.b)
		if err != nil {
			t.Fatalf("post-heal solve %d: %v", i, err)
		}
		if !bitIdentical(got, sys.xref) {
			t.Errorf("post-heal solve %d differs bitwise from the reference", i)
		}
	}
}
