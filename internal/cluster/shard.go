package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sstar"
	"sstar/internal/chaos"
	"sstar/internal/server"
)

// ShardConfig configures one cluster shard.
type ShardConfig struct {
	// Self is this shard's advertised address — the string peers and clients
	// dial, and the string that must appear in Peers. In a chaos-proxied
	// deployment this is the proxy's address, so inter-shard traffic crosses
	// the proxy too.
	Self string
	// Peers lists every shard's advertised address, Self included. The set
	// is the ring membership; every shard must be configured with the same
	// set (placement is a pure function of it).
	Peers []string
	// Network is the dial network for peer links ("tcp" default).
	Network string
	// Join, when set, names any live member of an existing cluster: the
	// shard boots with a single-member ring at epoch 0 and the health loop
	// joins through that address (receiving the fleet's epoch and member
	// list, which triggers re-replication of exactly the keys the ring
	// moves onto the newcomer). Peers may then list only Self — or be
	// empty, defaulting to Self.
	Join string
	// HeartbeatInterval is the failure-detector probe cadence (default
	// 250ms). Negative disables the health loop — membership stays static,
	// the pre-self-healing behavior.
	HeartbeatInterval time.Duration
	// RepairInterval is the anti-entropy sweep cadence (default 2s).
	// Negative disables the periodic sweep (membership-change rebalances
	// still run). The sweep diffs per-shard manifests against ring
	// placement and pushes/drops until the fleet converges.
	RepairInterval time.Duration
	// Clock injects time into the failure detector (default wall clock).
	// Chaos tests drive a chaos.FakeClock to make suspect/dead transitions
	// deterministic.
	Clock chaos.Clock
	// Logf, when set, receives replication and routing diagnostics.
	Logf func(format string, args ...any)
}

// replQueueDepth bounds the asynchronous replication queue. When the queue is
// full the oldest semantics are preserved by dropping the *new* push and
// counting it — a lagging successor degrades replication freshness, never the
// request path. Pushes of one handle to one peer coalesce (see replicate), so
// the queue holds at most one per (peer, handle).
const replQueueDepth = 256

func (c ShardConfig) withDefaults() ShardConfig {
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = defaultHeartbeatInterval
	}
	if c.RepairInterval == 0 {
		c.RepairInterval = defaultRepairInterval
	}
	if c.Clock == nil {
		c.Clock = chaos.RealClock{}
	}
	return c
}

// replJob is one queued push to addr. A replication push names its handle
// only: the replicator exports the factors as the push leaves (deliver), the
// complete copy when full is set and the values push otherwise. Any other
// push (a forwarded free) carries its request in req.
type replJob struct {
	addr   string
	handle uint64
	full   bool
	req    *server.Request
}

// pushKey identifies the one replication push of a handle to a peer that may
// be queued at a time.
type pushKey struct {
	addr   string
	handle uint64
}

// Shard implements server.ClusterHooks: it owns the ring view, refuses work
// placed elsewhere with typed redirects, and replicates writes to the
// successor asynchronously. Create with NewShard, pass as
// server.Config.Cluster, then Bind the resulting server.
type Shard struct {
	cfg   ShardConfig
	ring  *Ring
	peers *server.Pool
	srv   atomic.Pointer[server.Server]
	mem   *membership
	det   *detector

	jobs       chan *replJob
	queuedMu   sync.Mutex
	queued     map[pushKey]*replJob // replication pushes in jobs, by peer and handle
	rebalance  chan struct{}        // kicks an immediate push-only sweep after a membership change
	stop       chan struct{}
	done       chan struct{}
	healthDone chan struct{}
	repairDone chan struct{}
	closeOnce  sync.Once

	strayMu   sync.Mutex
	strayCand map[uint64]struct{} // strays whose copies were confirmed last sweep (two-sweep drop rule)

	redirects         atomic.Int64
	replications      atomic.Int64
	replErrors        atomic.Int64
	replDropped       atomic.Int64
	pending           atomic.Int64 // queued + in-flight replication pushes
	repairPushes      atomic.Int64
	repairDrops       atomic.Int64
	membershipChanges atomic.Int64
	deaths            atomic.Int64
}

// NewShard builds the shard's cluster side. The returned Shard goes into
// server.Config.Cluster; after server.New, call Bind to attach the server
// (routing needs its handle registry, the gauges need its metrics registry)
// — requests cannot arrive before Bind because the listener isn't up yet.
func NewShard(cfg ShardConfig) (*Shard, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: shard needs a Self address")
	}
	if len(cfg.Peers) == 0 {
		cfg.Peers = []string{cfg.Self}
	}
	ring := NewRing(DefaultVNodes)
	self := false
	for _, p := range cfg.Peers {
		ring.Add(p)
		self = self || p == cfg.Self
	}
	if !self {
		return nil, fmt.Errorf("cluster: Self %q not in Peers %v", cfg.Self, cfg.Peers)
	}
	if cfg.Join == "" || len(cfg.Peers) > 1 {
		// A statically configured fleet starts at epoch 1: an established
		// view that beats any fresh joiner's epoch 0 in a merge.
		ring.SetEpoch(1)
	}
	sh := &Shard{
		cfg:        cfg,
		ring:       ring,
		peers:      newPeers(cfg.Network),
		jobs:       make(chan *replJob, replQueueDepth),
		queued:     make(map[pushKey]*replJob),
		rebalance:  make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		healthDone: make(chan struct{}),
		repairDone: make(chan struct{}),
	}
	sh.mem = newMembership(cfg.Self, ring)
	sh.det = newDetector(cfg.Clock, cfg.HeartbeatInterval)
	for _, p := range cfg.Peers {
		sh.mem.noteKnown(p)
	}
	if cfg.Join != "" {
		sh.mem.noteKnown(cfg.Join)
	}
	go sh.replicator()
	if cfg.HeartbeatInterval > 0 {
		go sh.healthLoop()
	} else {
		close(sh.healthDone)
	}
	go sh.repairLoop()
	return sh, nil
}

// Bind attaches the server this shard fronts and registers the cluster
// gauges on its /metrics registry.
func (sh *Shard) Bind(s *server.Server) {
	sh.srv.Store(s)
	reg := s.Registry()
	reg.GaugeFunc("sstar_cluster_shards",
		"Cluster size in this shard's ring view.",
		func() float64 { return float64(sh.ring.Size()) })
	reg.GaugeFunc("sstar_cluster_owned_handles",
		"Live handles whose key this shard owns under its ring view.",
		func() float64 {
			n := 0
			for _, e := range s.Manifest() {
				if sh.ring.Owner(e.Key) == sh.cfg.Self {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("sstar_cluster_replication_pending",
		"Replication pushes queued or in flight — the lag a failover right now would expose.",
		func() float64 { return float64(sh.pending.Load()) })
	reg.CounterFunc("sstar_cluster_replications_total",
		"Replication pushes acknowledged by the successor.",
		func() float64 { return float64(sh.replications.Load()) })
	reg.CounterFunc("sstar_cluster_replication_errors_total",
		"Replication pushes abandoned after retries (dropped enqueues included).",
		func() float64 { return float64(sh.replErrors.Load() + sh.replDropped.Load()) })
	reg.CounterFunc("sstar_cluster_redirects_total",
		"Requests refused with CodeRedirect/CodeNotOwner because placement assigns them elsewhere.",
		func() float64 { return float64(sh.redirects.Load()) })
	reg.GaugeFunc("sstar_cluster_membership_epoch",
		"Membership epoch of this shard's ring view (bumps on every join, leave, or death).",
		func() float64 { return float64(sh.ring.Epoch()) })
	reg.CounterFunc("sstar_cluster_membership_changes_total",
		"Membership view changes this shard applied (joins, leaves, deaths, merges).",
		func() float64 { return float64(sh.membershipChanges.Load()) })
	reg.CounterFunc("sstar_cluster_peer_deaths_total",
		"Peers this shard's failure detector declared dead.",
		func() float64 { return float64(sh.deaths.Load()) })
	reg.CounterFunc("sstar_cluster_repair_pushes_total",
		"Factor copies the anti-entropy sweep pushed to restore ring placement.",
		func() float64 { return float64(sh.repairPushes.Load()) })
	reg.CounterFunc("sstar_cluster_repair_drops_total",
		"Stray handles released after their copies were confirmed on two consecutive sweeps.",
		func() float64 { return float64(sh.repairDrops.Load()) })
}

// Close stops the health, repair, and replicator goroutines (best effort:
// the replication queue is drained first) and releases peer connections.
// Later calls do nothing.
func (sh *Shard) Close() {
	sh.closeOnce.Do(func() {
		close(sh.stop)
		<-sh.healthDone
		<-sh.repairDone
		<-sh.done
		sh.peers.Close()
	})
}

// Leave announces a coordinated departure: every reachable member receives a
// Leave intent for this shard's address, bumps its epoch, and rebalances the
// moved keys from the replicas it already holds. Called before shutdown
// (sstar-serve does); best-effort — an unreachable peer learns the same
// thing from its failure detector, just slower.
func (sh *Shard) Leave() {
	_, members := sh.ring.View()
	for _, m := range members {
		if m == sh.cfg.Self {
			continue
		}
		req := &server.Request{Op: server.OpMembership, Addr: sh.cfg.Self, Leave: true}
		if resp, _, err := sh.peers.Exchange(context.Background(), m, req); err != nil {
			sh.logf("cluster: %s: leave notice to %s failed: %v", sh.cfg.Self, m, err)
		} else if resp.Err != "" {
			sh.logf("cluster: %s: leave notice to %s refused: %s", sh.cfg.Self, m, resp.Err)
		}
	}
	sh.mem.applyLeave(sh.cfg.Self)
}

func (sh *Shard) logf(format string, args ...any) {
	if sh.cfg.Logf != nil {
		sh.cfg.Logf(format, args...)
	}
}

// successor returns the first replica holder for key that is not this shard,
// "" when the fleet has no other member.
func (sh *Shard) successor(key uint64) string {
	for _, m := range sh.ring.Replicas(key, replicas) {
		if m != sh.cfg.Self {
			return m
		}
	}
	return ""
}

// Route implements server.ClusterHooks: refuse work that placement assigns
// elsewhere, with the owner's address in the response so callers re-aim
// instead of failing.
func (sh *Shard) Route(req *server.Request) *server.Response {
	switch req.Op {
	case server.OpMembership:
		return sh.handleMembership(req)
	case server.OpManifest:
		s := sh.srv.Load()
		if s == nil {
			return &server.Response{Manifest: []server.ManifestEntry{}, Epoch: sh.ring.Epoch()}
		}
		return &server.Response{Manifest: s.Manifest(), Epoch: sh.ring.Epoch()}
	case server.OpFactorize:
		if req.Matrix == nil {
			return nil // local validation produces the real error
		}
		key := sstar.StructureKey(req.Matrix, req.Opts)
		reps := sh.ring.Replicas(key, replicas)
		for _, m := range reps {
			if m == sh.cfg.Self {
				// Any replica holder may factorize — the owner normally,
				// the successor when the router fails a factorize over.
				return nil
			}
		}
		sh.redirects.Add(1)
		return &server.Response{
			Err:   fmt.Sprintf("%v: structure %#x is placed on %s", sstar.ErrRedirect, key, reps[0]),
			Code:  server.CodeRedirect,
			Addr:  reps[0],
			Key:   key,
			Epoch: sh.ring.Epoch(),
		}
	case server.OpSolve, server.OpSolveMany, server.OpRefactorize, server.OpFree:
		s := sh.srv.Load()
		if s == nil || s.HasHandle(req.Handle) {
			return nil
		}
		// The handle is not here. With a structure-key hint we can say who
		// has it; without one, fall through to the registry's BadHandle.
		if req.Key == 0 {
			return nil
		}
		reps := sh.ring.Replicas(req.Key, replicas)
		for _, m := range reps {
			if m == sh.cfg.Self {
				// Placement says the handle belongs here but it isn't here
				// (not yet replicated, or evicted): the registry's typed
				// answer is the truthful one.
				return nil
			}
		}
		sh.redirects.Add(1)
		return &server.Response{
			Err:   fmt.Sprintf("%v: handle %d (structure %#x) is placed on %s", sstar.ErrNotOwner, req.Handle, req.Key, reps[0]),
			Code:  server.CodeNotOwner,
			Addr:  reps[0],
			Key:   req.Key,
			Epoch: sh.ring.Epoch(),
		}
	}
	return nil // ping, stats, replication pushes: always local
}

// Self implements server.ClusterHooks.
func (sh *Shard) Self() string { return sh.cfg.Self }

// Stored implements server.ClusterHooks: replicate the write to the
// successor — the values alone after a refactorize, which changes nothing
// else, and the complete copy after a factorize.
func (sh *Shard) Stored(ev server.StoredEvent) {
	if succ := sh.successor(ev.Key); succ != "" {
		sh.replicate(succ, ev.Handle, !ev.Refactor)
	}
}

// Freed implements server.ClusterHooks: forward the free to the key's other
// responsible shard (the successor at the owner, the owner at the
// successor) so its copy is released too, wherever the client freed it. The
// chain is finite even when two shards' views disagree: the server calls
// this only after a successful free, and a holder frees an id at most once
// (a repeat answers BadHandle), so each holder forwards at most once.
func (sh *Shard) Freed(handle uint64, key uint64) {
	succ := sh.successor(key)
	if succ == "" {
		return
	}
	j := &replJob{addr: succ, req: &server.Request{
		Op:     server.OpFree,
		Handle: handle,
		Key:    key,
	}}
	if !sh.send(j) {
		sh.dropped(j)
	}
}

// AugmentStats implements server.ClusterHooks.
func (sh *Shard) AugmentStats(st *server.ServerStats) {
	st.Shards = sh.ring.Size()
	st.Redirects = sh.redirects.Load()
	st.Replications = sh.replications.Load()
	st.ReplicationPending = int(sh.pending.Load())
	st.Epoch = sh.ring.Epoch()
	st.RepairPushes = sh.repairPushes.Load()
	st.RepairDrops = sh.repairDrops.Load()
}

// Epoch returns the shard's current membership epoch.
func (sh *Shard) Epoch() uint64 { return sh.ring.Epoch() }

// Owner maps a structure key to the advertised address of its owner under
// this shard's current view.
func (sh *Shard) Owner(key uint64) string { return sh.ring.Owner(key) }

// Members returns the shard's current member list, sorted.
func (sh *Shard) Members() []string { return sh.ring.Members() }

// replicate queues a push of handle to addr unless one is queued already.
// The queued push exports the handle when it leaves the queue, so it carries
// this write as well; full makes it the complete copy, which carries a values
// push's write too. A push dropped on a full queue leaves no mark, so the
// handle's next write queues afresh.
func (sh *Shard) replicate(addr string, handle uint64, full bool) {
	k := pushKey{addr: addr, handle: handle}
	sh.queuedMu.Lock()
	j, ok := sh.queued[k]
	if ok {
		j.full = j.full || full
	} else {
		j = &replJob{addr: addr, handle: handle, full: full}
		if ok = sh.send(j); ok {
			sh.queued[k] = j
		}
	}
	sh.queuedMu.Unlock()
	if !ok {
		sh.dropped(j)
	}
}

// take removes j from the coalescing marks as it leaves the queue — a write
// from now on queues a push of its own — and returns it as it stands.
func (sh *Shard) take(j *replJob) replJob {
	sh.queuedMu.Lock()
	defer sh.queuedMu.Unlock()
	if j.req == nil {
		delete(sh.queued, pushKey{addr: j.addr, handle: j.handle})
	}
	return *j
}

// send hands a push to the replicator without ever blocking the request
// path, and reports whether it did: a full queue refuses the push rather
// than stall a factorize behind a lagging successor.
func (sh *Shard) send(j *replJob) bool {
	sh.pending.Add(1)
	select {
	case sh.jobs <- j:
		return true
	default:
		sh.pending.Add(-1)
		return false
	}
}

// dropped counts and logs a push the full queue refused.
func (sh *Shard) dropped(j *replJob) {
	sh.replDropped.Add(1)
	sh.logf("cluster: replication queue full, dropped %s to %s", j, j.addr)
}

// String names the push for logs.
func (j *replJob) String() string {
	if j.req != nil {
		return j.req.Op.String()
	}
	return fmt.Sprintf("replicate of handle %d", j.handle)
}

// replicator drains the push queue, retrying each push with backoff — the
// successor may be mid-restart or behind a flaky link. On shutdown the
// queued pushes are flushed with one attempt each. It is the one goroutine
// that exports factors for pushes, so at most one export per shard is in
// flight.
func (sh *Shard) replicator() {
	defer close(sh.done)
	for {
		select {
		case j := <-sh.jobs:
			sh.push(sh.take(j), 3)
		case <-sh.stop:
			for {
				select {
				case j := <-sh.jobs:
					sh.push(sh.take(j), 1)
				default:
					return
				}
			}
		}
	}
}

// pushTimeout bounds one replication exchange. Pushes run one at a time off
// one queue, so without a bound a link that swallows part of a frame would
// stall every write behind it for the pool's call timeout (a minute). The
// bound leaves room for a push's factor copy, the largest frame a shard sends;
// a push that misses it is retried like any failed one.
const pushTimeout = 5 * time.Second

// push delivers one job with up to attempts tries.
func (sh *Shard) push(j replJob, attempts int) {
	defer sh.pending.Add(-1)
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(time.Duration(50<<uint(i-1)) * time.Millisecond):
			case <-sh.stop:
			}
		}
		var sent bool
		if sent, err = sh.deliver(&j); err == nil {
			if sent {
				sh.replications.Add(1)
			}
			return
		}
	}
	sh.replErrors.Add(1)
	sh.logf("cluster: %s to %s failed after %d attempts: %v", &j, j.addr, attempts, err)
}

// deliver makes one attempt at j and reports whether anything was sent. A
// replication push exports the handle now (server.ExportHandle); a handle
// freed or evicted since has nothing left to push. A values push the
// receiver refuses — it holds no copy the values apply to, or it predates
// values pushes and fails to load them — is followed at once by the complete
// copy, and j stays full for any retry.
func (sh *Shard) deliver(j *replJob) (sent bool, err error) {
	req := j.req
	if req == nil {
		s := sh.srv.Load()
		if s == nil {
			return false, nil
		}
		var ok bool
		if req, ok = s.ExportHandle(j.handle, !j.full); !ok {
			return false, nil
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), pushTimeout)
	resp, _, err := sh.peers.Exchange(ctx, j.addr, req)
	cancel()
	switch {
	case err != nil:
		return false, err
	case resp.Err == "":
		return true, nil
	case req.Op == server.OpFree && (resp.Code == server.CodeBadHandle || resp.Code == server.CodeEvicted):
		// OpFree forwarded to a shard that never installed the copy (or
		// already freed or dropped it) answers BadHandle — the desired end
		// state, not a failure.
		return true, nil
	case req.Op == server.OpReplicate && !j.full:
		j.full = true
		return sh.deliver(j)
	}
	return false, resp.Error()
}
