package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sstar"
	"sstar/internal/obs"
	"sstar/internal/server"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Shards lists every shard's advertised address — the same set every
	// shard was configured with.
	Shards []string
	// Network is the dial network for shard links ("tcp" default).
	Network string
	// MaxFrame caps request and response frames.
	MaxFrame int
	// Logf, when set, receives routing diagnostics.
	Logf func(format string, args ...any)
}

// Router speaks the ordinary client protocol in front of a shard fleet: it
// hashes each request to its owning shard, follows redirects, fails handle
// operations over to the replica when the owner is unreachable (counting
// each as a failover — the solve that survived without refactorizing). A
// SolveMany goes whole to one holder, like every other handle operation.
//
// Clients connect to the router exactly as they would to a single server —
// same Hello, same frames, same response codes — so the fleet is a drop-in
// replacement for one sstar-serve.
type Router struct {
	cfg   RouterConfig
	ring  *Ring
	ep    *server.Endpoint // client side: answers every request with handle
	peers *server.Pool     // shard links

	placeMu sync.Mutex
	place   map[uint64]uint64 // handle -> structure key, learned from factorize responses

	requests  atomic.Int64
	errors    atomic.Int64
	failovers atomic.Int64
	redirects atomic.Int64
	ambiguous atomic.Int64
	refreshes atomic.Int64

	// refreshMu serializes ring refreshes so a burst of stale-epoch answers
	// costs one membership exchange, not one per request.
	refreshMu sync.Mutex
}

// NewRouter builds a router over the given fleet.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one shard")
	}
	ring := NewRing(DefaultVNodes)
	for _, s := range cfg.Shards {
		ring.Add(s)
	}
	// Matches the shards' boot epoch, so a static fleet never looks newer
	// than the router's seed view.
	ring.SetEpoch(1)
	r := &Router{
		cfg:   cfg,
		ring:  ring,
		peers: newPeers(cfg.Network, cfg.MaxFrame),
		place: make(map[uint64]uint64),
	}
	r.ep = server.NewEndpoint(cfg.MaxFrame, r.handle, cfg.Logf)
	return r, nil
}

// newPeers is the pool cluster processes reach each other through (the
// router its shards, a shard its ring peers). Cluster traffic runs outside
// any client's context, so the pool's own timeouts are what bound it: a dead
// peer fails a dial within seconds, a wedged one cannot hold a call forever.
func newPeers(network string, maxFrame int) *server.Pool {
	return &server.Pool{Network: network, MaxFrame: maxFrame, DialTimeout: 5 * time.Second, CallTimeout: 60 * time.Second}
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Serve accepts client connections on l until the listener fails or the
// router is closed. Blocks; run one goroutine per listener.
func (r *Router) Serve(l net.Listener) error { return r.ep.Serve(l) }

// Close stops accepting, closes every connection, and releases shard links.
func (r *Router) Close() error {
	r.ep.Close()
	r.peers.Close()
	return nil
}

// keyOf returns the structure key recorded for handle (0 if unknown — e.g.
// the handle was created through a different router).
func (r *Router) keyOf(handle uint64) uint64 {
	r.placeMu.Lock()
	defer r.placeMu.Unlock()
	return r.place[handle]
}

// handle routes one request.
func (r *Router) handle(req *server.Request) *server.Response {
	r.requests.Add(1)
	var resp *server.Response
	switch req.Op {
	case server.OpPing:
		return &server.Response{}
	case server.OpStats:
		return &server.Response{Server: r.aggregateStats()}
	case server.OpFactorize:
		if req.Matrix == nil {
			return &server.Response{Err: "cluster: factorize needs a matrix"}
		}
		key := sstar.StructureKey(req.Matrix, req.Opts)
		resp = r.forward(req, key)
		if resp != nil && resp.Err == "" {
			r.placeMu.Lock()
			r.place[resp.Handle] = resp.Key
			r.placeMu.Unlock()
			// Strip the shard's advertised address: a client that learned it
			// would aim handle ops at the shard directly, bypassing the one
			// component that can fail them over. Replica stays — it is
			// informational.
			resp.Addr = ""
		}
	case server.OpSolve, server.OpSolveMany, server.OpRefactorize, server.OpFree:
		key := req.Key
		if key == 0 {
			key = r.keyOf(req.Handle)
		}
		req.Key = key
		resp = r.forward(req, key)
		if req.Op == server.OpFree && resp.Err == "" {
			r.placeMu.Lock()
			delete(r.place, req.Handle)
			r.placeMu.Unlock()
		}
	default:
		// Replication pushes and unknown ops are shard-to-shard traffic; a
		// router is the wrong audience.
		return &server.Response{Err: fmt.Sprintf("cluster: router does not accept %s", req.Op)}
	}
	if resp.Err != "" {
		r.errors.Add(1)
	}
	return resp
}

// maxRedirectHops bounds redirect following per candidate so a
// misconfigured fleet (two shards pointing at each other) degrades to a
// typed error instead of a loop.
const maxRedirectHops = 4

// candidatesFor resolves the shards to try for a structure key: the key's
// replica set in placement order, or — key unknown (a handle that predates
// this router) — every member in deterministic order (the holder answers,
// the rest refuse).
func (r *Router) candidatesFor(key uint64) []string {
	if key != 0 {
		return r.ring.Replicas(key, replicas)
	}
	return r.ring.Members()
}

// forward routes req through its candidate shards. When every candidate is
// unreachable the ring view may simply be stale — the fleet healed around a
// membership change the router has not seen — so the router refreshes its
// view from any answering member and, if the epoch advanced, re-resolves the
// candidates once and tries again.
func (r *Router) forward(req *server.Request, key uint64) *server.Response {
	resp, lastErr := r.forwardOnce(req, r.candidatesFor(key))
	if resp == nil && r.refreshRing("") {
		resp, lastErr = r.forwardOnce(req, r.candidatesFor(key))
	}
	if resp == nil {
		return &server.Response{
			Err:  fmt.Sprintf("cluster: no shard reachable for %s (last: %v)", req.Op, lastErr),
			Code: server.CodeOverloaded,
		}
	}
	return resp
}

// forwardOnce tries candidates in placement order (owner first), following
// redirects, until one executes the request. Transport failures move to the
// next candidate when retrying is safe; in-band BadHandle/Evicted answers
// also move on (the owner may have restarted and lost the handle the
// replica still holds). An ambiguous failure of a non-idempotent op — the
// request was delivered but the connection died before the answer — returns
// a typed CodeAmbiguous response: the router refuses to guess whether the
// operation executed, and blind retry could double-execute. A nil response
// means every candidate was transport-unreachable (the caller may refresh
// the ring and retry).
func (r *Router) forwardOnce(req *server.Request, candidates []string) (*server.Response, error) {
	var last *server.Response
	var lastErr error
	for i, addr := range candidates {
		for hop := 0; hop < maxRedirectHops; hop++ {
			resp, delivered, err := r.peers.Exchange(context.Background(), addr, req)
			if err != nil {
				if delivered && !req.Op.Idempotent() {
					r.ambiguous.Add(1)
					r.logf("cluster: %s to %s ambiguous: delivered but unanswered: %v", req.Op, addr, err)
					return &server.Response{
						Err:  fmt.Sprintf("%v: %s to %s was delivered but the connection died before the answer: %v", sstar.ErrAmbiguous, req.Op, addr, err),
						Code: server.CodeAmbiguous,
					}, nil
				}
				lastErr = err
				break // next candidate
			}
			if resp.Epoch > r.ring.Epoch() {
				// The shard's membership view is newer than ours: adopt it
				// before acting on a placement answer computed from it.
				r.refreshRing(addr)
			}
			switch resp.Code {
			case server.CodeRedirect, server.CodeNotOwner:
				if resp.Addr != "" && resp.Addr != addr {
					r.redirects.Add(1)
					addr = resp.Addr
					continue
				}
				last = resp
			case server.CodeBadHandle, server.CodeEvicted:
				// The replica may still hold what this shard lost.
				last = resp
			default:
				// A handle op completed by a non-first candidate is a failover
				// (a factorize landing there allocates a new handle: not one).
				if i > 0 && req.Op != server.OpFactorize && resp.Err == "" {
					r.failovers.Add(1)
				}
				return resp, nil
			}
			break // refused in-band: next candidate
		}
	}
	return last, lastErr
}

// refreshRing pulls a membership view from hint (when given) or any
// answering ring member and adopts it if its epoch is newer than the
// router's. Reports whether the view changed. Serialized so a burst of
// stale answers costs one exchange.
func (r *Router) refreshRing(hint string) bool {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	targets := r.ring.Members()
	if hint != "" {
		targets = append([]string{hint}, targets...)
	}
	for _, m := range targets {
		resp, _, err := r.peers.Exchange(context.Background(), m, &server.Request{Op: server.OpMembership})
		if err != nil || resp.Err != "" || len(resp.Members) == 0 {
			continue // unreachable, or a standalone server: try the next
		}
		if resp.Epoch <= r.ring.Epoch() {
			return false // an answer, but nothing newer than our view
		}
		r.ring.Replace(resp.Members, resp.Epoch)
		r.refreshes.Add(1)
		r.logf("cluster: router adopted membership epoch %d (%d members) from %s", resp.Epoch, len(resp.Members), m)
		return true
	}
	return false
}

// aggregateStats fans OpStats out to every shard and merges: counters sum,
// the router's own counters ride on top. Unreachable shards are skipped —
// the Shards field reports how many answered.
func (r *Router) aggregateStats() server.ServerStats {
	var agg server.ServerStats
	reachable := 0
	for _, addr := range r.ring.Members() {
		resp, _, err := r.peers.Exchange(context.Background(), addr, &server.Request{Op: server.OpStats})
		if err != nil || resp.Err != "" {
			continue
		}
		reachable++
		st := resp.Server
		agg.Requests += st.Requests
		agg.Errors += st.Errors
		agg.Factorizes += st.Factorizes
		agg.Refactorizes += st.Refactorizes
		agg.Solves += st.Solves
		agg.CacheHits += st.CacheHits
		agg.CacheMisses += st.CacheMisses
		agg.CacheEntries += st.CacheEntries
		agg.Coalesced += st.Coalesced
		agg.Handles += st.Handles
		agg.ReplicaHandles += st.ReplicaHandles
		agg.Workers += st.Workers
		if agg.FactorWorkers == 0 {
			agg.FactorWorkers = st.FactorWorkers
		}
		agg.QueueDepth += st.QueueDepth
		agg.Sheds += st.Sheds
		agg.Evictions += st.Evictions
		agg.HandleBytes += st.HandleBytes
		agg.Redirects += st.Redirects
		agg.Replications += st.Replications
		agg.ReplicationPending += st.ReplicationPending
		agg.Promotions += st.Promotions
		agg.Demotions += st.Demotions
		agg.RepairPushes += st.RepairPushes
		agg.RepairDrops += st.RepairDrops
		agg.StaleReplicas += st.StaleReplicas
		if st.Epoch > agg.Epoch {
			agg.Epoch = st.Epoch
		}
	}
	agg.Shards = reachable
	agg.Redirects += r.redirects.Load()
	agg.Failovers = r.failovers.Load()
	return agg
}

// RouterStats is a snapshot of the router's own counters — what the router
// did, without contacting the shards.
type RouterStats struct {
	Requests      int64  // client requests routed
	Errors        int64  // requests that ended in an error response
	Failovers     int64  // handle ops completed by a non-first candidate (replica answered)
	Redirects     int64  // redirect answers followed to a new shard
	Ambiguous     int64  // non-idempotent ops answered CodeAmbiguous (delivered, unanswered)
	RingRefreshes int64  // membership views adopted from the fleet
	Epoch         uint64 // current membership epoch of the router's ring view

	// Scatters is always 0: a SolveMany goes whole to one holder. The field
	// stays only because the benchmark's cluster.scatters reads it; it goes
	// when that metric is retired.
	Scatters int64
}

// Stats returns a snapshot of the router's counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Requests:      r.requests.Load(),
		Errors:        r.errors.Load(),
		Failovers:     r.failovers.Load(),
		Redirects:     r.redirects.Load(),
		Ambiguous:     r.ambiguous.Load(),
		RingRefreshes: r.refreshes.Load(),
		Epoch:         r.ring.Epoch(),
	}
}

// Bind registers the router's counters on reg (served by sstar-router's
// -admin listener).
func (r *Router) Bind(reg *obs.Registry) {
	reg.CounterFunc("sstar_router_requests_total",
		"Client requests routed by this router.",
		func() float64 { return float64(r.requests.Load()) })
	reg.CounterFunc("sstar_router_errors_total",
		"Routed requests that ended in an error response.",
		func() float64 { return float64(r.errors.Load()) })
	reg.CounterFunc("sstar_router_failovers_total",
		"Handle operations completed by a replica after the owner was unreachable.",
		func() float64 { return float64(r.failovers.Load()) })
	reg.CounterFunc("sstar_router_redirects_total",
		"Redirect answers followed to the shard they named.",
		func() float64 { return float64(r.redirects.Load()) })
	reg.CounterFunc("sstar_router_ambiguous_failures_total",
		"Non-idempotent operations answered CodeAmbiguous: delivered to a shard, connection died before the answer.",
		func() float64 { return float64(r.ambiguous.Load()) })
	reg.CounterFunc("sstar_router_ring_refreshes_total",
		"Membership views adopted from the fleet after an epoch mismatch or total unreachability.",
		func() float64 { return float64(r.refreshes.Load()) })
	reg.GaugeFunc("sstar_router_membership_epoch",
		"Membership epoch of the router's ring view.",
		func() float64 { return float64(r.ring.Epoch()) })
}
