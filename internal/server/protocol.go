// Package server implements the sparse-solve service: a long-running server
// that factorizes and solves client-submitted systems over a length-prefixed
// binary protocol (internal/wire frames carrying gob messages) on TCP or
// Unix sockets.
//
// The serving model follows the paper's central property: the George–Ng
// static symbolic analysis is valid for *any* pivot sequence, hence for any
// values sharing a nonzero pattern. The server therefore keeps an LRU cache
// of analyses keyed by structure hash — the canonical workload (many solves,
// few patterns: time stepping, Newton iterations, parameter sweeps) pays for
// ordering + symbolic factorization + partitioning once per pattern, and a
// values-only Refactorize fast path skips even the pattern transfer.
//
// Protocol: after connecting, the client sends a Hello frame and the server
// answers with its own. From then on the client sends Request frames and
// reads one Response frame per request, in order. All payloads are gob.
package server

import (
	"errors"

	"sstar"
)

// Protocol identification, exchanged in the Hello frame of each side.
const (
	ProtoMagic   = "sstar-rpc"
	ProtoVersion = 1
)

// Frame type bytes of the service protocol.
const (
	FrameHello    byte = 0x01
	FrameRequest  byte = 0x02
	FrameResponse byte = 0x03
)

// Hello opens a connection in both directions.
type Hello struct {
	Magic   string
	Version int
}

// Op selects the operation of a Request.
type Op uint8

// Operations of the service protocol.
const (
	OpPing        Op = 1 // liveness check, empty response
	OpFactorize   Op = 2 // Matrix+Opts -> Handle (analysis served from cache when the structure is known)
	OpRefactorize Op = 3 // Handle+Values (fast path) or Handle+Matrix -> new factors under the same handle
	OpSolve       Op = 4 // Handle+B -> X
	OpFree        Op = 5 // Handle -> release the factorization
	OpStats       Op = 6 // -> ServerStats snapshot

	// OpSolveMany solves Handle against NRHS right-hand sides stored
	// column-major in B (len(B) = N*NRHS); X comes back in the same layout,
	// column j bitwise a lone OpSolve of column j. A cluster router
	// forwards it whole to one shard holding the factors.
	OpSolveMany Op = 7

	// OpReplicate is the shard-to-shard replication message: install (or
	// refresh) Blob — a factorization in the sstar Save format — under
	// Handle with structure Key and the pattern carried in Matrix. Opts
	// are the options the factors were analyzed with: the receiver files
	// the symbolic structure inside Blob as its analysis-cache entry for
	// Key, so a factorize of the structure there is a cache hit. Without
	// Matrix it is a values push: Blob is a refactorize's factors in the
	// sstar SaveValues format, applied to the copy of Handle the receiver
	// already holds under Key, and refused with CodeBadHandle when it
	// holds none that fits (the pusher then sends the full copy).
	// Idempotent: re-installing the same handle replaces the factors. An
	// installed copy is indistinguishable from a locally factorized one;
	// which shard owns it is a ring lookup, never stored. Single-node
	// servers accept it too.
	OpReplicate Op = 8

	// OpReplicateAnalysis is retired: older shards pushed each analysis
	// separately. The number stays reserved, and the push is acknowledged
	// and its blob ignored, since OpReplicate carries the same structure.
	OpReplicateAnalysis Op = 9

	// OpMembership is the cluster heartbeat and view exchange: the sender's
	// membership epoch and member list ride in Epoch/Members (with Addr
	// naming the sender), the receiver merges them into its own view and
	// answers with the merged epoch and member list. Join/Leave mark the
	// request as an explicit intent: add (or remove) Addr and bump the
	// epoch, whatever the sender's epoch says — this is what lets a
	// fresh low-epoch joiner enter a long-running ring. Additive: a
	// standalone server (no cluster hooks) answers it with a typed error.
	OpMembership Op = 10

	// OpManifest asks for the receiver's handle manifest — one entry per
	// live factorization (handle id, structure key, values-epoch). The
	// anti-entropy repair sweep diffs manifests against ring placement to
	// find missing, stale, or stray copies.
	OpManifest Op = 11
)

// Idempotent reports whether repeating the operation after an ambiguous
// transport failure is safe: executing it twice yields the same server state
// and the same answer. Factorize is excluded (each execution allocates a new
// handle) and so is Free (a repeat answers "unknown handle"). The client's
// retry policy and its stale-connection redial consult this — a shed
// (CodeOverloaded) is retry-safe for every op because the server guarantees a
// shed request never executed.
func (o Op) Idempotent() bool {
	switch o {
	case OpPing, OpStats, OpSolve, OpSolveMany, OpRefactorize, OpReplicate, OpReplicateAnalysis,
		OpMembership, OpManifest:
		return true
	}
	return false
}

// String names the operation for logs and reports.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpFactorize:
		return "factorize"
	case OpRefactorize:
		return "refactorize"
	case OpSolve:
		return "solve"
	case OpFree:
		return "free"
	case OpStats:
		return "stats"
	case OpSolveMany:
		return "solve-many"
	case OpReplicate:
		return "replicate"
	case OpReplicateAnalysis:
		return "replicate-analysis"
	case OpMembership:
		return "membership"
	case OpManifest:
		return "manifest"
	}
	return "unknown"
}

// Request is the client-to-server message. Which fields are meaningful
// depends on Op; unused fields stay zero and cost nothing on the wire.
type Request struct {
	Op Op

	// OpFactorize: the matrix and analysis options. Also accepted by
	// OpRefactorize as the full-matrix form; OpReplicate carries the
	// handle's pattern and options in them.
	Matrix *sstar.Matrix
	Opts   sstar.Options

	// OpRefactorize, OpSolve, OpFree: the target factorization.
	Handle uint64

	// OpRefactorize values-only fast path: new values for the handle's
	// pattern, in the same CSR entry order as the originally submitted
	// matrix. Ignored when Matrix is set.
	Values []float64

	// OpSolve: the right-hand side.
	B []float64

	// TimeoutNs is the request's deadline header: the client's remaining
	// time budget, in nanoseconds, measured at send time (relative, so no
	// clock synchronization is assumed). Zero means no deadline. The server
	// sheds the request with CodeOverloaded instead of running it when its
	// queue wait alone would exceed the budget — work that cannot finish in
	// time is refused early rather than executed late.
	TimeoutNs int64

	// Key is the structure key of the handle's matrix, stamped on handle
	// operations (solve, refactorize, free) by topology-aware clients. A
	// cluster shard that holds neither the handle nor a replica uses it to
	// answer CodeNotOwner with the owning shard's address instead of the
	// less actionable CodeBadHandle. Zero means no hint.
	Key uint64

	// NRHS is the column count of OpSolveMany's B (len(B) = N*NRHS,
	// column-major).
	NRHS int

	// Blob carries the replication payload of OpReplicate: a factorization
	// in the sstar Save format, or in the SaveValues format when Matrix is
	// nil (a values push). Matrix carries the retained CSR pattern (values
	// unused), Opts the options it was analyzed with, and Handle/Key the
	// identity the replica installs under.
	Blob []byte

	// Epoch and Members carry the sender's membership view on
	// OpMembership. Additive gob fields: peers that predate them decode
	// zero values, which merge as "no information".
	Epoch   uint64
	Members []string

	// Addr is the sender's advertised address on OpMembership — the
	// identity heartbeats ack under and the member a Join/Leave intent
	// adds or removes.
	Addr string

	// Join and Leave mark an OpMembership request as an explicit
	// membership intent for Addr rather than a plain view exchange.
	Join  bool
	Leave bool

	// ValEpoch is the values-epoch of an OpReplicate push: a per-handle
	// counter starting at 1 on factorize and incremented on every
	// refactorize. A receiver holding a strictly newer values-epoch for
	// the handle ignores the push (answering success), so a delayed
	// replication message can never roll factors back. Zero (an old peer)
	// is treated as 1.
	ValEpoch uint64
}

// ManifestEntry describes one live factorization in a shard's manifest: the
// identity the repair sweep needs to decide whether a copy is missing, stale,
// or stray — never the factors themselves.
type ManifestEntry struct {
	Handle   uint64
	Key      uint64 // structure key (ring placement input)
	ValEpoch uint64 // values-epoch of the installed factors
}

// RequestStats is the per-request cost split the server reports with every
// response: where the time went and whether the analysis cache served the
// structure.
type RequestStats struct {
	// QueueNs is the time the request waited for a worker.
	QueueNs int64
	// AnalyzeNs is the analyze-phase time (≈0 on a cache hit, which only
	// pays an exact pattern comparison).
	AnalyzeNs int64
	// FactorNs is the numeric factorization time.
	FactorNs int64
	// SolveNs is the triangular-solve time.
	SolveNs int64
	// CacheHit reports whether OpFactorize found the structure's analysis
	// in the cache.
	CacheHit bool
	// Patched reports that the analysis was derived incrementally from a
	// cached near-miss structure (Analysis.Patch) instead of computed from
	// scratch — a cold key that did not pay a full analyze.
	Patched bool
	// Workers is the server's request-level worker pool size, reported so
	// clients can attribute the cost split: QueueNs grows with
	// Workers too small, FactorNs shrinks with FactorWorkers.
	Workers int
	// FactorWorkers is the goroutine count the numeric factor phase of
	// this request ran with: the server's FactorWorkers cap as the matrix's
	// task grain resolved it, 1 for the sequential driver (meaningful for
	// factorize and refactorize).
	FactorWorkers int
	// BatchWidth is 1 on every answered solve and 0 on other ops: every
	// solve runs alone. The field stays only because the benchmark's
	// server.batch_width_mean averages it; it goes when that metric is
	// retired.
	BatchWidth int
}

// ServerStats is a snapshot of the server's counters.
type ServerStats struct {
	Requests     int64 // requests processed (all ops)
	Errors       int64 // requests answered with an error
	Factorizes   int64
	Refactorizes int64
	Solves       int64
	CacheHits    int64 // analysis cache hits (OpFactorize only)
	CacheMisses  int64
	CacheEntries int // live cached analyses
	Handles      int // live factorization handles
	Workers      int
	// FactorWorkers is the per-request factor-phase goroutine cap — the
	// other half of the Workers × FactorWorkers core split.
	FactorWorkers int
	QueueDepth    int // requests waiting for a worker at snapshot time
	// Sheds counts requests refused by admission control: their queue wait
	// exceeded (or would exceed) the deadline they carried, or the server
	// was shutting down. A shed request was never executed.
	Sheds int64
	// Evictions counts handles removed by the registry's memory budget
	// (LRU) or idle TTL rather than by an explicit Free.
	Evictions int64
	// HandleBytes estimates the memory held by live handles (factor
	// storage plus retained pattern), the quantity the MemBudget bounds.
	HandleBytes int64
	// Coalesced counts factorize requests whose cold analysis was merged
	// into a concurrent identical computation by the singleflight: a
	// thundering herd on a new structure computes the symbolic analysis
	// once, and every other herd member counts here.
	Coalesced int64
	// Patches counts cache misses served by incrementally patching a
	// near-miss cached analysis instead of a full analyze; PatchFallbacks
	// counts near-miss candidates where the incremental path refused (diff
	// over budget, lost diagonal) and a full analyze ran after all.
	Patches        int64
	PatchFallbacks int64

	// Cluster fields — zero on a standalone server. On a shard they
	// describe that shard; on a stats response aggregated by the router
	// they are fleet-wide sums plus the router's own counters.
	//
	// Shards is the cluster size as seen by the reporting process.
	Shards int
	// Redirects counts requests answered with CodeRedirect/CodeNotOwner:
	// work refused because placement says it belongs elsewhere.
	Redirects int64
	// Replications counts pushes acknowledged by the key's other
	// responsible shard: handle copies and forwarded frees.
	Replications int64
	// ReplicationPending is the replication queue depth: writes whose
	// replica the successor has not yet acknowledged (the lag a failover
	// at this instant would expose).
	ReplicationPending int
	// Failovers counts handle operations the router completed on a replica
	// after the owner failed — each one is a solve that survived a shard
	// death without refactorizing.
	Failovers int64

	// Self-healing membership fields — zero on a standalone server and on
	// fleets predating dynamic membership.
	//
	// Epoch is the membership epoch of the reporting shard's ring view
	// (routers report the highest epoch they have seen).
	Epoch uint64
	// RepairPushes counts factor copies the anti-entropy sweep pushed to
	// restore placement (missing or stale copies on the responsible
	// shards, strays returned to their owner).
	RepairPushes int64
	// RepairDrops counts stray handles the sweep released after their
	// copies were confirmed on the responsible shards twice in a row.
	RepairDrops int64
	// StaleReplicas counts replication pushes refused because the
	// receiver already held a strictly newer values-epoch for the handle.
	StaleReplicas int64
}

// HitRate returns the analysis-cache hit rate in [0,1], 0 when no factorize
// request has been seen.
func (s ServerStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Code classifies a failed Response so clients can branch on the failure
// class (retry, re-factorize, give up) without parsing the message string.
// CodeNone marks both successes and legacy/uncategorized errors.
type Code uint8

// Failure classes of the service protocol.
const (
	CodeNone       Code = 0 // success, or an error with no class (message only)
	CodeSingular   Code = 1 // the submitted values are numerically singular
	CodeBadHandle  Code = 2 // unknown handle: never created, freed, or a pre-restart handle
	CodeOverloaded Code = 3 // shed before execution (deadline would expire in queue, or shutdown)
	CodeEvicted    Code = 4 // handle evicted by the memory budget or TTL; factors are gone
	CodeInternal   Code = 5 // recovered panic inside the server

	// CodeRedirect: a factorize reached a shard that does not own the
	// structure. Never executed; Response.Addr names the owner. Clients
	// re-send there (retry-with-new-target, not a failure).
	CodeRedirect Code = 6
	// CodeNotOwner: a handle operation reached a shard holding neither the
	// handle nor a replica. Never executed; Response.Addr names the owner
	// when the request carried a structure key.
	CodeNotOwner Code = 7
	// CodeAmbiguous: a non-idempotent request was delivered to a shard but
	// the connection died before the answer — the operation may or may not
	// have executed. Stamped only by the router (a server always knows its
	// own outcome); never safe to retry blindly.
	CodeAmbiguous Code = 8
)

// Sentinel returns the root-package sentinel error of the code, nil for
// CodeNone or an unknown code.
func (c Code) Sentinel() error {
	switch c {
	case CodeSingular:
		return sstar.ErrSingular
	case CodeBadHandle:
		return sstar.ErrBadHandle
	case CodeOverloaded:
		return sstar.ErrOverloaded
	case CodeEvicted:
		return sstar.ErrHandleEvicted
	case CodeInternal:
		return sstar.ErrInternal
	case CodeRedirect:
		return sstar.ErrRedirect
	case CodeNotOwner:
		return sstar.ErrNotOwner
	case CodeAmbiguous:
		return sstar.ErrAmbiguous
	}
	return nil
}

// String names the code for logs.
func (c Code) String() string {
	switch c {
	case CodeNone:
		return "none"
	case CodeSingular:
		return "singular"
	case CodeBadHandle:
		return "bad-handle"
	case CodeOverloaded:
		return "overloaded"
	case CodeEvicted:
		return "evicted"
	case CodeInternal:
		return "internal"
	case CodeRedirect:
		return "redirect"
	case CodeNotOwner:
		return "not-owner"
	case CodeAmbiguous:
		return "ambiguous"
	}
	return "unknown"
}

// CodeOf classifies an error by unwrapping to the root-package sentinels —
// the inverse of Code.Sentinel, applied by the server when it builds an error
// response.
func CodeOf(err error) Code {
	switch {
	case err == nil:
		return CodeNone
	case errors.Is(err, sstar.ErrSingular):
		return CodeSingular
	case errors.Is(err, sstar.ErrBadHandle):
		return CodeBadHandle
	case errors.Is(err, sstar.ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, sstar.ErrHandleEvicted):
		return CodeEvicted
	case errors.Is(err, sstar.ErrInternal):
		return CodeInternal
	case errors.Is(err, sstar.ErrRedirect):
		return CodeRedirect
	case errors.Is(err, sstar.ErrNotOwner):
		return CodeNotOwner
	case errors.Is(err, sstar.ErrAmbiguous):
		return CodeAmbiguous
	}
	return CodeNone
}

// RemoteError is a failed Response rehydrated on the client side: the
// server's message verbatim plus its failure class. errors.Is matches it
// against the root-package sentinel of its code, so a remote singular matrix
// satisfies errors.Is(err, sstar.ErrSingular) exactly like a local one.
type RemoteError struct {
	Code Code
	Msg  string
}

// Error returns the server's message.
func (e *RemoteError) Error() string { return e.Msg }

// Is reports whether target is the sentinel of the error's code.
func (e *RemoteError) Is(target error) bool {
	s := e.Code.Sentinel()
	return s != nil && target == s
}

// Response is the server-to-client message. A non-empty Err means the
// request failed; every other field is op-dependent. The cluster fields
// (Addr, Key) are additive gob fields, so v2-frame clients that predate them
// decode responses unchanged — backward compatibility is what lets a mixed
// fleet upgrade shard by shard. Removed fields are harmless in both
// directions: gob skips a field the receiver lacks and leaves one the sender
// lacks at zero.
type Response struct {
	Err    string
	Code   Code         // failure class of Err (CodeNone for legacy/uncategorized errors)
	Handle uint64       // OpFactorize: the new handle
	N      int          // OpFactorize: matrix order (client-side convenience)
	Nnz    int          // OpFactorize: pattern nonzeros (= required Values length for the fast path)
	X      []float64    // OpSolve/OpSolveMany: the solution(s)
	Stats  RequestStats // cost split of this request
	Server ServerStats  // OpStats

	// Addr is cluster placement: on a CodeRedirect/CodeNotOwner failure,
	// the shard that owns the structure/handle; on a successful factorize
	// from a cluster shard, the advertised address of the shard that now
	// holds the factors — clients go shard-direct from then on.
	Addr string
	// Key is the structure key of a successful factorize, stamped so
	// clients can hint later handle operations (Request.Key) and routers
	// can place without re-hashing.
	Key uint64

	// Epoch is the responder's membership epoch, stamped on OpMembership
	// answers and on redirect refusals (CodeRedirect/CodeNotOwner) so
	// routers and clients can tell a placement disagreement caused by a
	// membership change from a genuine misroute — and refresh their ring
	// instead of failing over blindly. Additive gob field.
	Epoch uint64
	// Members is the responder's member list on OpMembership.
	Members []string
	// Manifest is the responder's handle manifest on OpManifest.
	Manifest []ManifestEntry
	// ValEpoch is, on a solve reply, the values-epoch of the factors X was
	// computed from (read under the same lock as the solve). Today's router
	// sends each SolveMany to one holder, but an older router in a
	// mixed-version fleet still splits a wide panel over two holders and
	// gathers only halves that report the same epoch, so the field stays.
	// Additive gob field: zero from servers predating it.
	ValEpoch uint64
}

// Error returns the response's failure as a *RemoteError, nil on success.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	return &RemoteError{Code: r.Code, Msg: r.Err}
}
