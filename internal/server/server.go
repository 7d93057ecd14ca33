package server

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sstar"
)

// Config tunes a Server. The zero value picks sensible defaults. The
// near-miss re-analysis budget (sstar.DefaultPatchMaxDiff) and the frame
// payload cap (wire.DefaultMaxPayload) are fixed, not settings.
type Config struct {
	// Workers bounds the number of requests factorizing/solving
	// concurrently (default 4). Requests beyond it queue; the queue wait
	// is reported per request.
	Workers int
	// FactorWorkers caps the goroutines each request's numeric factor phase
	// runs with (the analyze phase is sequential) — the knob that splits the
	// machine's cores between request-level parallelism (Workers) and
	// factor-level parallelism. Workers × FactorWorkers should roughly equal
	// the core count: many small independent systems want high Workers and
	// FactorWorkers=1; a few big systems want the opposite. Default:
	// NumCPU()/Workers, floored at 1 (all cores to request-level concurrency
	// when the pool is at least as wide as the machine). The server applies
	// this to every factorize/refactorize as sstar.Options.HostWorkers —
	// clients cannot grab more cores than the split grants — so a matrix
	// whose task grain does not pay for the executor still factors
	// sequentially (RequestStats.FactorWorkers reports the count a request
	// ran with); the factors are bit-identical at any setting.
	FactorWorkers int
	// QueueDepth is the buffered request backlog beyond the workers
	// (default 8*Workers). A full queue applies backpressure to clients.
	QueueDepth int
	// CacheEntries caps the analysis LRU cache (default 64 structures).
	CacheEntries int
	// MemBudget caps the estimated bytes held by live factorization
	// handles (0 = unlimited). When a new handle pushes the total over
	// budget, least-recently-used handles are evicted; operations on an
	// evicted handle fail with ErrHandleEvicted (CodeEvicted).
	MemBudget int64
	// HandleTTL evicts handles idle (no solve/refactorize/lookup) for this
	// long (0 = never). A background sweeper enforces it, so an abandoned
	// handle — a client that died between factorize and free — cannot pin
	// factors forever.
	HandleTTL time.Duration
	// DrainTimeout bounds how long Close waits for in-flight requests to
	// finish before tearing connections down anyway (default 10s).
	DrainTimeout time.Duration
	// Logf, when set, receives one line per connection event and per
	// failed request.
	Logf func(format string, args ...any)
	// Cluster, when set, makes this server one shard of a multi-node
	// cluster (see internal/cluster): requests for structures and handles
	// placed elsewhere are refused with typed redirect codes, and
	// successful factorizes/refactorizes are handed to the hooks for
	// asynchronous replication. Nil keeps the standalone behavior exactly.
	Cluster ClusterHooks
}

// ClusterHooks is the seam between the single-node server and the cluster
// layer (internal/cluster). The server calls these inline on the request
// path, so implementations must be fast and non-blocking — replication work
// is handed off to a queue, never performed in the hook.
type ClusterHooks interface {
	// Route inspects a request before execution. A non-nil response
	// short-circuits the request — the shard answering CodeRedirect or
	// CodeNotOwner for work that placement assigns elsewhere. Nil executes
	// locally.
	Route(req *Request) *Response
	// Self reports the advertised address of this shard, stamped on
	// factorize responses so clients go shard-direct from first contact.
	Self() string
	// Stored is called after a successful factorize or refactorize with
	// the write's identity alone, for asynchronous replication to the
	// successor shard: the cluster layer exports the factors (ExportHandle)
	// when the push leaves, off the request path.
	Stored(ev StoredEvent)
	// Freed is called after every successful free, so the cluster layer
	// can release the other copies of the handle.
	Freed(handle uint64, key uint64)
	// AugmentStats fills the cluster section of a stats snapshot.
	AugmentStats(st *ServerStats)
}

// StoredEvent names one replicable write: the handle and its structure key,
// and whether the write was a refactorize, which changes the handle's values
// and never its structure. It carries no factors; ExportHandle reads them
// when the push is made, so one push carries every write before it.
type StoredEvent struct {
	Handle   uint64
	Key      uint64
	Refactor bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.FactorWorkers < 1 {
		c.FactorWorkers = max(1, runtime.NumCPU()/c.Workers)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 8 * c.Workers
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// job is one queued request. A zero deadline means the request carried no
// time budget and is processed whenever a worker frees up.
type job struct {
	req      *Request
	enqueued time.Time
	deadline time.Time
	done     chan *Response
}

// Server is the sparse-solve service. Create with New, attach listeners
// with Serve (one goroutine per listener), stop with Close.
//
// Shutdown is graceful: Close first refuses new requests (they are answered
// in-band with CodeOverloaded, which retrying clients treat as "try again —
// elsewhere or later"), then waits up to DrainTimeout for every request
// already admitted to finish and have its response written back, and only
// then tears the connections down.
type Server struct {
	cfg   Config
	cache *analysisCache
	reg   *registry
	queue chan *job     // admitted requests waiting for a worker, QueueDepth at most; never closed
	stop  chan struct{} // closed first: gates submissions and the sweeper
	quit  chan struct{} // closed after drain: workers run what is still queued, then exit

	subWg    sync.WaitGroup // submissions past the admission gate
	workerWg sync.WaitGroup // worker pool + sweeper
	ep       *Endpoint      // listeners and connections; answers every request with submit
	met      *metrics

	mu     sync.Mutex
	closed bool // gates submissions (with subWg.Add under the same lock)

	requests          atomic.Int64
	errors            atomic.Int64
	sheds             atomic.Int64
	panics            atomic.Int64 // request handlers recovered from a panic
	factorizes        atomic.Int64
	refactorizes      atomic.Int64
	solves            atomic.Int64
	patches           atomic.Int64
	patchFallbacks    atomic.Int64
	replicasInstalled atomic.Int64
	staleReplicas     atomic.Int64 // replication pushes refused as older than the installed values-epoch
}

// New returns a running server (workers started, no listeners yet).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newAnalysisCache(cfg.CacheEntries),
		reg:   newRegistry(cfg.MemBudget, cfg.HandleTTL),
		queue: make(chan *job, cfg.QueueDepth),
		stop:  make(chan struct{}),
		quit:  make(chan struct{}),
	}
	s.ep = NewEndpoint(s.submit, cfg.Logf)
	s.met = newMetrics(s)
	for i := 0; i < cfg.Workers; i++ {
		s.workerWg.Add(1)
		go s.worker(i)
	}
	if cfg.HandleTTL > 0 {
		s.workerWg.Add(1)
		go s.sweeper()
	}
	return s
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// sweeper enforces the handle TTL in the background, often enough that an
// idle handle outlives its TTL by at most a quarter of it.
func (s *Server) sweeper() {
	defer s.workerWg.Done()
	period := s.cfg.HandleTTL / 4
	period = min(max(period, 10*time.Millisecond), time.Second)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.reg.sweep(); n > 0 {
				s.logf("server: evicted %d idle handles (ttl %v)", n, s.cfg.HandleTTL)
			}
		case <-s.stop:
			return
		}
	}
}

// Serve accepts connections on l until the listener fails or the server is
// closed. It blocks; run it in a goroutine per listener (the server speaks
// the same protocol on every listener, TCP and Unix alike).
func (s *Server) Serve(l net.Listener) error { return s.ep.Serve(l) }

// Close shuts the server down gracefully: stop accepting, refuse new
// requests in-band, drain requests already admitted (bounded by
// DrainTimeout), stop the workers, then close every connection and wait for
// the handlers. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.ep.Stop()
	close(s.stop)

	// Drain: every submission past the admission gate gets its response
	// (workers are still running), bounded by DrainTimeout.
	drained := make(chan struct{})
	go func() {
		s.subWg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(s.cfg.DrainTimeout):
		s.logf("server: drain timeout (%v) — closing with requests in flight", s.cfg.DrainTimeout)
	}

	// The queue channel is never closed: a submitter racing the stop gate
	// may still be selecting on its send, and a send on a closed channel
	// panics even inside a select. Workers exit on quit instead.
	close(s.quit)
	s.workerWg.Wait()
	s.ep.Close()
	return nil
}

// errResponse classifies err against the root-package sentinels and carries
// both the class and the message to the client.
func errResponse(err error) *Response {
	return &Response{Err: err.Error(), Code: CodeOf(err)}
}

// shed refuses a request without executing it, counting it on the shed,
// request and error counters.
func (s *Server) shed(req *Request, queueNs int64, why string) *Response {
	s.sheds.Add(1)
	s.requests.Add(1)
	s.errors.Add(1)
	s.logf("server: shed %s: %s", req.Op, why)
	resp := errResponse(fmt.Errorf("%w: %s", sstar.ErrOverloaded, why))
	resp.Stats.QueueNs = queueNs
	resp.Stats.Workers = s.cfg.Workers
	return resp
}

// submit runs the admission gate, queues the request, and waits for the
// response. Admission control: the send on the queue, QueueDepth jobs deep,
// is the gate — a request carrying a deadline budget is refused (never
// executed late) when no room frees up before the budget runs out, and the
// dequeue side applies the matching check (see run). Requests arriving after
// Close has begun are refused in-band with CodeOverloaded.
func (s *Server) submit(req *Request) *Response {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.shed(req, 0, "server shutting down")
	}
	s.subWg.Add(1)
	s.mu.Unlock()
	defer s.subWg.Done()

	j := &job{req: req, enqueued: time.Now(), done: make(chan *Response, 1)}
	if req.TimeoutNs > 0 {
		j.deadline = j.enqueued.Add(time.Duration(req.TimeoutNs))
	}
	if j.deadline.IsZero() {
		select {
		case s.queue <- j:
		case <-s.stop:
			return s.shed(req, 0, "server shutting down")
		}
	} else {
		t := time.NewTimer(time.Until(j.deadline))
		select {
		case s.queue <- j:
			t.Stop()
		case <-t.C:
			return s.shed(req, time.Since(j.enqueued).Nanoseconds(), "queue full past the request deadline")
		case <-s.stop:
			t.Stop()
			return s.shed(req, 0, "server shutting down")
		}
	}
	// Every queued job is answered: workers keep running until the drain
	// in Close has seen this submission complete.
	return <-j.done
}

// worker runs queued jobs until quit is closed and the queue is empty
// (Close closes quit after the drain), so no admitted request is ever
// dropped.
func (s *Server) worker(id int) {
	defer s.workerWg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(id, j)
		case <-s.quit:
			if len(s.queue) == 0 {
				return
			}
		}
	}
}

// isSolve reports whether op is answered by a triangular solve on a handle.
func isSolve(op Op) bool { return op == OpSolve || op == OpSolveMany }

// run executes one dequeued job. It passes the gates in order — deadline
// shed, cluster routing, then for solves the handle lookup and the length
// check — and every answer but a shed goes through finish. Each path answers
// as its last act, so a panic anywhere below leaves the job unanswered, and
// the recovery answers it: one request may fail, the service keeps serving.
func (s *Server) run(id int, j *job) {
	now := time.Now()
	queueNs := now.Sub(j.enqueued).Nanoseconds()
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			s.logf("server: panic in %s: %v\n%s", j.req.Op, p, debug.Stack())
			s.finish(id, j, errResponse(fmt.Errorf("%w: recovered panic: %v", sstar.ErrInternal, p)),
				queueNs, time.Since(now).Nanoseconds())
		}
	}()
	var h *handle
	var herr error
	if isSolve(j.req.Op) {
		h, herr = s.reg.get(j.req.Handle)
	}
	// The client stopped waiting for a job whose deadline passed while it
	// queued; doing the work would only delay requests that can still meet
	// theirs. shed keeps its own counters and is not observed.
	if !j.deadline.IsZero() && now.After(j.deadline) {
		j.done <- s.shed(j.req, queueNs, fmt.Sprintf("queue wait %v exceeded the request deadline", time.Duration(queueNs)))
		return
	}
	// A refusal's process time runs from the dequeue, so answers the cluster
	// hook gives (membership, manifest, redirects) keep theirs.
	if r := s.gate(j.req, h, herr); r != nil {
		s.finish(id, j, r, queueNs, time.Since(now).Nanoseconds())
		return
	}
	if isSolve(j.req.Op) {
		s.solve(id, j, h, queueNs)
		return
	}
	s.finish(id, j, s.exec(j.req), queueNs, time.Since(now).Nanoseconds())
}

// solve answers a solve that passed run's gates with one SolveMany of the
// request's own right-hand sides, as the client sent them: a plain solve is
// a panel of one column. The reply carries the values-epoch of the factors
// that produced X, and a BatchWidth of 1 (see RequestStats.BatchWidth).
func (s *Server) solve(id int, j *job, h *handle, queueNs int64) {
	nrhs := 1
	if j.req.Op == OpSolveMany {
		nrhs = j.req.NRHS
	}
	t0 := time.Now()
	x, epoch, err := h.solveMany(j.req.B, nrhs)
	solveNs := time.Since(t0).Nanoseconds()
	resp := &Response{Handle: j.req.Handle, X: x, ValEpoch: epoch}
	if err != nil {
		resp = errResponse(err)
	}
	resp.Stats.SolveNs = solveNs
	resp.Stats.BatchWidth = 1
	s.finish(id, j, resp, queueNs, solveNs)
}

// gate is run's check of one job after the deadline shed: cluster routing,
// then for solves the handle lookup (h, herr) and the right-hand side's
// length against the handle's order, each op with its own error text. A
// non-nil response refuses the job.
func (s *Server) gate(req *Request, h *handle, herr error) *Response {
	if hk := s.cfg.Cluster; hk != nil {
		if r := hk.Route(req); r != nil {
			return r
		}
	}
	if !isSolve(req.Op) {
		return nil
	}
	s.solves.Add(1)
	switch {
	case herr != nil:
		return errResponse(herr)
	case req.Op == OpSolve && len(req.B) != h.n:
		return errResponse(fmt.Errorf("sstar: rhs length %d, want %d", len(req.B), h.n))
	case req.Op == OpSolve:
		return nil
	case req.NRHS < 1:
		return &Response{Err: fmt.Sprintf("server: solve-many needs nrhs >= 1, got %d", req.NRHS)}
	case len(req.B) != h.n*req.NRHS:
		return &Response{Err: fmt.Sprintf("server: solve-many rhs length %d, want %d (n=%d x nrhs=%d)", len(req.B), h.n*req.NRHS, h.n, req.NRHS)}
	}
	return nil
}

// finish accounts one job and answers it: the request and error
// counters, a log line on failure, the histogram observation, the reply.
func (s *Server) finish(id int, j *job, resp *Response, queueNs, processNs int64) {
	resp.Stats.QueueNs = queueNs
	resp.Stats.Workers = s.cfg.Workers
	s.requests.Add(1)
	if resp.Err != "" {
		s.errors.Add(1)
		s.logf("server: %s failed (%s): %s", j.req.Op, resp.Code, resp.Err)
	}
	s.met.observe(j.req.Op, id, queueNs, processNs, resp.Stats)
	j.done <- resp
}

// process runs one request through run, bypassing only admission and the
// queue.
func (s *Server) process(req *Request) *Response {
	j := &job{req: req, enqueued: time.Now(), done: make(chan *Response, 1)}
	s.run(0, j)
	return <-j.done
}

// exec executes one non-solve request that passed run's gates.
func (s *Server) exec(req *Request) *Response {
	switch req.Op {
	case OpPing:
		return &Response{}
	case OpFactorize:
		return s.doFactorize(req)
	case OpRefactorize:
		return s.doRefactorize(req)
	case OpFree:
		return s.doFree(req)
	case OpStats:
		return &Response{Server: s.Stats()}
	case OpReplicate:
		return s.doReplicate(req)
	case OpReplicateAnalysis:
		// An older peer still pushes analyses separately: acknowledged so
		// it neither retries nor logs, and ignored — the handle push
		// carries the same structure.
		return &Response{Key: req.Key}
	case OpManifest:
		return &Response{Manifest: s.reg.manifest()}
	case OpMembership:
		// A cluster shard's Route hook answers this in run's gate; reaching
		// here means the process is standalone.
		return &Response{Err: "server: membership exchange requires cluster mode"}
	}
	return &Response{Err: fmt.Sprintf("server: unknown op %d", req.Op)}
}

func (s *Server) doFactorize(req *Request) *Response {
	s.factorizes.Add(1)
	a := req.Matrix
	if a == nil {
		return &Response{Err: "server: factorize needs a matrix"}
	}
	// Outside input: a malformed matrix is refused here, before the cache's
	// pattern sketch or the analysis indexes into it.
	if err := a.Validate(); err != nil {
		return errResponse(err)
	}
	var stats RequestStats
	opts := s.normalize(req.Opts)
	key := sstar.StructureKey(a, opts)
	t0 := time.Now()
	// Singleflight on the cold analysis: a thundering herd on a new
	// structure computes the symbolic analysis once; every other herd
	// member waits for the leader's result (and counts as a cache hit —
	// it paid no analyze). Before paying a full analyze, the leader gives
	// the cache a second chance: a near-miss entry (same order and options,
	// similar pattern sketch) is patched incrementally, re-running the
	// symbolic computation only on the changed entries' propagation cone.
	patched := false
	an, hit, computed, err := s.cache.getOrCompute(key, a, opts, func() (*sstar.Analysis, error) {
		if base := s.cache.nearest(a, opts); base != nil {
			an2, info, err := base.Patch(a)
			if err != nil {
				return nil, err
			}
			if info.Patched {
				patched = true
				s.patches.Add(1)
			} else {
				// Patch already fell back to the full analyze
				// internally; an2 is that analysis.
				s.patchFallbacks.Add(1)
			}
			return an2, nil
		}
		return sstar.Analyze(a, opts)
	})
	if err != nil {
		return errResponse(err)
	}
	stats.CacheHit = hit
	stats.Patched = patched
	stats.AnalyzeNs = time.Since(t0).Nanoseconds()
	if computed {
		s.met.observeAnalyze(an.Phases())
	}
	t1 := time.Now()
	f, err := an.FactorizeWith(a)
	if err != nil {
		return errResponse(err)
	}
	stats.FactorNs = time.Since(t1).Nanoseconds()
	stats.FactorWorkers = f.HostWorkers()
	h := &handle{
		f:        f,
		n:        a.N,
		rowPtr:   append([]int(nil), a.RowPtr...),
		colInd:   append([]int(nil), a.ColInd...),
		key:      key,
		opts:     opts,
		valEpoch: 1,
	}
	id := s.reg.add(h)
	resp := &Response{Handle: id, N: a.N, Nnz: len(h.colInd), Key: key, Stats: stats}
	if hk := s.cfg.Cluster; hk != nil {
		resp.Addr = hk.Self()
		hk.Stored(StoredEvent{Handle: id, Key: key})
	}
	return resp
}

// normalize applies server policy to a request's options, so that the
// cache's exact-options check is consistent across clients and peers. The
// core split: the factor phase of every request runs with at most the
// configured FactorWorkers, whatever the client or the pushing peer asked
// for (the key ignores HostWorkers, the numeric phase's cap — parallelism
// never changes the factors). Observers are a local-process concern: they
// cannot travel the wire. The virtual-machine routing knobs are meaningless
// on the service path, which always factors on the host executor (they are
// excluded from the structure key for the same reason).
func (s *Server) normalize(opts sstar.Options) sstar.Options {
	opts.HostWorkers = s.cfg.FactorWorkers
	opts.Observer = nil
	opts.Procs, opts.Machine, opts.Mapping, opts.TraceParallel = 0, "", "", false
	return opts
}

func (s *Server) doRefactorize(req *Request) *Response {
	s.refactorizes.Add(1)
	h, err := s.reg.get(req.Handle)
	if err != nil {
		return errResponse(err)
	}
	m := req.Matrix
	if m == nil {
		// Values-only fast path: rebuild the matrix on the stored pattern.
		if len(req.Values) != len(h.colInd) {
			return &Response{Err: fmt.Sprintf("server: refactorize values length %d, pattern has %d nonzeros", len(req.Values), len(h.colInd))}
		}
		m = &sstar.Matrix{N: h.n, M: h.n, RowPtr: h.rowPtr, ColInd: h.colInd, Val: req.Values}
	}
	var stats RequestStats
	t0 := time.Now()
	h.mu.Lock()
	stats.FactorWorkers = h.f.HostWorkers()
	err = h.f.Refactorize(m)
	if err == nil {
		h.valEpoch++
	}
	h.mu.Unlock()
	stats.FactorNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return errResponse(err)
	}
	if hk := s.cfg.Cluster; hk != nil {
		hk.Stored(StoredEvent{Handle: req.Handle, Key: h.key, Refactor: true})
	}
	return &Response{Handle: req.Handle, N: h.n, Nnz: len(h.colInd), Key: h.key, Stats: stats}
}

// doReplicate installs (or refreshes) a replica pushed by a peer shard under
// the id the owner allocated, so a failover solve addresses the same handle
// here. A full push (the pattern in Matrix, the factors in the Save format)
// is loaded back into a live factorization; Load verifies every frame
// checksum, so a blob corrupted in flight is refused and the pusher retries.
// Its symbolic structure also becomes the analysis-cache entry for the pushed
// key, unless one with the same options is cached, so a factorize of the
// structure here is a cache hit. A push whose key its pattern and options do
// not reproduce (an older peer sends no options) installs the handle alone.
// A values push (no Matrix) is installValues'.
func (s *Server) doReplicate(req *Request) *Response {
	valEpoch := req.ValEpoch
	if valEpoch == 0 {
		valEpoch = 1 // a pre-values-epoch peer
	}
	// Refuse (silently — the push succeeded from the sender's view, it is
	// just obsolete) a push older than what is already installed: a delayed
	// replication message must never roll newer factors back. Equal epochs
	// re-install — the push is idempotent and the bytes identical.
	if have, ok := s.reg.valEpochOf(req.Handle); ok && have > valEpoch {
		s.staleReplicas.Add(1)
		return &Response{Handle: req.Handle}
	}
	if req.Matrix == nil {
		return s.installValues(req, valEpoch)
	}
	f, err := sstar.Load(bytes.NewReader(req.Blob))
	if err != nil {
		return errResponse(fmt.Errorf("server: replicate handle %d: %w", req.Handle, err))
	}
	m := req.Matrix
	if len(m.RowPtr) != m.N+1 {
		return &Response{Err: "server: replicate needs the retained pattern"}
	}
	h := &handle{
		f:        f,
		n:        m.N,
		rowPtr:   m.RowPtr,
		colInd:   m.ColInd,
		key:      req.Key,
		opts:     s.normalize(req.Opts),
		valEpoch: valEpoch,
	}
	s.reg.put(req.Handle, h)
	s.replicasInstalled.Add(1)
	if an, err := sstar.AnalysisOf(f, m, h.opts, req.Key); err == nil {
		s.cache.add(req.Key, an)
	}
	return &Response{Handle: req.Handle, N: m.N, Nnz: len(m.ColInd)}
}

// installValues installs a values push: the factors of a refactorize, in the
// SaveValues format, for a copy this shard already holds. The new copy shares
// the held one's structure, pattern and options; only the values, pivots and
// values-epoch change. A shard that holds no copy under the pushed key, or one
// of another pattern or slab length, answers CodeBadHandle, and the pusher
// sends the full copy instead.
func (s *Server) installValues(req *Request, valEpoch uint64) *Response {
	h, err := s.reg.get(req.Handle)
	if err == nil && h.key != req.Key {
		err = fmt.Errorf("handle %d holds structure %#x, not %#x", req.Handle, h.key, req.Key)
	}
	var f *sstar.Factorization
	if err == nil {
		f, err = h.f.LoadValues(bytes.NewReader(req.Blob))
	}
	if err != nil {
		return &Response{Err: fmt.Sprintf("server: replicate values of handle %d: %v", req.Handle, err), Code: CodeBadHandle}
	}
	s.reg.put(req.Handle, &handle{f: f, n: h.n, rowPtr: h.rowPtr, colInd: h.colInd, key: h.key, opts: h.opts, valEpoch: valEpoch})
	s.replicasInstalled.Add(1)
	return &Response{Handle: req.Handle, N: h.n, Nnz: len(h.colInd)}
}

func (s *Server) doFree(req *Request) *Response {
	var key uint64
	if h, err := s.reg.get(req.Handle); err == nil {
		key = h.key
	}
	if err := s.reg.free(req.Handle); err != nil {
		return errResponse(err)
	}
	if hk := s.cfg.Cluster; hk != nil {
		hk.Freed(req.Handle, key)
	}
	return &Response{}
}

// HasHandle reports whether id is live in the registry (factorized here or
// installed by a push), without disturbing the LRU order. The cluster layer's routing check.
func (s *Server) HasHandle(id uint64) bool { return s.reg.contains(id) }

// Manifest snapshots every live handle's placement identity — the input the
// cluster layer's anti-entropy repair sweep diffs against ring placement.
func (s *Server) Manifest() []ManifestEntry { return s.reg.manifest() }

// ExportHandle builds the OpReplicate push of a live handle's current
// factors; ok is false when the id is not live. The full push carries the
// factors in the Save format with the retained pattern (in Matrix) and the
// normalized options, which make the receiver's copy and its analysis-cache
// entry. With values set it is a values push instead: SaveValues' stream and
// no Matrix, for a receiver that already holds the copy (see installValues).
// Both are bit-exact — the pivot sequence travels with the values — so a
// failover solve on the copy is bit-identical to one on the owner. Factors
// and values-epoch are read together under the handle's read lock, so a
// concurrent refactorize can never yield a torn blob or one under the wrong
// epoch. The cluster layer's replicator calls it as each push leaves, live
// and repair pushes alike.
func (s *Server) ExportHandle(id uint64, values bool) (req *Request, ok bool) {
	h, err := s.reg.get(id)
	if err != nil {
		return nil, false
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	req = &Request{Op: OpReplicate, Handle: id, Key: h.key, ValEpoch: h.valEpoch}
	var buf bytes.Buffer
	if values {
		err = h.f.SaveValues(&buf)
	} else {
		err = h.f.Save(&buf)
		req.Matrix = &sstar.Matrix{N: h.n, M: h.n, RowPtr: h.rowPtr, ColInd: h.colInd}
		req.Opts = h.opts
	}
	if err != nil {
		s.logf("server: serialize handle %d for replication: %v", id, err)
		return nil, false
	}
	req.Blob = buf.Bytes()
	return req, true
}

// DropHandle releases a live handle without a tombstone — the repair sweep
// removing a stray whose copies are confirmed on the responsible shards.
func (s *Server) DropHandle(id uint64) bool { return s.reg.drop(id) }

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	hit, miss, entries := s.cache.counters()
	nHandles, handleBytes, evictions := s.reg.stats()
	st := ServerStats{
		Requests:       s.requests.Load(),
		Errors:         s.errors.Load(),
		Factorizes:     s.factorizes.Load(),
		Refactorizes:   s.refactorizes.Load(),
		Solves:         s.solves.Load(),
		CacheHits:      hit,
		CacheMisses:    miss,
		CacheEntries:   entries,
		Coalesced:      s.cache.coalescedCount(),
		Patches:        s.patches.Load(),
		PatchFallbacks: s.patchFallbacks.Load(),
		Handles:        nHandles,
		Workers:        s.cfg.Workers,
		FactorWorkers:  s.cfg.FactorWorkers,
		QueueDepth:     len(s.queue),
		Sheds:          s.sheds.Load(),
		Evictions:      evictions,
		HandleBytes:    handleBytes,
		StaleReplicas:  s.staleReplicas.Load(),
	}
	if hk := s.cfg.Cluster; hk != nil {
		hk.AugmentStats(&st)
	}
	return st
}
