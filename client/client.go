// Package client is the Go client of the sstar solver service (cmd/sstar-serve):
// a thin, connection-reusing wrapper around the service's length-prefixed
// binary protocol on TCP or Unix sockets.
//
// A Client is safe for concurrent use; independent requests run over
// independent pooled connections. Every method takes a context first — its
// deadline and cancellation propagate into the framed round trip, and the
// deadline also travels to the server as the request's time budget, so a
// request whose queue wait would blow the deadline is shed with
// sstar.ErrOverloaded instead of executing late. The typical flow mirrors
// the library API:
//
//	c, _ := client.Dial("tcp", "127.0.0.1:7071")
//	h, st, _ := c.Factorize(ctx, a, sstar.DefaultOptions())   // st.CacheHit when the server knew the pattern
//	x, _, _ := h.Solve(ctx, b)
//	_, _ = h.Refactorize(ctx, newValues)                      // values-only fast path, same pattern
//	h.Free(ctx)
//	c.Close()
//
// Client.Metrics reports the client's own request/error/dial counters.
//
// Multi-tenant servers attribute work to tenants for fair-share scheduling
// (see DESIGN.md, "Per-tenant QoS"). Dial with WithTenant to stamp every
// request, or derive a per-tenant view with ForTenant — the view shares the
// connection pool and counters with its parent:
//
//	c, _ := client.Dial("tcp", addr, client.WithTenant("prod"))
//	batch := c.ForTenant("batch")   // same pool, different attribution
//
// Failures are typed: a server-side error arrives as a *RemoteError whose
// class matches the root package's sentinels through errors.Is
// (sstar.ErrSingular, sstar.ErrBadHandle, sstar.ErrOverloaded,
// sstar.ErrHandleEvicted, sstar.ErrInternal). WithRetry adds
// jittered-backoff retries for exactly the failures that are safe to repeat;
// independent of the policy, a pooled connection that turns out to be dead is
// evicted and the operation transparently redialed once (idempotent ops
// only).
package client

import (
	"context"
	"time"

	"sstar"
	"sstar/internal/server"
)

// RequestStats is the server's per-request cost split (queue wait,
// analyze/factor/solve nanoseconds, analysis-cache hit flag).
type RequestStats = server.RequestStats

// ServerStats is a snapshot of the server's counters.
type ServerStats = server.ServerStats

// Option configures a Client.
type Option func(*Client)

// WithMaxIdle caps the pooled idle connections per address; n <= 0 selects
// the default, 4.
func WithMaxIdle(n int) Option { return func(c *Client) { c.pool.MaxIdle = n } }

// WithDialTimeout bounds each dial, handshake included; d <= 0 selects the
// default, 5s.
func WithDialTimeout(d time.Duration) Option { return func(c *Client) { c.pool.DialTimeout = d } }

// WithMaxFrame caps an incoming response frame (default wire.DefaultMaxPayload).
func WithMaxFrame(n int) Option { return func(c *Client) { c.pool.MaxFrame = n } }

// WithRetry makes the client retry failed round trips under p — see
// RetryPolicy for exactly what is safe to retry and why. Without this option
// retries are disabled and every failure surfaces immediately.
func WithRetry(p RetryPolicy) Option { return func(c *Client) { c.retry = p.withDefaults() } }

// WithTenant stamps every request from this client with the tenant name, the
// unit of the server's fair-share scheduling and per-tenant metrics. An
// empty tenant (the default) is admitted under the server's default tenant.
// Old servers ignore the field.
func WithTenant(tenant string) Option { return func(c *Client) { c.tenant = tenant } }

// Client is a connection-pooling client of one solver service — a single
// server, a cluster shard, or a cluster router; the protocol is identical.
// Connections are pooled per address because a cluster answer can redirect
// the client to the shard that owns the work (CodeRedirect/CodeNotOwner):
// the client follows the redirect transparently, dialing and pooling the new
// address alongside the primary (see Metrics.Redirects).
type Client struct {
	addr   string
	retry  RetryPolicy
	tenant string

	// pool and met are shared by every tenant-derived view of this client
	// (ForTenant): the view copies the fields above and aliases these. The
	// pool owns the wire conversation — dialing, handshake, deadlines, the
	// stale-connection redial; the client adds retry, redirect and metrics
	// policy on top.
	pool *server.Pool
	met  *clientMetrics
}

// Dial returns a client for the service at addr ("tcp", "host:port" or
// "unix", "/path/to.sock"). The first connection is established and
// handshaked eagerly so a wrong address or incompatible server fails here,
// not on the first request.
func Dial(network, addr string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, pool: &server.Pool{Network: network}, met: new(clientMetrics)}
	for _, o := range opts {
		o(c)
	}
	if err := c.pool.Connect(context.TODO(), addr); err != nil {
		return nil, err
	}
	return c, nil
}

// ForTenant returns a view of the client that stamps tenant on every request
// it issues. The view shares the connection pool, the metrics counters, and
// the retry policy with its parent; only the attribution differs. Closing
// either closes the shared pool. Handles keep the tenant of the view that
// factorized them.
func (c *Client) ForTenant(tenant string) *Client {
	view := *c
	view.tenant = tenant
	return &view
}

// Close releases every pooled connection, including those of ForTenant views
// (the pool is shared). In-flight requests on checked-out connections
// finish; their connections are then closed on return.
func (c *Client) Close() error {
	c.pool.Close()
	return nil
}

// Ping checks liveness end to end.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, &server.Request{Op: server.OpPing}, "")
	return err
}

// Stats fetches a snapshot of the server's counters.
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	resp, err := c.roundTrip(ctx, &server.Request{Op: server.OpStats}, "")
	if err != nil {
		return ServerStats{}, err
	}
	return resp.Server, nil
}

// Factorize submits a for analysis + factorization and returns a handle to
// the server-side factors; the context's deadline covers the matrix
// transfer, the server-side queue wait and factorization, and the response.
// The analysis is served from the server's structure-keyed cache when a
// matrix with this pattern (and options) has been seen before —
// stats.CacheHit reports which way it went. Options.Observer is a
// local-process hook and is stripped before the options go on the wire (the
// server runs its own instrumentation).
func (c *Client) Factorize(ctx context.Context, a *sstar.Matrix, o sstar.Options) (*Handle, RequestStats, error) {
	o.Observer = nil
	resp, err := c.roundTrip(ctx, &server.Request{Op: server.OpFactorize, Matrix: a, Opts: o}, "")
	if err != nil {
		return nil, RequestStats{}, err
	}
	// resp.Addr/resp.Key are only stamped by cluster shards; against a
	// single server they stay zero and the handle behaves as before.
	return &Handle{c: c, id: resp.Handle, n: resp.N, nnz: resp.Nnz, key: resp.Key, addr: resp.Addr}, resp.Stats, nil
}

// Handle is a live factorization on the server.
type Handle struct {
	c   *Client
	id  uint64
	n   int
	nnz int
	// key is the structure key the server stamped on the factorize
	// response. Handle operations carry it as a placement hint so a cluster
	// shard that doesn't hold the handle can answer with the owner's
	// address (CodeNotOwner + Addr) instead of a bare bad-handle.
	key uint64
	// addr is the shard that executed the factorize (empty outside a
	// cluster): handle operations start there instead of rediscovering the
	// owner through a redirect on every call.
	addr string
}

// ForTenant returns a view of the handle whose operations are attributed to
// tenant — the per-call counterpart of Client.ForTenant. The view targets the
// same server-side factors; only the accounting and fair-share scheduling
// differ.
func (h *Handle) ForTenant(tenant string) *Handle {
	view := *h
	view.c = h.c.ForTenant(tenant)
	return &view
}

// ID returns the server-side handle id.
func (h *Handle) ID() uint64 { return h.id }

// N returns the matrix order.
func (h *Handle) N() int { return h.n }

// Nnz returns the pattern's nonzero count — the required length of a
// Refactorize values slice.
func (h *Handle) Nnz() int { return h.nnz }

// Key returns the structure key the server assigned to the handle's pattern
// (0 when the server predates cluster support).
func (h *Handle) Key() uint64 { return h.key }

// Solve solves A x = b with the handle's current factors.
func (h *Handle) Solve(ctx context.Context, b []float64) ([]float64, RequestStats, error) {
	resp, err := h.c.roundTrip(ctx, &server.Request{Op: server.OpSolve, Handle: h.id, Key: h.key, B: b}, h.addr)
	if err != nil {
		return nil, RequestStats{}, err
	}
	return resp.X, resp.Stats, nil
}

// SolveMany solves NRHS right-hand sides stored column-major in b
// (len(b) = N*nrhs); the solutions come back in the same layout, column j
// bitwise a lone Solve of column j. The server solves the panel as sent;
// a cluster router forwards it whole to one shard holding the factors.
func (h *Handle) SolveMany(ctx context.Context, b []float64, nrhs int) ([]float64, RequestStats, error) {
	resp, err := h.c.roundTrip(ctx, &server.Request{Op: server.OpSolveMany, Handle: h.id, Key: h.key, B: b, NRHS: nrhs}, h.addr)
	if err != nil {
		return nil, RequestStats{}, err
	}
	return resp.X, resp.Stats, nil
}

// Refactorize replaces the handle's factors with a factorization of the same
// pattern carrying new values — the fast path: no structure is re-sent, no
// analysis is re-run. values must list the new entries in the same CSR order
// as the originally submitted matrix (length Nnz).
func (h *Handle) Refactorize(ctx context.Context, values []float64) (RequestStats, error) {
	resp, err := h.c.roundTrip(ctx, &server.Request{Op: server.OpRefactorize, Handle: h.id, Key: h.key, Values: values}, h.addr)
	if err != nil {
		return RequestStats{}, err
	}
	return resp.Stats, nil
}

// RefactorizeMatrix is the full-matrix form of Refactorize for callers that
// hold a CSR anyway; the server rejects a pattern differing from the
// handle's.
func (h *Handle) RefactorizeMatrix(ctx context.Context, a *sstar.Matrix) (RequestStats, error) {
	resp, err := h.c.roundTrip(ctx, &server.Request{Op: server.OpRefactorize, Handle: h.id, Key: h.key, Matrix: a}, h.addr)
	if err != nil {
		return RequestStats{}, err
	}
	return resp.Stats, nil
}

// Free releases the server-side factorization.
func (h *Handle) Free(ctx context.Context) error {
	_, err := h.c.roundTrip(ctx, &server.Request{Op: server.OpFree, Handle: h.id, Key: h.key}, h.addr)
	return err
}
