package client

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"sstar"
	"sstar/internal/server"
	"sstar/internal/wire"
)

// clientMetrics is the client's own counter block (see Metrics).
type clientMetrics struct {
	requests  atomic.Int64
	errors    atomic.Int64
	canceled  atomic.Int64
	dials     atomic.Int64
	reused    atomic.Int64
	retries   atomic.Int64
	redials   atomic.Int64
	sheds     atomic.Int64
	redirects atomic.Int64
}

// Metrics is a snapshot of the client's local counters — the client-side
// complement of the server's RequestStats/ServerStats: how many round trips
// this process issued, how they ended, and how well the connection pool is
// reusing connections (Dials much larger than expected means the pool is
// churning: connections poisoned by errors or cancellations, or maxIdle too
// small for the concurrency level). Retries, Redials, and Sheds are the
// resilience counters: how often the retry policy fired, how often a stale
// pooled connection was transparently replaced, and how often the server
// refused work under load.
type Metrics struct {
	Requests int64 // logical calls issued (retries of one call count once)
	Errors   int64 // calls that ultimately failed (transport or in-band server error)
	Canceled int64 // calls ended by context cancellation or deadline
	Dials    int64 // fresh connections dialed (including the eager Dial handshake)
	Reused   int64 // attempts served by a pooled connection
	Retries  int64 // retry attempts made by the retry policy
	Redials  int64 // stale pooled connections replaced mid-call by a fresh dial
	Sheds    int64 // responses answered sstar.ErrOverloaded (request refused, not executed)
	// Redirects counts cluster redirect answers (CodeRedirect/CodeNotOwner)
	// the client followed to a new target mid-call. Each one is a
	// retry-with-new-target, not a failure: the refusing shard never
	// executed the request and named the shard that will.
	Redirects int64
}

// Metrics returns a snapshot of the client's counters. Safe to call
// concurrently with requests.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Requests:  c.met.requests.Load(),
		Errors:    c.met.errors.Load(),
		Canceled:  c.met.canceled.Load(),
		Dials:     c.met.dials.Load(),
		Reused:    c.met.reused.Load(),
		Retries:   c.met.retries.Load(),
		Redials:   c.met.redials.Load(),
		Sheds:     c.met.sheds.Load(),
		Redirects: c.met.redirects.Load(),
	}
}

// maxRedirectFollows bounds how many cluster redirects one logical call
// follows, so a misconfigured fleet (shards pointing at each other) fails
// typed instead of looping. The budget refills when a redirect carries a new
// membership epoch — the fleet changed under the call, so fresh placement
// answers are new information, not evidence of a loop — bounded absolutely
// by maxRedirectChain.
const maxRedirectFollows = 8

// maxRedirectChain is the absolute ceiling on redirects followed by one
// logical call, across every epoch-triggered budget refill. A fleet churning
// faster than a call can chase placement still terminates typed.
const maxRedirectChain = 64

// RedirectLoopError reports a call whose cluster redirects never reached a
// shard willing to execute it: every hop named another owner until the hop
// budget ran out. errors.Is matches it against sstar.ErrRedirectLoop; Hops
// is the address chain the call walked, last entry the target the next hop
// would have visited — the cycle is visible in the repetition.
type RedirectLoopError struct {
	Op   string
	Hops []string
}

// Error names the op and the full hop chain.
func (e *RedirectLoopError) Error() string {
	return fmt.Sprintf("%v: %s gave up after %d redirects: %s",
		sstar.ErrRedirectLoop, e.Op, len(e.Hops)-1, strings.Join(e.Hops, " -> "))
}

// Is matches the sstar.ErrRedirectLoop sentinel.
func (e *RedirectLoopError) Is(target error) bool { return target == sstar.ErrRedirectLoop }

// roundTrip runs one logical call against the primary address.
func (c *Client) roundTrip(ctx context.Context, req *server.Request) (*server.Response, error) {
	resp, _, err := c.roundTripAt(ctx, req, "")
	return resp, err
}

// roundTripAt runs one logical call: attempt at the preferred address (the
// primary when empty), then — under the configured RetryPolicy — retry with
// jittered backoff for exactly the failures that are safe to repeat (see
// RetryPolicy). The context's deadline and cancellation propagate into every
// attempt; the retry loop additionally respects the policy's total time
// budget.
//
// Cluster redirects (CodeRedirect/CodeNotOwner naming the owning shard) are
// followed inline, bounded by maxRedirectFollows, independent of the retry
// policy: the refusing shard guarantees it never executed the request, so
// re-aiming is always safe — it is a retry-with-new-target, not a failure.
// Each policy retry restarts from the primary, so a call preferring a shard
// that has since died falls back to the router (or a redirect) instead of
// hammering the corpse. answeredAt is the address that finally answered.
func (c *Client) roundTripAt(ctx context.Context, req *server.Request, preferred string) (resp *server.Response, answeredAt string, err error) {
	if c.tenant != "" {
		req.Tenant = c.tenant
	}
	c.met.requests.Add(1)
	start := time.Now()
	target := preferred
	if target == "" {
		target = c.addr
	}
	for attempt := 0; ; attempt++ {
		resp, err = c.doRoundTrip(ctx, req, target)
		var hops []string
		budget := maxRedirectFollows
		var epoch uint64
		for err != nil && len(hops) < maxRedirectChain {
			var re *RemoteError
			if !errors.As(err, &re) || (re.Code != server.CodeRedirect && re.Code != server.CodeNotOwner) ||
				resp == nil || resp.Addr == "" || resp.Addr == target {
				break
			}
			if resp.Epoch > epoch {
				if epoch != 0 {
					// The fleet's membership changed mid-call: placement
					// answers computed from the new ring are not loop
					// evidence — start the hop budget over.
					budget = maxRedirectFollows
				}
				epoch = resp.Epoch
			}
			if budget == 0 {
				err = &RedirectLoopError{Op: req.Op.String(), Hops: append(hops, target, resp.Addr)}
				break
			}
			budget--
			c.met.redirects.Add(1)
			hops = append(hops, target)
			target = resp.Addr
			resp, err = c.doRoundTrip(ctx, req, target)
		}
		if err == nil {
			return resp, target, nil
		}
		if errors.Is(err, sstar.ErrOverloaded) {
			c.met.sheds.Add(1)
		}
		if attempt >= c.retry.MaxRetries || !retryable(req.Op, err) {
			break
		}
		d := c.retry.backoff(attempt)
		if c.retry.Budget > 0 && time.Since(start)+d > c.retry.Budget {
			break
		}
		if err := sleepCtx(ctx, d); err != nil {
			break
		}
		c.met.retries.Add(1)
		target = c.addr
	}
	c.met.errors.Add(1)
	if ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) {
		c.met.canceled.Add(1)
	}
	return resp, target, err
}

// doRoundTrip performs one attempt against addr: send the request, read the
// response. A transport failure on a *pooled* connection — the classic
// stale-connection trap after a server restart — is healed transparently for
// idempotent operations: the dead connection is dropped and the attempt
// repeated once on a fresh dial. Non-idempotent operations (factorize, free)
// surface the error instead, because the stale connection's failure mode is
// ambiguous about whether the server executed the request.
func (c *Client) doRoundTrip(ctx context.Context, req *server.Request, addr string) (*server.Response, error) {
	resp, err, failedPooled := c.attempt(ctx, req, addr)
	if failedPooled && req.Op.Idempotent() && ctx.Err() == nil {
		c.met.redials.Add(1)
		resp, err, _ = c.attempt(ctx, req, addr)
	}
	return resp, err
}

// attempt is one wire exchange. failedPooled reports a transport failure on
// a connection that came from the idle pool (never set for in-band server
// errors, context failures, or failures on freshly dialed connections).
func (c *Client) attempt(ctx context.Context, req *server.Request, addr string) (_ *server.Response, err error, failedPooled bool) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("client: %w", err), false
	}
	conn, reused, err := c.get(addr)
	if err != nil {
		return nil, err, false
	}
	// Deadline header: the server sheds the request instead of running it
	// when its queue wait alone would exhaust the remaining budget.
	if d, ok := ctx.Deadline(); ok {
		req.TimeoutNs = max(time.Until(d).Nanoseconds(), 1)
	} else {
		req.TimeoutNs = 0
	}
	// Deadline propagation: the context deadline bounds both frames, and an
	// asynchronous cancel moves the deadline into the past so a blocked
	// Read/Write returns immediately with a timeout.
	var stop func() bool
	if ctx.Done() != nil {
		if d, ok := ctx.Deadline(); ok {
			conn.SetDeadline(d)
		}
		stop = context.AfterFunc(ctx, func() {
			conn.SetDeadline(time.Unix(1, 0))
		})
	}
	// fail ends the attempt on a transport error, preferring the context's
	// error over the transport error it caused. The socket deadline and the
	// context's own timer are armed for the same instant, so when the poller
	// wins the race the transport reports a timeout while ctx.Err() is still
	// nil: a timeout on a context whose deadline is not in the future is the
	// context's deadline all the same. Only a failure the context did not
	// cause can mean a stale pooled connection.
	fail := func(op string, err error) (*server.Response, error, bool) {
		if stop != nil {
			stop()
		}
		conn.Close()
		cerr := ctx.Err()
		if cerr == nil && errors.Is(err, os.ErrDeadlineExceeded) {
			if d, ok := ctx.Deadline(); ok && !d.After(time.Now()) {
				cerr = context.DeadlineExceeded
			}
		}
		if cerr != nil {
			return nil, fmt.Errorf("client: %s: %w", op, cerr), false
		}
		return nil, fmt.Errorf("client: %s: %w", op, err), reused
	}
	if err := wire.WriteGob(conn, server.FrameRequest, req); err != nil {
		return fail("send", err)
	}
	resp := new(server.Response)
	if err := wire.ReadGob(conn, server.FrameResponse, c.maxFrame, resp); err != nil {
		return fail("receive", err)
	}
	if stop != nil {
		if !stop() {
			// The cancel fired after the response landed: the result is
			// valid, but the AfterFunc may be poisoning the deadline
			// concurrently, so the connection cannot be trusted to the pool.
			conn.Close()
		} else {
			conn.SetDeadline(time.Time{})
			c.put(addr, conn)
		}
	} else {
		c.put(addr, conn)
	}
	return resp, resp.Error(), false
}
