package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sstar"
	"sstar/internal/server"
)

// clientMetrics is the client's own counter block (see Metrics); the
// connection counters live in the pool.
type clientMetrics struct {
	requests  atomic.Int64
	errors    atomic.Int64
	canceled  atomic.Int64
	retries   atomic.Int64
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
	dials, reused, redials := c.pool.Stats()
	return Metrics{
		Requests:  c.met.requests.Load(),
		Errors:    c.met.errors.Load(),
		Canceled:  c.met.canceled.Load(),
		Dials:     dials,
		Reused:    reused,
		Retries:   c.met.retries.Load(),
		Redials:   redials,
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

// roundTrip runs one logical call: attempt at the preferred address (the
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
// hammering the corpse.
func (c *Client) roundTrip(ctx context.Context, req *server.Request, preferred string) (resp *server.Response, err error) {
	c.met.requests.Add(1)
	start := time.Now()
	target := preferred
	if target == "" {
		target = c.addr
	}
	for attempt := 0; ; attempt++ {
		resp, err = c.exchange(ctx, req, target)
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
			resp, err = c.exchange(ctx, req, target)
		}
		if err == nil {
			return resp, nil
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
	return resp, err
}

// exchange is one attempt against addr. The pool heals a stale pooled
// connection for idempotent ops on its own (see server.Pool.Exchange); an
// in-band server failure comes back as the response's typed *RemoteError.
func (c *Client) exchange(ctx context.Context, req *server.Request, addr string) (*server.Response, error) {
	resp, _, err := c.pool.Exchange(ctx, addr, req)
	if err != nil {
		return nil, err
	}
	return resp, resp.Error()
}
