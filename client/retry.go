package client

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"sstar"
	"sstar/internal/server"
)

// RemoteError is a failed response from the service: the server's message
// plus its typed failure class. errors.Is matches it against the root
// package's sentinels (sstar.ErrSingular, sstar.ErrBadHandle,
// sstar.ErrOverloaded, sstar.ErrHandleEvicted, sstar.ErrInternal), so
// callers branch on failure classes identically for local and remote solves.
type RemoteError = server.RemoteError

// Code classifies a RemoteError (see internal/server.Code).
type Code = server.Code

// RetryPolicy makes the client retry failed round trips with exponentially
// growing, jittered backoff. The zero value disables retries (every failure
// surfaces immediately, the pre-existing behavior).
//
// What is retried — both conditions consult what the failure implies about
// server state:
//
//   - A typed shed (sstar.ErrOverloaded) is retried for every operation: the
//     server guarantees a shed request never executed.
//   - A transport failure (reset, torn frame, corrupt response) is retried
//     only for idempotent operations (ping, stats, solve, values-only
//     refactorize): the request may or may not have executed, and only
//     idempotent ops are safe to repeat under that ambiguity. Factorize
//     (allocates a handle per execution) and free are never retried on
//     transport errors.
//   - Typed non-retryable failures (singular matrix, bad handle, evicted
//     handle, internal error) and context cancellation surface immediately.
//   - Cluster redirects (CodeRedirect/CodeNotOwner) never reach the policy:
//     they are followed inline to the shard the response names — a
//     retry-with-new-target, counted in Metrics.Redirects — before retry
//     classification happens, whether or not retries are enabled.
//
// Every retry dials afresh if needed — pooled connections poisoned by the
// failed attempt are never reused.
type RetryPolicy struct {
	// MaxRetries caps the retry attempts after the first try (0 disables
	// retrying).
	MaxRetries int
	// BaseBackoff is the backoff before the first retry (default 10ms when
	// retries are enabled). Attempt k waits ~BaseBackoff<<k, half-to-full
	// jittered.
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff (default 1s).
	MaxBackoff time.Duration
	// Budget caps the total time spent on one logical call across all
	// attempts and backoffs (0 = unlimited; the context deadline still
	// applies either way).
	Budget time.Duration
}

// DefaultRetryPolicy is a sensible production policy: up to 4 retries,
// 10ms..1s jittered exponential backoff, 15s total budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Budget: 15 * time.Second}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRetries > 0 {
		if p.BaseBackoff <= 0 {
			p.BaseBackoff = 10 * time.Millisecond
		}
		if p.MaxBackoff <= 0 {
			p.MaxBackoff = time.Second
		}
	}
	return p
}

// backoff returns the jittered wait before retry attempt (0-based):
// exponential growth capped at MaxBackoff, then uniformly drawn from
// [d/2, d] so synchronized clients spread out.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	d = min(d, p.MaxBackoff)
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// retryable reports whether err may be retried for op under the ambiguity
// rules above.
func retryable(op server.Op, err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		// In-band server answer: the request reached the server and was
		// answered. Only a shed (never executed) is worth repeating.
		// Redirect codes were already followed inline by roundTrip; one
		// surviving to this point carried no usable target, and repeating
		// it at the same address would only be refused again.
		return re.Code == server.CodeOverloaded
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, sstar.ErrRedirectLoop) {
		// The fleet disagrees about placement; restarting the chase from the
		// primary would walk the same loop.
		return false
	}
	// Transport failure: execution state unknown.
	return op.Idempotent()
}

// sleepCtx sleeps d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
