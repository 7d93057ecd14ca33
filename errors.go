// Sentinel errors of the sstar API. Every factorization entrypoint — the
// in-process Factorize/Refactorize paths and the solver service reached
// through the client package — wraps these, so callers branch on failure
// classes with errors.Is instead of parsing messages:
//
//	_, err := c.Factorize(a, opts)
//	switch {
//	case errors.Is(err, sstar.ErrSingular):      // bad input: do not retry
//	case errors.Is(err, sstar.ErrOverloaded):    // shed before execution: safe to retry
//	case errors.Is(err, sstar.ErrHandleEvicted): // factors gone: factorize again
//	}
//
// The service carries these classes across the wire as a typed code on every
// response (see internal/server.Code), so errors.Is works identically for a
// local Factorize and a remote one.
package sstar

import (
	"errors"

	"sstar/internal/core"
)

var (
	// ErrSingular reports a numerically singular matrix: a pivot search
	// found no nonzero candidate, or a value of the matrix is a NaN or an
	// infinity. The input is the problem — retrying the same values cannot
	// succeed.
	ErrSingular = core.ErrSingular

	// ErrBadHandle reports an operation on a factorization handle the
	// service does not know: never created, already freed, or created by a
	// server instance that has since restarted.
	ErrBadHandle = errors.New("sstar: unknown handle")

	// ErrHandleEvicted reports an operation on a handle the service evicted
	// to stay inside its memory budget or because the handle sat idle past
	// its TTL. The factors are gone; factorize again to continue.
	ErrHandleEvicted = errors.New("sstar: factorization handle evicted")

	// ErrOverloaded reports a request the service shed instead of running:
	// its queue wait would have exceeded the request's deadline, or the
	// server is shutting down. A shed request was never executed, so
	// retrying it (with backoff) is always safe, including for
	// non-idempotent operations.
	ErrOverloaded = errors.New("sstar: service overloaded")

	// ErrInternal reports a request that failed inside the server in an
	// unexpected way (a recovered panic). The request may or may not have
	// taken effect; treat it as not retryable.
	ErrInternal = errors.New("sstar: internal service error")

	// ErrRedirect reports a factorize sent to a cluster shard that does not
	// own the matrix structure. The request was not executed; the response
	// names the owning shard, and topology-aware clients re-send there
	// (the client package follows these transparently).
	ErrRedirect = errors.New("sstar: structure owned by another shard")

	// ErrNotOwner reports a handle operation sent to a cluster shard that
	// holds neither the handle nor a replica of it. The request was not
	// executed; the response names the owning shard when the request
	// carried a structure key.
	ErrNotOwner = errors.New("sstar: handle owned by another shard")

	// ErrAmbiguous reports a non-idempotent operation (factorize, free)
	// whose request was delivered but whose outcome is unknown: the
	// connection died between delivery and response. The operation may or
	// may not have executed — blind retry could double-execute, so the
	// router surfaces this typed class instead of guessing. Callers decide
	// with operation-specific knowledge (a factorize can be re-sent and the
	// server coalesces duplicates by structure key; a free can be verified
	// with a cheap solve probe).
	ErrAmbiguous = errors.New("sstar: ambiguous failure, operation may have executed")

	// ErrRedirectLoop reports a request whose cluster redirects never
	// terminated: shards kept naming each other as owner past the client's
	// hop budget. This is a placement disagreement — typically a membership
	// change mid-flight, or a misconfigured fleet (mismatched vnodes) — not
	// a data error. The client error type (client.RedirectLoopError) carries
	// the hop chain for diagnosis.
	ErrRedirectLoop = errors.New("sstar: redirect loop")
)
