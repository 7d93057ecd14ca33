package client

// Redirect-following tests against scripted shards: a CodeRedirect /
// CodeNotOwner answer naming another address is a retry-with-new-target the
// client performs inline — invisible to the caller, counted in
// Metrics.Redirects, and bounded so a misconfigured fleet fails typed
// instead of looping.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sstar"
	"sstar/internal/server"
)

// TestRedirectFollowedTransparently: shard A refuses a factorize with the
// owner's address, the client re-aims at B without surfacing an error, and
// subsequent handle ops go straight to B (the learned owner), never back
// through A.
func TestRedirectFollowedTransparently(t *testing.T) {
	var aReqs, bReqs atomic.Int64
	var bAddr atomic.Value // set after B starts; A's script needs it

	b := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		bReqs.Add(1)
		switch r.Op {
		case server.OpFactorize:
			// A real shard stamps its advertised address (Self hook) so
			// the client aims handle ops at the owner directly.
			return &server.Response{Handle: 42, N: 3, Nnz: 5, Key: 0xbeef, Addr: bAddr.Load().(string)}, false
		case server.OpSolve:
			if r.Handle != 42 || r.Key != 0xbeef {
				return &server.Response{Err: "stub: wrong handle/key hint", Code: server.CodeBadHandle}, false
			}
			return &server.Response{X: []float64{1, 2, 3}}, false
		}
		return &server.Response{Err: "stub: unexpected op"}, false
	})
	bAddr.Store(b.addr())
	a := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		aReqs.Add(1)
		return &server.Response{
			Err:  sstar.ErrRedirect.Error(),
			Code: server.CodeRedirect,
			Addr: bAddr.Load().(string),
			Key:  0xbeef,
		}, false
	})

	c, err := Dial("tcp", a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := sstar.GenGrid2D(2, 2, false, sstar.GenOptions{Seed: 1})
	h, _, err := c.Factorize(context.Background(), m, sstar.DefaultOptions())
	if err != nil {
		t.Fatalf("redirected factorize surfaced an error: %v", err)
	}
	if h.ID() != 42 || h.Key() != 0xbeef {
		t.Fatalf("handle = %d key %#x, want 42 / 0xbeef", h.ID(), h.Key())
	}
	if got := c.Metrics().Redirects; got != 1 {
		t.Errorf("Metrics().Redirects = %d, want 1", got)
	}
	if _, _, err := h.Solve(context.Background(), []float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if got := aReqs.Load(); got != 1 {
		t.Errorf("shard A saw %d requests, want only the initial factorize", got)
	}
	if got := bReqs.Load(); got != 2 {
		t.Errorf("shard B saw %d requests, want factorize + solve", got)
	}
}

// TestRedirectPingPongBounded: two shards pointing at each other must yield
// a typed ErrRedirect after a bounded number of hops, not an infinite loop.
func TestRedirectPingPongBounded(t *testing.T) {
	var total atomic.Int64
	var aAddr, bAddr atomic.Value
	redirectTo := func(to *atomic.Value) func(int, int, *server.Request) (*server.Response, bool) {
		return func(conn, req int, r *server.Request) (*server.Response, bool) {
			total.Add(1)
			return &server.Response{
				Err:  sstar.ErrRedirect.Error(),
				Code: server.CodeRedirect,
				Addr: to.Load().(string),
			}, false
		}
	}
	a := newStubServer(t, redirectTo(&bAddr))
	b := newStubServer(t, redirectTo(&aAddr))
	aAddr.Store(a.addr())
	bAddr.Store(b.addr())

	c, err := Dial("tcp", a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := sstar.GenGrid2D(2, 2, false, sstar.GenOptions{Seed: 2})
	_, _, err = c.Factorize(context.Background(), m, sstar.DefaultOptions())
	if !errors.Is(err, sstar.ErrRedirectLoop) {
		t.Fatalf("err = %v, want ErrRedirectLoop after bounded hops", err)
	}
	var loop *RedirectLoopError
	if !errors.As(err, &loop) {
		t.Fatalf("err = %T, want *RedirectLoopError", err)
	}
	if len(loop.Hops) < 2 {
		t.Errorf("RedirectLoopError.Hops = %v, want the traversed chain", loop.Hops)
	}
	if got := total.Load(); got > 16 {
		t.Errorf("ping-pong consumed %d requests — the hop bound did not hold", got)
	}
}

// TestRedirectWithoutAddressIsTerminal: a redirect that names no owner has
// nowhere to send the client; it surfaces as the typed error after one
// request.
func TestRedirectWithoutAddressIsTerminal(t *testing.T) {
	var reqs atomic.Int64
	a := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		reqs.Add(1)
		return &server.Response{Err: sstar.ErrNotOwner.Error(), Code: server.CodeNotOwner}, false
	})
	c, err := Dial("tcp", a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := sstar.GenGrid2D(2, 2, false, sstar.GenOptions{Seed: 3})
	_, _, err = c.Factorize(context.Background(), m, sstar.DefaultOptions())
	if !errors.Is(err, sstar.ErrNotOwner) {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
	if got := reqs.Load(); got != 1 {
		t.Errorf("addressless redirect consumed %d requests, want 1", got)
	}
	if got := c.Metrics().Redirects; got != 0 {
		t.Errorf("Metrics().Redirects = %d, want 0 (nothing was followed)", got)
	}
}

// TestRedirectToSilentPeerHonoursDeadline: the dial a redirect triggers
// mid-call is under the call's deadline like everything else — a redirect
// target that accepts and never answers Hello ends the call with the
// context's error, on time.
func TestRedirectToSilentPeerHonoursDeadline(t *testing.T) {
	silent := newSilentPeer(t)
	a := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		if r.Op == server.OpFactorize {
			return &server.Response{Handle: 42, N: 3, Nnz: 5, Key: 0xbeef}, false
		}
		return &server.Response{Err: sstar.ErrNotOwner.Error(), Code: server.CodeNotOwner, Addr: silent, Key: 0xbeef}, false
	})
	c, err := Dial("tcp", a.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := sstar.GenGrid2D(2, 2, false, sstar.GenOptions{Seed: 4})
	h, _, err := c.Factorize(context.Background(), m, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, _, err = h.Solve(ctx, []float64{1, 2, 3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("solve took %v to honour a 200ms deadline", el)
	}
	if m := c.Metrics(); m.Redirects != 1 || m.Canceled != 1 {
		t.Errorf("metrics %+v, want 1 redirect followed and 1 canceled call", m)
	}
}
