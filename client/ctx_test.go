package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/server"
	"sstar/internal/wire"
)

// startSilentServer accepts connections and completes the protocol
// handshake, then reads requests and never answers — the worst case a
// deadline must cut through.
func startSilentServer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				var hello server.Hello
				if err := wire.ReadGob(conn, server.FrameHello, 1<<16, &hello); err != nil {
					return
				}
				if err := wire.WriteGob(conn, server.FrameHello, server.Hello{Magic: server.ProtoMagic, Version: server.ProtoVersion}); err != nil {
					return
				}
				// Swallow requests forever.
				for {
					req := new(server.Request)
					if err := wire.ReadGob(conn, server.FrameRequest, 1<<30, req); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// TestCtxDeadlineCutsStalledRequest: a deadline must unblock a round trip
// stuck on a server that never answers, promptly and with the context's
// error.
func TestCtxDeadlineCutsStalledRequest(t *testing.T) {
	addr := startSilentServer(t)
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err = c.Ping(ctx)
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("ping against a silent server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to cut the request", elapsed)
	}
	m := c.Metrics()
	if m.Canceled != 1 {
		t.Fatalf("Canceled = %d, want 1 (metrics %+v)", m.Canceled, m)
	}
}

// lateCtx has a deadline but a Done channel that never closes and an Err that
// stays nil: the view a round trip has of its context when the socket's
// deadline fires before the context's own timer.
type lateCtx struct {
	context.Context
	deadline time.Time
}

func (c lateCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c lateCtx) Done() <-chan struct{}       { return make(chan struct{}) }

// TestCtxDeadlineFiresOnSocketFirst: the socket deadline and the context's
// timer are armed for the same instant; when the socket wins, the i/o timeout
// is still the context's deadline — not a transport failure to retry or
// redial past it.
func TestCtxDeadlineFiresOnSocketFirst(t *testing.T) {
	addr := startSilentServer(t)
	c, err := client.Dial("tcp", addr, client.WithRetry(client.RetryPolicy{MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := lateCtx{Context: context.Background(), deadline: time.Now().Add(30 * time.Millisecond)}
	err = c.Ping(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want context.DeadlineExceeded", err)
	}
	if m := c.Metrics(); m.Canceled != 1 || m.Retries != 0 || m.Redials != 0 {
		t.Fatalf("Canceled/Retries/Redials = %d/%d/%d, want 1/0/0", m.Canceled, m.Retries, m.Redials)
	}
}

// TestCtxCancelMidFlight: an asynchronous cancel (no deadline on the
// connection at all) must also unblock a stalled round trip.
func TestCtxCancelMidFlight(t *testing.T) {
	addr := startSilentServer(t)
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if err := c.Ping(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestCtxAlreadyCanceled: a dead context fails before any I/O happens.
func TestCtxAlreadyCanceled(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 1})
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Ping(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestCtxRoundTripsAndClientMetrics: the context-first methods work end to
// end against a real server, a generous deadline never interferes, and the
// client's own counters add up.
func TestCtxRoundTripsAndClientMetrics(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 2})
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a := sstar.GenGrid2D(7, 7, false, sstar.GenOptions{Seed: 21})
	h, st, err := c.Factorize(ctx, a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("first factorize hit the cache")
	}
	b := make([]float64, a.N)
	b[0] = 1
	x, _, err := h.Solve(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := sstar.Residual(a, x, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
	vals := append([]float64(nil), a.Val...)
	for i := range vals {
		vals[i] *= 3
	}
	if _, err := h.Refactorize(ctx, vals); err != nil {
		t.Fatal(err)
	}
	a2 := a.Clone()
	copy(a2.Val, vals)
	if _, err := h.RefactorizeMatrix(ctx, a2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(ctx); err != nil {
		t.Fatal(err)
	}

	m := c.Metrics()
	if m.Requests != 6 {
		t.Fatalf("Requests = %d, want 6 (metrics %+v)", m.Requests, m)
	}
	if m.Errors != 0 || m.Canceled != 0 {
		t.Fatalf("unexpected failures in %+v", m)
	}
	if m.Dials < 1 {
		t.Fatalf("Dials = %d, want >= 1", m.Dials)
	}
	if m.Reused < 5 {
		t.Fatalf("Reused = %d, want >= 5 (sequential requests share one pooled connection)", m.Reused)
	}
}

// TestCtxObserverStrippedBeforeWire: a non-nil Options.Observer must not
// reach gob encoding (it would fail: the interface type is unregistered) —
// FactorizeCtx strips it.
func TestCtxObserverStrippedBeforeWire(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 1})
	c, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o := sstar.DefaultOptions()
	o.Observer = sstar.NewTrace(0)
	a := sstar.GenGrid2D(6, 6, false, sstar.GenOptions{Seed: 22})
	h, _, err := c.Factorize(context.Background(), a, o)
	if err != nil {
		t.Fatalf("factorize with local observer failed: %v", err)
	}
	h.Free(context.Background())
}
