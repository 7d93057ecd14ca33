package client_test

import (
	"context"
	"net"
	"testing"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/server"
)

func startServer(t *testing.T, cfg server.Config) string {
	t.Helper()
	s := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return l.Addr().String()
}

// TestDialTimeoutNonPositiveIsDefault: a zero or negative dial timeout means
// the 5s default, not an already-expired dial.
func TestDialTimeoutNonPositiveIsDefault(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 1})
	for _, d := range []time.Duration{0, -time.Second} {
		c, err := client.Dial("tcp", addr, client.WithDialTimeout(d))
		if err != nil {
			t.Fatalf("WithDialTimeout(%v): %v", d, err)
		}
		if err := c.Ping(context.Background()); err != nil {
			t.Fatalf("WithDialTimeout(%v): ping: %v", d, err)
		}
		c.Close()
	}
}

func TestDialFailsFast(t *testing.T) {
	// A listener that is immediately closed: Dial must fail eagerly.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	if _, err := client.Dial("tcp", addr); err == nil {
		t.Fatal("Dial to a dead address succeeded")
	}
}

func TestConnectionReuseAndErrorRecovery(t *testing.T) {
	addr := startServer(t, server.Config{Workers: 2})
	c, err := client.Dial("tcp", addr, client.WithMaxIdle(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	a := sstar.GenGrid2D(7, 7, false, sstar.GenOptions{Seed: 4})
	h, _, err := c.Factorize(context.Background(), a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != a.N || h.Nnz() != a.Nnz() || h.ID() == 0 {
		t.Fatalf("handle metadata N=%d nnz=%d id=%d", h.N(), h.Nnz(), h.ID())
	}
	// Many sequential requests over the pooled connection.
	b := make([]float64, a.N)
	b[0] = 1
	for i := 0; i < 20; i++ {
		x, _, err := h.Solve(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		if r := sstar.Residual(a, x, b); r > 1e-9 {
			t.Fatalf("iteration %d residual %g", i, r)
		}
	}
	// An in-band server error must not poison the client.
	if _, _, err := h.Solve(context.Background(), make([]float64, 3)); err == nil {
		t.Fatal("short rhs accepted")
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("client broken after server-side error: %v", err)
	}
	if _, _, err := h.Solve(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.Solve(context.Background(), b); err == nil {
		t.Fatal("solve on freed handle succeeded")
	}

	// Close, then further calls fail cleanly.
	c.Close()
	if err := c.Ping(context.Background()); err == nil {
		t.Fatal("ping on closed client succeeded")
	}
}
