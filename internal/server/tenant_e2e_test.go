package server_test

import (
	"context"
	"net"
	"strings"
	"testing"

	"sstar"
	"sstar/client"
	"sstar/internal/server"
)

// startServerWith is startServer exposing the *Server through out, for tests
// that read server-side state alongside the client view.
func startServerWith(t *testing.T, cfg server.Config, out **server.Server) string {
	t.Helper()
	s := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	*out = s
	return l.Addr().String()
}

// TestClientTenantStamping: WithTenant and ForTenant attribute requests to
// their tenants end to end — the server's per-tenant counters and the
// /metrics exposition both see the split, and the views share one pool.
func TestClientTenantStamping(t *testing.T) {
	var srv *server.Server
	addr := startServerWith(t, server.Config{Workers: 2}, &srv)

	c, err := client.Dial("tcp", addr, client.WithTenant("prod"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	batch := c.ForTenant("batch")

	ctx := context.Background()
	a := sstar.GenGrid2D(8, 8, false, sstar.GenOptions{Seed: 4, Convection: 0.2})
	h, _, err := c.Factorize(ctx, a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i % 5)
	}
	if _, _, err := h.Solve(ctx, b); err != nil {
		t.Fatal(err)
	}
	if err := batch.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if err := batch.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	prod, ok := st.Tenants["prod"]
	if !ok || prod.Requests < 2 {
		t.Fatalf("prod tenant stats %+v (tenants %v)", prod, st.Tenants)
	}
	bt, ok := st.Tenants["batch"]
	if !ok || bt.Requests < 2 {
		t.Fatalf("batch tenant stats %+v", bt)
	}

	// The exposition carries the per-tenant families as labeled series.
	var sb strings.Builder
	srv.Registry().WritePrometheus(&sb)
	text := sb.String()
	for _, want := range []string{
		`sstar_server_tenant_requests_total{tenant="prod"}`,
		`sstar_server_tenant_requests_total{tenant="batch"}`,
		"sstar_server_solve_batch_width",
		"sstar_server_coalesced_solves_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}
