package client

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sstar"
	"sstar/internal/server"
	"sstar/internal/wire"
)

// stubServer speaks the service protocol with scripted answers: handler is
// called with the 0-based connection and request index and returns the
// response, plus whether to drop the connection afterwards (or instead of
// answering, when resp is nil). It exists to script failure sequences a real
// server produces only under load or restarts.
type stubServer struct {
	l     net.Listener
	conns atomic.Int64
}

func newStubServer(t *testing.T, handler func(conn, req int, r *server.Request) (resp *server.Response, drop bool)) *stubServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := &stubServer{l: l}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			connID := int(st.conns.Add(1)) - 1
			go func() {
				defer c.Close()
				var hello server.Hello
				if err := wire.ReadGob(c, server.FrameHello, 1<<16, &hello); err != nil {
					return
				}
				if err := wire.WriteGob(c, server.FrameHello, server.Hello{Magic: server.ProtoMagic, Version: server.ProtoVersion}); err != nil {
					return
				}
				for reqID := 0; ; reqID++ {
					req := new(server.Request)
					if err := wire.ReadGob(c, server.FrameRequest, wire.DefaultMaxPayload, req); err != nil {
						return
					}
					resp, drop := handler(connID, reqID, req)
					if resp != nil {
						if err := wire.WriteGob(c, server.FrameResponse, resp); err != nil {
							return
						}
					}
					if drop {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return st
}

func (s *stubServer) addr() string { return s.l.Addr().String() }

// newSilentPeer accepts connections and never writes a byte: a peer wedged
// before its Hello, which only a deadline on the handshake gets past.
func newSilentPeer(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() { <-done; c.Close() }()
		}
	}()
	return l.Addr().String()
}

// TestDialTimeoutBoundsHandshake: the dial timeout covers the Hello exchange,
// not just the TCP connect — a peer that accepts and then says nothing fails
// Dial promptly instead of hanging it.
func TestDialTimeoutBoundsHandshake(t *testing.T) {
	addr := newSilentPeer(t)
	t0 := time.Now()
	c, err := Dial("tcp", addr, WithDialTimeout(200*time.Millisecond))
	if err == nil {
		c.Close()
		t.Fatal("Dial to a peer that never answers Hello succeeded")
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("Dial took %v to give up on a silent peer, want about the 200ms dial timeout", el)
	}
}

func shedResponse() *server.Response {
	return &server.Response{Err: "stub: overloaded", Code: server.CodeOverloaded}
}

// TestRetryOnShedThenSuccess: a typed shed is retried (for any op) and the
// retry/shed counters record the episode.
func TestRetryOnShedThenSuccess(t *testing.T) {
	var answered atomic.Int64
	st := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		if answered.Add(1) <= 2 {
			return shedResponse(), false
		}
		return &server.Response{}, false
	})
	c, err := Dial("tcp", st.addr(), WithRetry(RetryPolicy{MaxRetries: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping through two sheds: %v", err)
	}
	m := c.Metrics()
	if m.Retries != 2 || m.Sheds != 2 || m.Errors != 0 {
		t.Fatalf("metrics %+v, want 2 retries, 2 sheds, 0 errors", m)
	}
}

// TestNoRetryOnTypedFailure: a singular matrix is a fact about the input, not
// the infrastructure — retrying cannot help and must not happen.
func TestNoRetryOnTypedFailure(t *testing.T) {
	var answered atomic.Int64
	st := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		answered.Add(1)
		return &server.Response{Err: "stub: matrix is numerically singular", Code: server.CodeSingular}, false
	})
	c, err := Dial("tcp", st.addr(), WithRetry(RetryPolicy{MaxRetries: 5, BaseBackoff: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := sstar.GenGrid2D(3, 3, false, sstar.GenOptions{Seed: 1})
	_, _, ferr := c.Factorize(context.Background(), a, sstar.DefaultOptions())
	if !errors.Is(ferr, sstar.ErrSingular) {
		t.Fatalf("errors.Is(ErrSingular) false for %v", ferr)
	}
	var re *RemoteError
	if !errors.As(ferr, &re) || re.Code != server.CodeSingular {
		t.Fatalf("remote error not surfaced typed: %v", ferr)
	}
	if n := answered.Load(); n != 1 {
		t.Fatalf("server answered %d times: a typed singular error was retried", n)
	}
	if m := c.Metrics(); m.Retries != 0 || m.Errors != 1 {
		t.Fatalf("metrics %+v, want 0 retries, 1 error", m)
	}
}

// TestStaleConnRedialIdempotent: a pooled connection that died behind the
// client's back (server restart, middlebox timeout) is replaced by one
// transparent redial for an idempotent op — no error reaches the caller, and
// no retry policy is needed for it.
func TestStaleConnRedialIdempotent(t *testing.T) {
	st := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		// Connection 0 (the Dial handshake conn) dies on its first request,
		// after it was pooled; later connections behave.
		if conn == 0 {
			return nil, true
		}
		return &server.Response{}, false
	})
	c, err := Dial("tcp", st.addr()) // note: no WithRetry
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping over a stale pooled conn not healed: %v", err)
	}
	m := c.Metrics()
	if m.Redials != 1 {
		t.Fatalf("redials %d, want 1", m.Redials)
	}
	if m.Errors != 0 || m.Retries != 0 {
		t.Fatalf("metrics %+v: redial must not count as error or policy retry", m)
	}
}

// TestStaleConnNoRedialNonIdempotent: the same dead pooled connection under a
// factorize must surface the error — the server may or may not have executed
// the request, and factorize is not safe to repeat blindly.
func TestStaleConnNoRedialNonIdempotent(t *testing.T) {
	var requests atomic.Int64
	st := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		requests.Add(1)
		if conn == 0 {
			return nil, true
		}
		return &server.Response{Handle: 7, N: 9, Nnz: 33}, false
	})
	c, err := Dial("tcp", st.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := sstar.GenGrid2D(3, 3, false, sstar.GenOptions{Seed: 1})
	_, _, ferr := c.Factorize(context.Background(), a, sstar.DefaultOptions())
	if ferr == nil {
		t.Fatal("factorize on a stale conn silently repeated")
	}
	if m := c.Metrics(); m.Redials != 0 {
		t.Fatalf("redials %d, want 0 for a non-idempotent op", m.Redials)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("factorize hit the server %d times", n)
	}
}

// TestRetryBudgetStopsEarly: when the next backoff would overrun the policy
// budget, the client gives up instead of sleeping past it.
func TestRetryBudgetStopsEarly(t *testing.T) {
	var answered atomic.Int64
	st := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		answered.Add(1)
		return shedResponse(), false
	})
	c, err := Dial("tcp", st.addr(), WithRetry(RetryPolicy{
		MaxRetries:  10,
		BaseBackoff: 200 * time.Millisecond,
		Budget:      time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	t0 := time.Now()
	perr := c.Ping(context.Background())
	if !errors.Is(perr, sstar.ErrOverloaded) {
		t.Fatalf("err %v, want ErrOverloaded", perr)
	}
	if el := time.Since(t0); el > 100*time.Millisecond {
		t.Fatalf("budget ignored: call took %v", el)
	}
	if n := answered.Load(); n != 1 {
		t.Fatalf("server answered %d times, want 1 (budget forbids the first backoff)", n)
	}
}

// TestContextCancelStopsRetrying: cancellation wins over the retry policy
// mid-backoff.
func TestContextCancelStopsRetrying(t *testing.T) {
	st := newStubServer(t, func(conn, req int, r *server.Request) (*server.Response, bool) {
		return shedResponse(), false
	})
	c, err := Dial("tcp", st.addr(), WithRetry(RetryPolicy{MaxRetries: 100, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	if err := c.Ping(ctx); err == nil {
		t.Fatal("canceled call succeeded")
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("cancel did not interrupt the retry loop (%v)", el)
	}
}

// TestBackoffBounds: every draw lies in [d/2, d] for the attempt's exponential
// d, capped at MaxBackoff.
func TestBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxRetries: 8, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		d := min(p.BaseBackoff<<attempt, p.MaxBackoff)
		for i := 0; i < 50; i++ {
			got := p.backoff(attempt)
			if got < d/2 || got > d {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
}

// TestRetryableClassification pins the retry-safety table: what may be
// repeated depends on both what failed and what was asked.
func TestRetryableClassification(t *testing.T) {
	shed := &server.RemoteError{Code: server.CodeOverloaded, Msg: "x"}
	singular := &server.RemoteError{Code: server.CodeSingular, Msg: "x"}
	transport := errors.New("read tcp: connection reset by peer")
	cases := []struct {
		op   server.Op
		err  error
		want bool
	}{
		{server.OpFactorize, shed, true}, // shed = never executed: safe for any op
		{server.OpFree, shed, true},
		{server.OpSolve, shed, true},
		{server.OpSolve, singular, false}, // answered: retry cannot change the answer
		{server.OpSolve, transport, true}, // ambiguous, but solve is idempotent
		{server.OpPing, transport, true},
		{server.OpFactorize, transport, false}, // ambiguous and allocates per execution
		{server.OpFree, transport, false},
		{server.OpSolve, context.Canceled, false},
		{server.OpPing, context.DeadlineExceeded, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.op, tc.err); got != tc.want {
			t.Errorf("retryable(%v, %v) = %v, want %v", tc.op, tc.err, got, tc.want)
		}
	}
}
