package server

// Tests of the protocol seam itself (transport.go) over loopback: what an
// Endpoint does with a peer that breaks the conversation, and what a Pool
// reports about a peer that fails at each stage of it. The callers' own
// tests (client retry/redirect policy, cluster failover) build on these
// rules without re-deriving them.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sstar/internal/wire"
)

func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestEndpointBrokenConversations: every way a peer can break the protocol
// costs that peer its connection — after the in-band answer, where one is
// owed — and never the endpoint, which keeps serving the next connection.
func TestEndpointBrokenConversations(t *testing.T) {
	ep := NewEndpoint(func(r *Request) *Response { return &Response{Handle: r.Handle} }, nil)
	l := listenLoopback(t)
	go ep.Serve(l)
	defer ep.Close()
	addr := l.Addr().String()

	goodHello := Hello{Magic: ProtoMagic, Version: ProtoVersion}
	cases := []struct {
		name  string
		hello Hello
		// after runs on the raw connection once the endpoint accepted the
		// Hello; it breaks the conversation some way.
		after func(t *testing.T, conn net.Conn)
		// inBand is a substring of the Response the endpoint owes the peer
		// before hanging up ("" = it owes nothing).
		inBand string
	}{
		{name: "wrong magic", hello: Hello{Magic: "not-sstar", Version: ProtoVersion}, inBand: "unsupported protocol"},
		{name: "wrong version", hello: Hello{Magic: ProtoMagic, Version: ProtoVersion + 1}, inBand: "unsupported protocol"},
		{name: "oversized frame", hello: goodHello, after: func(t *testing.T, conn net.Conn) {
			// A frame header promising one byte over the payload cap: the
			// endpoint hangs up before reading, let alone allocating, it.
			hdr := []byte{FrameRequest, 0, 0, 0, 0, 0, 0, 0, 0}
			binary.BigEndian.PutUint32(hdr[1:5], wire.DefaultMaxPayload+1)
			if _, err := conn.Write(hdr); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "closed mid-frame", hello: goodHello, after: func(t *testing.T, conn net.Conn) {
			// A frame header promising 100 payload bytes, then FIN.
			if _, err := conn.Write([]byte{FrameRequest, 0, 0, 0, 100, 0, 0}); err != nil {
				t.Fatal(err)
			}
			conn.(*net.TCPConn).CloseWrite()
		}},
		{name: "wrong frame type", hello: goodHello, after: func(t *testing.T, conn net.Conn) {
			if err := wire.WriteGob(conn, FrameResponse, &Response{}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.WriteGob(conn, FrameHello, tc.hello); err != nil {
				t.Fatal(err)
			}
			if tc.inBand != "" {
				var resp Response
				if err := wire.ReadGob(conn, FrameResponse, 0, &resp); err != nil {
					t.Fatalf("no in-band answer: %v", err)
				}
				if !strings.Contains(resp.Err, tc.inBand) {
					t.Fatalf("in-band answer %q, want it to mention %q", resp.Err, tc.inBand)
				}
			} else {
				if h, err := readHello(conn); err != nil || h.check() != nil {
					t.Fatalf("good hello not answered in kind: %+v, err %v", h, err)
				}
				tc.after(t, conn)
			}
			// The endpoint hangs up without another byte.
			if n, err := conn.Read(make([]byte, 1)); n != 0 || (err != io.EOF && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "reset")) {
				t.Fatalf("connection still open after a protocol error: read %d bytes, err %v", n, err)
			}
			// ...and is none the worse for it.
			var p Pool
			defer p.Close()
			resp, _, err := p.Exchange(context.Background(), addr, &Request{Op: OpPing, Handle: 7})
			if err != nil || resp.Handle != 7 {
				t.Fatalf("endpoint stopped serving after a broken peer: resp %+v err %v", resp, err)
			}
		})
	}
}

// scriptedPeer is a listener whose behaviour at each stage of the
// conversation is picked by mode:
//
//	ok         a well-behaved peer
//	silent     accepts and never writes a byte
//	bad-magic  answers the Hello with another protocol's
//	drop-first connection 0 hangs up on its first request without answering
//	           (a peer restart seen from a pooled connection); later ones are ok
type scriptedPeer struct {
	addr     string
	requests atomic.Int64 // request frames read, all connections
}

func newScriptedPeer(t *testing.T, mode string) *scriptedPeer {
	t.Helper()
	l := listenLoopback(t)
	p := &scriptedPeer{addr: l.Addr().String()}
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for id := 0; ; id++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(id int) {
				defer conn.Close()
				if mode == "silent" {
					<-done
					return
				}
				if _, err := readHello(conn); err != nil {
					return
				}
				if mode == "bad-magic" {
					wire.WriteGob(conn, FrameHello, Hello{Magic: "other-rpc", Version: ProtoVersion})
					return
				}
				if writeHello(conn) != nil {
					return
				}
				for {
					req := new(Request)
					if wire.ReadGob(conn, FrameRequest, 0, req) != nil {
						return
					}
					p.requests.Add(1)
					if mode == "drop-first" && id == 0 {
						return
					}
					if wire.WriteGob(conn, FrameResponse, &Response{Handle: req.Handle}) != nil {
						return
					}
				}
			}(id)
		}
	}()
	return p
}

// TestPoolExchange pins the dialing half of the seam: which failures are
// healed (a stale pooled connection, once, for idempotent ops only), which
// are reported as not delivered (only those before any request byte: dead
// context, closed pool, dial, handshake), and that the handshake is bounded
// by the dial timeout or the context deadline, whichever is sooner.
func TestPoolExchange(t *testing.T) {
	dead := listenLoopback(t)
	deadAddr := dead.Addr().String()
	dead.Close()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name   string
		mode   string // scriptedPeer mode; "" dials deadAddr
		warm   bool   // Connect first, so the exchange starts on a pooled connection
		closed bool   // Close the pool first
		op     Op
		ctx    func() (context.Context, context.CancelFunc)

		wantErr   error // nil = success; errAny = any failure; else errors.Is target
		delivered bool
		stats     poolStats
		requests  int64 // request frames the peer saw
	}{
		{name: "fresh connection", mode: "ok", op: OpPing,
			delivered: true, stats: poolStats{Dials: 1}, requests: 1},
		{name: "pooled connection", mode: "ok", warm: true, op: OpFactorize,
			delivered: true, stats: poolStats{Dials: 1, Reused: 1}, requests: 1},
		{name: "stale pooled, solve: one redial", mode: "drop-first", warm: true, op: OpSolve,
			delivered: true, stats: poolStats{Dials: 2, Reused: 1, Redials: 1}, requests: 2},
		{name: "stale pooled, replicate: one redial", mode: "drop-first", warm: true, op: OpReplicate,
			delivered: true, stats: poolStats{Dials: 2, Reused: 1, Redials: 1}, requests: 2},
		{name: "stale pooled, factorize: no redial", mode: "drop-first", warm: true, op: OpFactorize,
			wantErr: errAny, delivered: true, stats: poolStats{Dials: 1, Reused: 1}, requests: 1},
		{name: "stale pooled, free: no redial", mode: "drop-first", warm: true, op: OpFree,
			wantErr: errAny, delivered: true, stats: poolStats{Dials: 1, Reused: 1}, requests: 1},
		{name: "fresh connection dies: no redial", mode: "drop-first", op: OpSolve,
			wantErr: errAny, delivered: true, stats: poolStats{Dials: 1}, requests: 1},
		{name: "dial refused", op: OpSolve,
			wantErr: errAny, stats: poolStats{Dials: 1}},
		{name: "peer never answers hello: dial timeout", mode: "silent", op: OpSolve,
			wantErr: errAny, stats: poolStats{Dials: 1}},
		{name: "peer never answers hello: context deadline sooner", mode: "silent", op: OpSolve,
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 50*time.Millisecond)
			},
			wantErr: context.DeadlineExceeded, stats: poolStats{Dials: 1}},
		{name: "peer speaks another protocol", mode: "bad-magic", op: OpSolve,
			wantErr: errAny, stats: poolStats{Dials: 1}},
		{name: "dead context", mode: "ok", op: OpSolve,
			ctx:     func() (context.Context, context.CancelFunc) { return canceled, func() {} },
			wantErr: context.Canceled},
		{name: "closed pool", mode: "ok", closed: true, op: OpSolve,
			wantErr: errAny},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := deadAddr
			var peer *scriptedPeer
			if tc.mode != "" {
				peer = newScriptedPeer(t, tc.mode)
				addr = peer.addr
			}
			p := &Pool{DialTimeout: 200 * time.Millisecond}
			defer p.Close()
			if tc.warm {
				if err := p.Connect(context.Background(), addr); err != nil {
					t.Fatal(err)
				}
			}
			if tc.closed {
				p.Close()
			}
			ctx := context.Background()
			if tc.ctx != nil {
				var cancel context.CancelFunc
				ctx, cancel = tc.ctx()
				defer cancel()
			}
			t0 := time.Now()
			resp, delivered, err := p.Exchange(ctx, addr, &Request{Op: tc.op, Handle: 9})
			if el := time.Since(t0); el > 2*time.Second {
				t.Errorf("exchange took %v: a 200ms dial timeout did not bound it", el)
			}
			switch {
			case tc.wantErr == nil:
				if err != nil || resp.Handle != 9 {
					t.Fatalf("resp %+v err %v, want the echo", resp, err)
				}
			case err == nil:
				t.Fatalf("exchange succeeded (resp %+v), want an error", resp)
			case tc.wantErr != errAny && !errors.Is(err, tc.wantErr):
				t.Fatalf("err %v, want %v", err, tc.wantErr)
			}
			if delivered != tc.delivered {
				t.Errorf("delivered = %v, want %v (err %v)", delivered, tc.delivered, err)
			}
			var got poolStats
			got.Dials, got.Reused, got.Redials = p.Stats()
			if got != tc.stats {
				t.Errorf("pool stats %+v, want %+v", got, tc.stats)
			}
			if peer != nil {
				if got := peer.requests.Load(); got != tc.requests {
					t.Errorf("peer saw %d request frames, want %d", got, tc.requests)
				}
			}
		})
	}
}

var errAny = errors.New("any error")

type poolStats struct{ Dials, Reused, Redials int64 }

// TestPoolForwardsDeadlineBudget: a context deadline travels as the request's
// TimeoutNs header; without one, the budget a forwarded request arrived with
// is left alone (the router relays client requests under no context).
func TestPoolForwardsDeadlineBudget(t *testing.T) {
	var seen atomic.Int64
	ep := NewEndpoint(func(r *Request) *Response { seen.Store(r.TimeoutNs); return &Response{} }, nil)
	l := listenLoopback(t)
	go ep.Serve(l)
	defer ep.Close()
	var p Pool
	defer p.Close()

	if _, _, err := p.Exchange(context.Background(), l.Addr().String(), &Request{Op: OpPing, TimeoutNs: 12345}); err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != 12345 {
		t.Errorf("forwarded budget %d, want the 12345 the request carried", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, _, err := p.Exchange(ctx, l.Addr().String(), &Request{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(seen.Load()); got <= 0 || got > time.Minute {
		t.Errorf("deadline header %v, want the context's remaining minute", got)
	}
}
