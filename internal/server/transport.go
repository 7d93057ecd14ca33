package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sstar/internal/wire"
)

// This file is the one place that speaks the service protocol on a socket:
// the Hello exchange, the frame types, the gob codec, connection lifetime and
// pooling. Endpoint is the accepting half (Server and the cluster Router run
// one each), Pool the dialing half (the client, the router's shard links and
// a shard's peer links each hold one). Everything above works in terms of
// *Request and *Response only.

func writeHello(conn net.Conn) error {
	return wire.WriteGob(conn, FrameHello, Hello{Magic: ProtoMagic, Version: ProtoVersion})
}

// readHello reads the peer's Hello. The handshake is read before the peer has
// proven anything, so it gets a far tighter frame bound than a request.
func readHello(conn net.Conn) (h Hello, err error) {
	return h, wire.ReadGob(conn, FrameHello, 1<<16, &h)
}

// check reports whether the peer speaks this protocol.
func (h Hello) check() error {
	if h.Magic != ProtoMagic || h.Version != ProtoVersion {
		return fmt.Errorf("unsupported protocol %q v%d", h.Magic, h.Version)
	}
	return nil
}

// Endpoint accepts connections and runs the conversation on each: Hello
// exchange, then one handle call per request frame, in order. Protocol errors
// (bad magic, corrupt or oversized frames) drop the connection; whatever
// handle returns is answered in-band and the connection lives on — an
// endpoint never dies on bad input.
type Endpoint struct {
	handle func(*Request) *Response
	logf   func(format string, args ...any)

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	stopped   bool
	connWg    sync.WaitGroup
}

// NewEndpoint returns an endpoint answering every request with handle, which
// must not return nil; logf may be nil. An incoming request payload is capped
// at wire.DefaultMaxPayload.
func NewEndpoint(handle func(*Request) *Response, logf func(format string, args ...any)) *Endpoint {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Endpoint{
		handle:    handle,
		logf:      logf,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Serve accepts connections on l until the listener fails or the endpoint is
// stopped. It blocks; run it in a goroutine per listener.
func (e *Endpoint) Serve(l net.Listener) error {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		l.Close()
		return errors.New("server: closed")
	}
	e.listeners[l] = struct{}{}
	e.mu.Unlock()
	for {
		conn, err := l.Accept()
		e.mu.Lock()
		if e.stopped {
			e.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			e.mu.Unlock()
			return err
		}
		e.conns[conn] = struct{}{}
		e.connWg.Add(1)
		e.mu.Unlock()
		go e.serveConn(conn)
	}
}

// Stop closes the listeners and refuses new connections. Connections already
// accepted keep being served, so an owner can drain in-flight work between
// Stop and Close.
func (e *Endpoint) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stopped = true
	for l := range e.listeners {
		l.Close()
	}
}

// Close stops the endpoint, closes every connection and waits for the
// handlers to return. Safe to call more than once.
func (e *Endpoint) Close() {
	e.Stop()
	e.mu.Lock()
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.connWg.Wait()
}

func (e *Endpoint) serveConn(conn net.Conn) {
	defer e.connWg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.conns, conn)
		e.mu.Unlock()
	}()
	hello, err := readHello(conn)
	if err != nil {
		e.logf("server: %s: hello: %v", conn.RemoteAddr(), err)
		return
	}
	if err := hello.check(); err != nil {
		// Answered in-band, in a frame any version of the protocol can read,
		// so the peer learns why it was dropped.
		e.logf("server: %s: %v", conn.RemoteAddr(), err)
		_ = wire.WriteGob(conn, FrameResponse, &Response{Err: "server: " + err.Error()})
		return
	}
	if writeHello(conn) != nil {
		return
	}
	for {
		req := new(Request)
		if wire.ReadGob(conn, FrameRequest, wire.DefaultMaxPayload, req) != nil {
			return // io.EOF here is the clean "peer hung up" path
		}
		if wire.WriteGob(conn, FrameResponse, e.handle(req)) != nil {
			return
		}
	}
}

// Pool is a per-address pool of handshaked connections to service endpoints.
// One Exchange is one request/response round trip; a connection that fails
// any exchange is closed, never pooled. Set the exported fields before first
// use.
type Pool struct {
	Network     string        // dial network ("tcp" when empty)
	MaxIdle     int           // pooled idle connections per address (<= 0 selects 4)
	DialTimeout time.Duration // bounds connect plus handshake (<= 0 selects 5s); a sooner context deadline wins
	CallTimeout time.Duration // bounds a round trip whose context has no sooner deadline (0 = unbounded)

	mu     sync.Mutex
	idle   map[string][]net.Conn
	closed bool

	dials, reused, redials atomic.Int64
}

// Stats reports how the pool used its connections: dials is fresh connections
// attempted (failed ones included), reused is exchanges that started on a
// pooled connection, redials is stale pooled connections replaced
// mid-exchange by a fresh dial.
func (p *Pool) Stats() (dials, reused, redials int64) {
	return p.dials.Load(), p.reused.Load(), p.redials.Load()
}

// bound applies ctx (and limit, when positive) to I/O on conn: the sooner
// deadline is set on the socket, and an asynchronous cancel moves it into
// the past so a blocked Read/Write returns at once. release ends the
// binding and reports whether conn is still clean — false means the cancel
// fired and may be poisoning the deadline concurrently, so conn must not be
// pooled.
func bound(ctx context.Context, conn net.Conn, limit time.Duration) (release func() bool) {
	d, timed := ctx.Deadline()
	if limit > 0 {
		if l := time.Now().Add(limit); !timed || l.Before(d) {
			d, timed = l, true
		}
	}
	if timed {
		conn.SetDeadline(d)
	}
	stop := func() bool { return true }
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	}
	return func() bool {
		if !stop() {
			return false
		}
		if timed {
			conn.SetDeadline(time.Time{})
		}
		return true
	}
}

// ctxCause prefers the context's error over the transport error it caused;
// caused reports which one came back. The socket deadline and the context's
// own timer are armed for the same instant, so when the poller wins the race
// the transport reports a timeout while ctx.Err() is still nil: a timeout on
// a context whose deadline is not in the future is the context's deadline
// all the same.
func ctxCause(ctx context.Context, err error) (_ error, caused bool) {
	if cerr := ctx.Err(); cerr != nil {
		return cerr, true
	}
	if d, ok := ctx.Deadline(); ok && !d.After(time.Now()) && errors.Is(err, os.ErrDeadlineExceeded) {
		return context.DeadlineExceeded, true
	}
	return err, false
}

// dial opens and handshakes a fresh connection to addr, all of it under one
// deadline. A dead, silent or incompatible peer fails here — before any
// request byte was sent — which is what lets callers treat dial errors as
// "definitely not executed".
func (p *Pool) dial(ctx context.Context, addr string) (net.Conn, error) {
	p.dials.Add(1)
	ctx, cancel := context.WithTimeout(ctx, cmp.Or(max(p.DialTimeout, 0), 5*time.Second))
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(ctx, cmp.Or(p.Network, "tcp"), addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	release := bound(ctx, conn, 0)
	if err = writeHello(conn); err == nil {
		var hello Hello
		if hello, err = readHello(conn); err == nil {
			err = hello.check()
		}
	}
	if !release() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		err, _ = ctxCause(ctx, err)
		return nil, fmt.Errorf("transport: handshake %s: %w", addr, err)
	}
	return conn, nil
}

// get pops a pooled connection to addr or dials a new one. A pooled
// connection may have died since it was pooled (a peer restart, an idle
// timeout on a middlebox), which is what Exchange's one redial is for.
func (p *Pool) get(ctx context.Context, addr string) (conn net.Conn, reused bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("transport: %w", err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errors.New("transport: pool closed")
	}
	if conns := p.idle[addr]; len(conns) > 0 {
		conn = conns[len(conns)-1]
		p.idle[addr] = conns[:len(conns)-1]
		p.mu.Unlock()
		p.reused.Add(1)
		return conn, true, nil
	}
	p.mu.Unlock()
	conn, err = p.dial(ctx, addr)
	return conn, false, err
}

// put returns a healthy connection to addr's pool, or closes it beyond
// MaxIdle per address.
func (p *Pool) put(addr string, conn net.Conn) {
	p.mu.Lock()
	if !p.closed && len(p.idle[addr]) < cmp.Or(max(p.MaxIdle, 0), 4) {
		if p.idle == nil {
			p.idle = make(map[string][]net.Conn)
		}
		p.idle[addr] = append(p.idle[addr], conn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	conn.Close()
}

// Connect dials and handshakes one connection to addr and pools it, so a
// wrong address or an incompatible peer fails before the first request.
func (p *Pool) Connect(ctx context.Context, addr string) error {
	conn, err := p.dial(ctx, addr)
	if err == nil {
		p.put(addr, conn)
	}
	return err
}

// Close releases every pooled connection; later exchanges fail. Connections
// checked out by in-flight exchanges are closed when those return.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// Exchange sends req to addr and reads the answer, under ctx: its deadline
// bounds both frames and travels to the peer as the request's TimeoutNs
// budget (a request forwarded under a deadline-less context keeps the budget
// it arrived with), and a cancel unblocks the round trip at once. In-band
// failures come back as a Response with Err set; err is for transport and
// context failures only.
//
// delivered reports whether the request may have reached the peer: false
// only when the failure happened before any request byte was written (dead
// context, closed pool, dial or handshake failure) — callers use it to decide
// whether sending a non-idempotent op elsewhere is safe.
//
// A transport failure on a pooled connection — the stale connection left by
// a peer restart — is healed by one fresh dial for idempotent ops, so a
// restart costs one redial, not an error. Non-idempotent ops surface the
// failure: it is ambiguous about whether the peer executed the request.
func (p *Pool) Exchange(ctx context.Context, addr string, req *Request) (resp *Response, delivered bool, err error) {
	conn, reused, err := p.get(ctx, addr)
	if err != nil {
		return nil, false, err
	}
	resp, stale, err := p.roundTrip(ctx, conn, addr, req)
	if stale && reused && req.Op.Idempotent() {
		p.redials.Add(1)
		if conn, err = p.dial(ctx, addr); err == nil {
			resp, _, err = p.roundTrip(ctx, conn, addr, req)
		}
	}
	return resp, true, err
}

// roundTrip is one wire attempt on conn, which it pools on success and
// closes on failure. stale reports a transport failure the context did not
// cause — on a pooled connection, the mark of one that died while idle.
func (p *Pool) roundTrip(ctx context.Context, conn net.Conn, addr string, req *Request) (_ *Response, stale bool, err error) {
	if d, ok := ctx.Deadline(); ok {
		// Deadline header: the server sheds the request instead of running
		// it when its queue wait alone would exhaust the remaining budget.
		req.TimeoutNs = max(time.Until(d).Nanoseconds(), 1)
	}
	release := bound(ctx, conn, p.CallTimeout)
	op := "send"
	err = wire.WriteGob(conn, FrameRequest, req)
	resp := new(Response)
	if err == nil {
		op = "receive"
		err = wire.ReadGob(conn, FrameResponse, wire.DefaultMaxPayload, resp)
	}
	// The cancel firing after the response landed leaves the result valid
	// and the connection not.
	if clean := release(); err != nil || !clean {
		conn.Close()
	} else {
		p.put(addr, conn)
	}
	if err != nil {
		err, caused := ctxCause(ctx, err)
		return nil, !caused, fmt.Errorf("transport: %s %s: %w", op, addr, err)
	}
	return resp, false, nil
}
