// Package chaos injects transport faults into net connections so the solver
// service's failure paths can be exercised deterministically: injected
// latency, bandwidth caps, fragmented (partial) writes, mid-frame connection
// resets, and byte corruption.
//
// Every fault decision is drawn from a seeded PRNG — one independent stream
// per connection and direction — so a failing run replays with the same seed.
// (Determinism is per I/O stream: goroutine scheduling can still interleave
// connections differently, but each connection sees the same fault sequence
// for the same sequence of reads and writes.)
//
// Proxy is a TCP relay (standalone as cmd/sstar-chaos, in-process in the e2e
// tests) that sits between a real client and a real server, injecting faults
// into the client side of the relay while leaving the upstream dial intact,
// so a server restart behind the proxy is survivable: new connections re-dial
// upstream.
//
// The wire package's CRC-32 framing is the detection counterpart: a corrupted
// byte becomes a checksum error, a truncated frame an io.ErrUnexpectedEOF —
// never silently wrong numbers (see internal/wire).
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every failure manufactured by this package, so tests can
// tell an injected fault from a real one.
var ErrInjected = errors.New("chaos: injected fault")

// Config selects the faults and their rates. The zero value injects nothing
// (a transparent wrapper). Probabilities are per I/O operation in [0,1].
type Config struct {
	// Seed seeds the fault PRNG. Two runs with equal seeds and equal I/O
	// sequences draw identical faults.
	Seed int64
	// Latency delays each I/O operation by a uniform random duration in
	// [0, Latency].
	Latency time.Duration
	// BandwidthBps caps each direction's throughput in bytes per second by
	// sleeping proportionally to the bytes moved (0 = uncapped).
	BandwidthBps int64
	// PartialWrite is the probability a Write is fragmented: the bytes are
	// delivered in several smaller writes with a scheduling pause between
	// them. No data is lost — this exercises readers against fragmented
	// frames.
	PartialWrite float64
	// Reset is the probability an I/O operation tears the connection down
	// mid-frame: a write delivers a random prefix and then the underlying
	// connection is closed; a read fails immediately.
	Reset float64
	// Corrupt is the probability an I/O operation flips one random bit of
	// the payload. The frame CRC must catch every one of these.
	Corrupt float64
}

// Conn wraps a net.Conn with fault injection in both directions. Create with
// WrapConn; safe for one concurrent reader plus one concurrent writer (the
// net.Conn contract).
type Conn struct {
	net.Conn
	cfg Config

	rmu  sync.Mutex // guards rrng and read-side state
	wmu  sync.Mutex // guards wrng and write-side state
	rrng *rand.Rand
	wrng *rand.Rand
}

// WrapConn wraps conn with faults drawn from cfg. streamID differentiates
// the PRNG streams of connections sharing one Config (Proxy uses an accept
// counter).
func WrapConn(conn net.Conn, cfg Config, streamID int64) *Conn {
	// Distinct deterministic streams per connection and direction.
	base := cfg.Seed + 1000003*streamID
	return &Conn{
		Conn: conn,
		cfg:  cfg,
		rrng: rand.New(rand.NewSource(base*2 + 1)),
		wrng: rand.New(rand.NewSource(base*2 + 2)),
	}
}

// delay sleeps for the injected latency and the bandwidth-cap cost of moving
// n bytes.
func (c *Conn) delay(rng *rand.Rand, n int) {
	var d time.Duration
	if c.cfg.Latency > 0 {
		d = time.Duration(rng.Int63n(int64(c.cfg.Latency) + 1))
	}
	if c.cfg.BandwidthBps > 0 {
		d += time.Duration(int64(n) * int64(time.Second) / c.cfg.BandwidthBps)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// hit draws one fault decision.
func hit(rng *rand.Rand, p float64) bool { return p > 0 && rng.Float64() < p }

// corrupt flips one random bit of p in place.
func corrupt(rng *rand.Rand, p []byte) {
	if len(p) == 0 {
		return
	}
	p[rng.Intn(len(p))] ^= 1 << uint(rng.Intn(8))
}

// Read reads from the underlying connection, then applies latency, optional
// corruption of the received bytes, and optional reset.
func (c *Conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	reset := hit(c.rrng, c.cfg.Reset)
	doCorrupt := hit(c.rrng, c.cfg.Corrupt)
	c.rmu.Unlock()
	if reset {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: read reset", ErrInjected)
	}
	n, err := c.Conn.Read(p)
	c.rmu.Lock()
	c.delay(c.rrng, n)
	if doCorrupt && n > 0 {
		corrupt(c.rrng, p[:n])
	}
	c.rmu.Unlock()
	return n, err
}

// Write applies latency and bandwidth cost, then delivers p — possibly
// corrupted by one bit flip, possibly fragmented into several underlying
// writes, or torn by a reset after a random prefix.
func (c *Conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.delay(c.wrng, len(p))
	if hit(c.wrng, c.cfg.Reset) {
		// Mid-frame teardown: deliver a random prefix, then kill the
		// connection. The peer sees a torn frame, never a clean close.
		n := 0
		if len(p) > 0 {
			n, _ = c.Conn.Write(p[:c.wrng.Intn(len(p))])
		}
		c.Conn.Close()
		return n, fmt.Errorf("%w: write reset", ErrInjected)
	}
	if hit(c.wrng, c.cfg.Corrupt) {
		q := append([]byte(nil), p...)
		corrupt(c.wrng, q)
		p = q
	}
	if hit(c.wrng, c.cfg.PartialWrite) && len(p) > 1 {
		written := 0
		for written < len(p) {
			chunk := 1 + c.wrng.Intn(len(p)-written)
			n, err := c.Conn.Write(p[written : written+chunk])
			written += n
			if err != nil {
				return written, err
			}
			// A scheduling pause between fragments, so the reader
			// genuinely observes a partial frame.
			time.Sleep(time.Duration(c.wrng.Intn(200)) * time.Microsecond)
		}
		return written, nil
	}
	return c.Conn.Write(p)
}

// Proxy is a fault-injecting TCP relay: it accepts client connections,
// dials the upstream for each, and pipes bytes both ways through a faulty
// wrapper of the client side. Because every new client connection performs a
// fresh upstream dial, the upstream can restart behind the proxy — exactly
// the failure the retrying client must survive.
type Proxy struct {
	l    net.Listener
	dial func() (net.Conn, error)
	cfg  Config

	seq         atomic.Int64
	closed      atomic.Bool
	partitioned atomic.Bool
	wg          sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewProxy returns a proxy accepting on l and connecting upstream via dial
// (called once per accepted connection). Start it with Serve.
func NewProxy(l net.Listener, dial func() (net.Conn, error), cfg Config) *Proxy {
	return &Proxy{l: l, dial: dial, cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() net.Addr { return p.l.Addr() }

// Serve accepts and relays until the listener closes. It blocks; run it in a
// goroutine.
func (p *Proxy) Serve() error {
	for {
		conn, err := p.l.Accept()
		if err != nil {
			if p.closed.Load() {
				return nil
			}
			return err
		}
		if p.partitioned.Load() {
			// Partition injection: the endpoint behind this proxy is
			// unreachable — accepted connections die immediately, exactly
			// like a network partition (the peer is alive, packets are not
			// getting through).
			conn.Close()
			continue
		}
		up, err := p.dial()
		if err != nil {
			conn.Close()
			continue // upstream down: the client sees a dropped conn and retries
		}
		down := WrapConn(conn, p.cfg, p.seq.Add(1))
		p.track(down, up)
		p.wg.Add(2)
		go p.pipe(down, up)
		go p.pipe(up, down)
	}
}

func (p *Proxy) track(conns ...net.Conn) {
	p.mu.Lock()
	for _, c := range conns {
		p.conns[c] = struct{}{}
	}
	p.mu.Unlock()
}

// pipe copies src to dst until either side fails, then tears both down (a
// half-broken relay would stall the peer forever).
func (p *Proxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src)
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// SetPartitioned toggles partition injection: while true, new connections
// through the proxy are torn down on accept and every established relay is
// severed, so the endpoint behind the proxy looks unreachable while staying
// alive. Healing (false) lets new connections flow again — established
// connections stay dead, as after a real partition.
func (p *Proxy) SetPartitioned(on bool) {
	p.partitioned.Store(on)
	if !on {
		return
	}
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops accepting, closes every relayed connection, and waits for the
// relay goroutines.
func (p *Proxy) Close() error {
	p.closed.Store(true)
	err := p.l.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}
