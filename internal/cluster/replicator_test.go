package cluster

// The replicator's queue: a write names its handle, the push exports the
// factors as it leaves, pushes of one handle to one peer coalesce, and a
// refactorize travels as its values unless the receiver cannot take them.
// The successor is a real server behind a gate, stalled as in
// bounded_test.go while writes queue up behind its first push.

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"sstar"
	"sstar/internal/server"
)

// pushSeen is one replication push as the successor received it.
type pushSeen struct {
	handle, epoch uint64
	full          bool // the complete copy, not a values push
}

// gatedPeer is the successor's cluster hook. It records every replication
// push and holds it until the gate opens; answer, when set, stands in for
// the server's own handling of a push (an older peer's), nil installs it.
type gatedPeer struct {
	gate   chan struct{}
	open   sync.Once
	answer func(*server.Request) *server.Response

	mu     sync.Mutex
	pushes []pushSeen
}

func newGatedPeer() *gatedPeer { return &gatedPeer{gate: make(chan struct{})} }

func (p *gatedPeer) release() { p.open.Do(func() { close(p.gate) }) }

func (p *gatedPeer) seen() []pushSeen {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]pushSeen(nil), p.pushes...)
}

func (p *gatedPeer) Route(req *server.Request) *server.Response {
	if req.Op != server.OpReplicate {
		return nil
	}
	p.mu.Lock()
	p.pushes = append(p.pushes, pushSeen{handle: req.Handle, epoch: req.ValEpoch, full: req.Matrix != nil})
	p.mu.Unlock()
	<-p.gate
	if p.answer != nil {
		return p.answer(req)
	}
	return nil
}
func (*gatedPeer) Self() string                     { return "" }
func (*gatedPeer) Stored(server.StoredEvent)        {}
func (*gatedPeer) Freed(uint64, uint64)             {}
func (*gatedPeer) AugmentStats(*server.ServerStats) {}

// replPair is an owner shard replicating to one gated successor.
type replPair struct {
	t                   *testing.T
	sh                  *Shard
	owner, succ         *server.Server
	ownerAddr, succAddr string
	peer                *gatedPeer
	pool                *server.Pool
}

func startPair(t *testing.T, peer *gatedPeer) *replPair {
	t.Helper()
	listen := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	ol, sl := listen(), listen()
	p := &replPair{t: t, peer: peer, ownerAddr: ol.Addr().String(), succAddr: sl.Addr().String(), pool: newPeers("tcp")}
	p.succ = server.New(server.Config{Workers: 2, FactorWorkers: 1, Cluster: peer})
	go p.succ.Serve(sl)
	sh, err := NewShard(ShardConfig{Self: p.ownerAddr, Peers: []string{p.ownerAddr, p.succAddr}, HeartbeatInterval: -1, RepairInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	p.sh = sh
	p.owner = server.New(server.Config{Workers: 2, FactorWorkers: 1, Cluster: sh})
	sh.Bind(p.owner)
	go p.owner.Serve(ol)
	t.Cleanup(func() {
		peer.release()
		p.pool.Close()
		p.owner.Close()
		sh.Close()
		p.succ.Close()
	})
	return p
}

func (p *replPair) call(addr string, req *server.Request) *server.Response {
	p.t.Helper()
	resp, _, err := p.pool.Exchange(context.Background(), addr, req)
	if err != nil {
		p.t.Fatal(err)
	}
	if resp.Err != "" {
		p.t.Fatalf("%s: %s", req.Op, resp.Err)
	}
	return resp
}

func (p *replPair) factorize(a *sstar.Matrix) uint64 {
	p.t.Helper()
	return p.call(p.ownerAddr, &server.Request{Op: server.OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()}).Handle
}

// refactorize gives handle h the values of write k on a's pattern.
func (p *replPair) refactorize(a *sstar.Matrix, h uint64, k int) {
	p.t.Helper()
	vals := make([]float64, len(a.Val))
	for i, v := range a.Val {
		vals[i] = v * (1 + 0.05*float64(k*(1+i%7)))
	}
	p.call(p.ownerAddr, &server.Request{Op: server.OpRefactorize, Handle: h, Values: vals})
}

// waitPushes waits until the successor has received n pushes.
func (p *replPair) waitPushes(n int) {
	p.t.Helper()
	waitFor(p.t, "pushes to reach the successor", func() bool { return len(p.peer.seen()) >= n })
}

func (p *replPair) drain() {
	p.t.Helper()
	waitFor(p.t, "replication queue to drain", func() bool { return p.sh.pending.Load() == 0 })
}

// pushesOf returns the pushes of handle h the successor received.
func (p *replPair) pushesOf(h uint64) []pushSeen {
	var out []pushSeen
	for _, s := range p.peer.seen() {
		if s.handle == h {
			out = append(out, s)
		}
	}
	return out
}

func (p *replPair) epochOn(s *server.Server, h uint64) uint64 {
	for _, e := range s.Manifest() {
		if e.Handle == h {
			return e.ValEpoch
		}
	}
	return 0
}

// sameSolves asserts that the successor's copy of h solves b, alone and as
// a two-column panel, bitwise as the owner does, at the same values-epoch.
func (p *replPair) sameSolves(h uint64, b []float64) {
	p.t.Helper()
	if o, s := p.epochOn(p.owner, h), p.epochOn(p.succ, h); o != s {
		p.t.Fatalf("values-epoch owner %d, successor %d", o, s)
	}
	panel := append(append([]float64(nil), b...), b...)
	for _, req := range []*server.Request{
		{Op: server.OpSolve, Handle: h, B: b},
		{Op: server.OpSolveMany, Handle: h, B: panel, NRHS: 2},
	} {
		want := p.call(p.ownerAddr, req).X
		if got := p.call(p.succAddr, req).X; !bitIdentical(got, want) {
			p.t.Fatalf("%s on the successor differs bitwise from the owner's", req.Op)
		}
	}
}

// TestPushesCoalesce: five refactorizes of one handle queued behind a
// stalled push make one push, a values push exported as it leaves, so it
// carries the newest values-epoch — and the copy solves as the owner does.
func TestPushesCoalesce(t *testing.T) {
	p := startPair(t, newGatedPeer())
	sys := buildSystem(t, 6)
	h := p.factorize(sys.a)
	p.waitPushes(1)
	for k := 1; k <= 5; k++ {
		p.refactorize(sys.a, h, k)
	}
	if n := len(p.sh.jobs); n != 1 {
		t.Fatalf("five refactorizes queued %d pushes, want 1", n)
	}
	p.peer.release()
	p.drain()
	want := []pushSeen{{h, 1, true}, {h, 6, false}}
	if got := p.peer.seen(); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("successor received %+v, want %+v", got, want)
	}
	p.sameSolves(h, sys.b)
}

// TestFreedBeforePushIsNotExported: a handle freed while its push is queued
// is never exported — the push finds nothing to send — and the successor
// never holds it.
func TestFreedBeforePushIsNotExported(t *testing.T) {
	p := startPair(t, newGatedPeer())
	sys := buildSystem(t, 7)
	first := p.factorize(sys.a)
	p.waitPushes(1)
	h := p.factorize(sys.a)
	p.call(p.ownerAddr, &server.Request{Op: server.OpFree, Handle: h})
	p.peer.release()
	p.drain()
	if got := p.pushesOf(h); len(got) != 0 {
		t.Fatalf("the freed handle was pushed: %+v", got)
	}
	if p.succ.HasHandle(h) {
		t.Fatal("the successor holds the freed handle")
	}
	if len(p.pushesOf(first)) != 1 || !p.succ.HasHandle(first) {
		t.Fatal("the handle ahead of it was not replicated")
	}
	if n := p.sh.replErrors.Load(); n != 0 {
		t.Fatalf("%d replication errors, want 0", n)
	}
}

// TestFullPushAbsorbsValuesPush: a refactorize of a handle whose complete
// copy is still queued rides on that push — one full push, carrying the
// refactorized values.
func TestFullPushAbsorbsValuesPush(t *testing.T) {
	p := startPair(t, newGatedPeer())
	sys := buildSystem(t, 8)
	p.factorize(sys.a)
	p.waitPushes(1)
	h := p.factorize(sys.a)
	p.refactorize(sys.a, h, 1)
	if n := len(p.sh.jobs); n != 1 {
		t.Fatalf("a factorize and a refactorize queued %d pushes, want 1", n)
	}
	p.peer.release()
	p.drain()
	if got, want := p.pushesOf(h), (pushSeen{h, 2, true}); len(got) != 1 || got[0] != want {
		t.Fatalf("successor received %+v of the handle, want one %+v", got, want)
	}
	p.sameSolves(h, sys.b)
}

// TestDroppedPushClearsMark: a push dropped because the queue is full leaves
// no coalescing mark behind, so the handle's next write is pushed.
func TestDroppedPushClearsMark(t *testing.T) {
	p := startPair(t, newGatedPeer())
	sys := buildSystem(t, 9)
	h := p.factorize(sys.a)
	p.waitPushes(1)
	key := sstar.StructureKey(sys.a, sstar.DefaultOptions())
	for id := uint64(1 << 50); len(p.sh.jobs) < cap(p.sh.jobs); id++ {
		p.sh.Freed(id, key) // forwarded frees of unknown handles fill the queue
	}
	p.refactorize(sys.a, h, 1)
	if n := p.sh.replDropped.Load(); n != 1 {
		t.Fatalf("%d pushes dropped on the full queue, want 1", n)
	}
	p.peer.release()
	p.drain()
	p.refactorize(sys.a, h, 2)
	p.drain()
	want := []pushSeen{{h, 1, true}, {h, 3, false}}
	if got := p.pushesOf(h); len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("successor received %+v, want %+v", got, want)
	}
	p.sameSolves(h, sys.b)
}

// TestValuesPushesKeepCopyBitIdentical: after many refactorizes replicated
// as values pushes — installed while clients solve on the successor's copy —
// the copy solves bitwise as the owner's.
func TestValuesPushesKeepCopyBitIdentical(t *testing.T) {
	peer := newGatedPeer()
	peer.release()
	p := startPair(t, peer)
	sys := buildSystem(t, 10)
	h := p.factorize(sys.a)
	p.drain()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req := &server.Request{Op: server.OpSolve, Handle: h, B: sys.b}
			if resp, _, err := p.pool.Exchange(context.Background(), p.succAddr, req); err != nil || resp.Err != "" {
				t.Errorf("solve on the successor during values pushes: %v %+v", err, resp)
				return
			}
		}
	}()
	for k := 1; k <= 20; k++ {
		p.refactorize(sys.a, h, k)
		if k%5 == 0 {
			p.drain()
		}
	}
	p.drain()
	close(stop)
	wg.Wait()
	values := 0
	for _, s := range p.pushesOf(h) {
		if !s.full {
			values++
		}
	}
	if values == 0 {
		t.Fatal("no refactorize was replicated as a values push")
	}
	if e := p.epochOn(p.succ, h); e != 21 {
		t.Fatalf("successor's copy at values-epoch %d, want 21", e)
	}
	p.sameSolves(h, sys.b)
}

// TestValuesPushFallsBackToFull: a successor that cannot take a values push
// — one that predates them and fails Load on the values stream, or one that
// lost its copy and answers CodeBadHandle — gets the complete copy from the
// same job, and the copy installs.
func TestValuesPushFallsBackToFull(t *testing.T) {
	for _, tc := range []struct {
		name string
		old  bool
	}{{"older peer", true}, {"lost copy", false}} {
		t.Run(tc.name, func(t *testing.T) {
			peer := newGatedPeer()
			peer.release()
			if tc.old {
				// The older peer's doReplicate loaded every blob in the
				// Save format.
				peer.answer = func(req *server.Request) *server.Response {
					if req.Matrix != nil {
						return nil
					}
					_, err := sstar.Load(bytes.NewReader(req.Blob))
					if err == nil {
						t.Error("Load accepted a values stream")
						return &server.Response{}
					}
					return &server.Response{Err: err.Error(), Code: server.CodeOf(err)}
				}
			}
			p := startPair(t, peer)
			sys := buildSystem(t, 11)
			h := p.factorize(sys.a)
			p.drain()
			if !tc.old {
				p.succ.DropHandle(h)
			}
			p.refactorize(sys.a, h, 1)
			p.drain()
			want := []pushSeen{{h, 1, true}, {h, 2, false}, {h, 2, true}}
			if got := p.pushesOf(h); len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
				t.Fatalf("successor received %+v, want %+v", got, want)
			}
			if n := p.sh.replErrors.Load(); n != 0 {
				t.Fatalf("%d replication errors, want 0", n)
			}
			p.sameSolves(h, sys.b)
		})
	}
}

// TestOneExportInFlight: exports happen on the replicator alone, one push at
// a time — a stalled push holds every other write's export back.
func TestOneExportInFlight(t *testing.T) {
	p := startPair(t, newGatedPeer())
	sys := buildSystem(t, 12)
	for i := 0; i < 3; i++ {
		p.factorize(sys.a)
	}
	p.waitPushes(1)
	time.Sleep(50 * time.Millisecond)
	if n := len(p.peer.seen()); n != 1 {
		t.Fatalf("%d pushes in flight behind a stalled one, want 1", n)
	}
	if n := len(p.sh.jobs); n != 2 {
		t.Fatalf("%d pushes queued, want 2", n)
	}
	p.peer.release()
	p.drain()
}
