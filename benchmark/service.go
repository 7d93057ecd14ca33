package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/cluster"
	"sstar/internal/server"
)

// The service workloads run servers in this process on real loopback TCP and
// drive them from closed-loop clients: each client sends its next request
// only when the previous one has been answered, so a slower system receives
// less load. There are min(NumCPU, 4) clients, as many as the box can run
// beside the server without the clients themselves becoming the queue.

const (
	handlesPerClient = 4
	svcStructures    = 2
	svcRHSPool       = 16
	checkEvery       = 16 // every 16th op is kept and verified after the window
	hopProbes        = 300
	deckSize         = 100 // ops in one deal of the mix
)

// Op classes of the service mixes, in the order svcSpec.mix counts them.
var svcClasses = []string{"solve", "solvemany", "refactor", "factorize", "cold"}

type svcSpec struct {
	cluster bool
	nx      int
	nine    bool
	workers int    // server.Config.Workers per server
	warmOps int    // ops per client set-up runs before timing
	mix     [5]int // ops of each class of svcClasses in a deck of deckSize
}

var (
	svcDirect = svcSpec{nx: 20, workers: 2, warmOps: 200, mix: [5]int{90, 0, 8, 2, 0}}
	// The cluster mix writes (refactorize -> replication to the ring
	// successor) beside reads, with numerics large enough to matter.
	svcCluster = svcSpec{cluster: true, nx: 32, nine: true, workers: 1, warmOps: 40, mix: [5]int{60, 10, 20, 5, 5}}
)

type svcStruct struct {
	base *sstar.Matrix
	vals []*sstar.Matrix
	rhs  [][]float64
	wide [][]float64
}

type svcHandle struct {
	h   *client.Handle
	st  *svcStruct
	cur *sstar.Matrix // the values the server's factors hold now
}

// svcCheck is one served answer kept for verification after the window.
type svcCheck struct {
	what    string
	a       *sstar.Matrix
	b, x    []float64
	nrhs    int
	bitwise bool // false when the server patched the analysis: other ordering, other rounding
}

type svcClient struct {
	id               int
	rng              *rand.Rand
	handles          []*svcHandle
	rec              *recorder
	checks           []svcCheck
	nops             int
	deck             []string // op classes still to be dealt
	dealt            time.Time
	widthSum, solves int
}

type svcWorkload struct {
	spec    svcSpec
	servers []*server.Server
	shards  []*cluster.Shard
	router  *cluster.Router
	addrs   []string // shard addresses
	cl      *client.Client
	structs []*svcStruct
	clients []*svcClient
}

func setupService(spec svcSpec) func(r *run) (instance, error) {
	return func(r *run) (instance, error) {
		w := &svcWorkload{spec: spec}
		if err := w.start(r); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// listenShards opens one loopback listener per shard. Ring placement hashes
// the shards' addresses, and ephemeral ports differ from run to run: left
// alone, half the runs put both structures on one shard (whose peer then only
// installs replicas and never delays a foreground op) and half split them,
// and refactor-to-x reads 11 ms or 14 ms accordingly. Ports are redrawn until
// shard i owns structure i, the balanced placement.
func (w *svcWorkload) listenShards(opts sstar.Options) ([]net.Listener, error) {
	nShards := 1
	if w.spec.cluster {
		nShards = svcStructures
	}
	for try := 0; ; try++ {
		listeners := make([]net.Listener, nShards)
		w.addrs = nil
		ring := cluster.NewRing(0)
		for i := range listeners {
			l, err := listen()
			if err != nil {
				return nil, err
			}
			listeners[i] = l
			w.addrs = append(w.addrs, l.Addr().String())
			ring.Add(l.Addr().String())
		}
		balanced := true
		for i, st := range w.structs[:nShards] {
			balanced = balanced && ring.Owner(sstar.StructureKey(st.base, opts)) == w.addrs[i]
		}
		if balanced || try == 64 {
			return listeners, nil
		}
		for _, l := range listeners {
			l.Close()
		}
	}
}

func (w *svcWorkload) start(r *run) error {
	opts := sstar.DefaultOptions()
	nx := max(int(float64(w.spec.nx)*r.cfg.scale+0.5), 4)
	for s := 0; s < svcStructures; s++ {
		st := &svcStruct{base: sstar.GenGrid2D(nx+s, nx, w.spec.nine, sstar.GenOptions{Seed: int64(s + 1), Convection: 0.2})}
		r.in.noteMatrix(st.base, opts)
		label := fmt.Sprintf("struct%d", s)
		st.vals = r.in.valueSets(st.base, opts, "values/"+label, valueSetsPerMatrix)
		st.rhs = r.in.rhs("rhs/"+label, st.base.N, 1, svcRHSPool)
		st.wide = r.in.rhs("wide/"+label, st.base.N, 8, 2)
		w.structs = append(w.structs, st)
	}
	listeners, err := w.listenShards(opts)
	if err != nil {
		return err
	}
	// server.Config stays at its zero value except for the core split.
	for i, l := range listeners {
		cfg := server.Config{Workers: w.spec.workers, FactorWorkers: 1}
		if w.spec.cluster {
			sh, err := cluster.NewShard(cluster.ShardConfig{Self: w.addrs[i], Peers: w.addrs})
			if err != nil {
				return err
			}
			w.shards = append(w.shards, sh)
			cfg.Cluster = sh
		}
		s := server.New(cfg)
		if w.spec.cluster {
			w.shards[i].Bind(s)
		}
		w.servers = append(w.servers, s)
		go s.Serve(l)
	}
	dial := w.addrs[0]
	if w.spec.cluster {
		rt, err := cluster.NewRouter(cluster.RouterConfig{Shards: w.addrs})
		if err != nil {
			return err
		}
		w.router = rt
		rl, err := listen()
		if err != nil {
			return err
		}
		go rt.Serve(rl)
		dial = rl.Addr().String()
	}
	nClients := hostWorkers()
	if w.spec.cluster {
		// Router, two shards and their replication pushes run in this
		// process too: with a client per core the box is oversubscribed and
		// latencies measure the Go scheduler. Half the cores drive load.
		nClients = max(nClients/2, 1)
	}
	cl, err := client.Dial("tcp", dial, client.WithMaxIdle(nClients))
	if err != nil {
		return err
	}
	w.cl = cl

	ctx := context.Background()
	for c := 0; c < nClients; c++ {
		sc := &svcClient{id: c, rng: r.in.rng(fmt.Sprintf("client%d", c)), rec: newRecorder()}
		for i := 0; i < handlesPerClient; i++ {
			st := w.structs[i%svcStructures]
			a := st.vals[(c+i)%len(st.vals)]
			h, _, err := cl.Factorize(ctx, a, opts)
			if err != nil {
				return fmt.Errorf("factorize handle: %w", err)
			}
			sc.handles = append(sc.handles, &svcHandle{h: h, st: st, cur: a})
		}
		w.clients = append(w.clients, sc)
	}
	// Warm-up by op count, not by time, so set-up time measures work: caches
	// fill, connections are dialed, the first replications drain.
	w.drive(nil, func(c *svcClient) bool { return c.nops < w.spec.warmOps })
	for _, c := range w.clients {
		if c.rec.failed > 0 {
			return fmt.Errorf("warm-up: %s", c.rec.failures[0])
		}
		c.rec, c.checks, c.deck, c.dealt = newRecorder(), nil, nil, time.Time{}
		c.widthSum, c.solves = 0, 0
	}
	return nil
}

func (w *svcWorkload) close() {
	if w.cl != nil {
		w.cl.Close()
	}
	if w.router != nil {
		w.router.Close()
	}
	for _, s := range w.servers {
		s.Close()
	}
	for _, sh := range w.shards {
		sh.Close()
	}
}

// drive runs every client's closed loop while more(client) holds and waits
// for all of them.
func (w *svcWorkload) drive(tr *tracer, more func(*svcClient) bool) {
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *svcClient) {
			defer wg.Done()
			for more(c) {
				c.step(w, tr)
			}
		}(c)
	}
	wg.Wait()
}

func (w *svcWorkload) measure(r *run) {
	var pendingMax int
	stopSampler := func() {}
	if r.tr != nil && w.spec.cluster {
		stopSampler = w.samplePending(&pendingMax)
	}
	t0 := time.Now()
	deadline := t0.Add(r.cfg.duration())
	w.drive(r.tr, func(c *svcClient) bool { return len(c.rec.rates) < minBlocks || time.Now().Before(deadline) })
	window := time.Since(t0)
	stopSampler()

	local := map[*sstar.Matrix]*sstar.Factorization{}
	for _, c := range w.clients {
		for _, ck := range c.checks {
			w.verify(c.rec, local, ck)
		}
		r.rate += c.rec.throughput(window) // clients run side by side: their rates add
		r.rec.merge(c.rec)
	}
	if r.tr != nil {
		w.layers(r, pendingMax)
	}
}

// samplePending polls the shards' replication queues (in-process, off the
// request path) and returns the function that stops the poller and waits
// for it.
func (w *svcWorkload) samplePending(maxSeen *int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				for _, s := range w.servers {
					*maxSeen = max(*maxSeen, s.Stats().ReplicationPending)
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// verify holds one served answer against a local sstar solve of the same
// inputs: residual always, bitwise unless the server patched the analysis.
func (w *svcWorkload) verify(rec *recorder, local map[*sstar.Matrix]*sstar.Factorization, ck svcCheck) {
	n := ck.a.N
	for j := 0; j < ck.nrhs; j++ {
		if res := sstar.Residual(ck.a, ck.x[j*n:(j+1)*n], ck.b[j*n:(j+1)*n]); !(res <= residualTol) {
			rec.fail("%s: residual %g > %g", ck.what, res, residualTol)
			return
		}
	}
	if !ck.bitwise {
		return
	}
	f := local[ck.a]
	if f == nil {
		var err error
		if f, err = sstar.Factorize(ck.a, sstar.DefaultOptions()); err != nil {
			rec.fail("%s: local factorize: %v", ck.what, err)
			return
		}
		local[ck.a] = f
	}
	var want []float64
	var err error
	if ck.nrhs == 1 {
		want, err = f.Solve(ck.b)
	} else {
		want, err = f.SolveMany(ck.b, ck.nrhs)
	}
	if err != nil || !equalBits(want, ck.x) {
		rec.fail("%s: served x is not bitwise the local sstar solve (err %v)", ck.what, err)
	}
}

// step is one op of a client's closed loop, drawn from the workload's mix.
func (c *svcClient) step(w *svcWorkload, tr *tracer) {
	ctx := context.Background()
	c.nops++
	c.rec.ops++
	// Every other op of a traced run records spans; the rest are the
	// untraced reference trace_overhead_frac is taken against.
	traced := tr != nil
	if c.nops%2 == 1 {
		tr = nil
	}
	op := c.nops*len(w.clients) + c.id
	// The mix is dealt from a shuffled deck, not drawn op by op: every 100
	// ops hold exactly the mix, so throughput does not vary with how many
	// 30 ms cold ops a seed happened to draw.
	if len(c.deck) == 0 {
		if !c.dealt.IsZero() {
			c.rec.block(deckSize, time.Since(c.dealt))
		}
		c.dealt = time.Now()
		for class, n := range w.spec.mix {
			for i := 0; i < n; i++ {
				c.deck = append(c.deck, svcClasses[class])
			}
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	name := c.deck[len(c.deck)-1]
	c.deck = c.deck[:len(c.deck)-1]
	// A client refactorizes only the first half of its handles and sends
	// SolveMany only to the second half. The router scatters a wide SolveMany
	// over the replica holders, and a replica lags its owner's refactorize by
	// one asynchronous push: on a handle that is also being refactorized the
	// scattered columns come back solved against the old values (residual
	// ~1e-2 observed). The workload must not fail, so it keeps the two apart.
	pick := c.handles
	switch name {
	case "refactor":
		pick = c.handles[:len(c.handles)/2]
	case "solvemany":
		pick = c.handles[len(c.handles)/2:]
	}
	hd := pick[c.rng.Intn(len(pick))]
	st := hd.st
	keep := c.nops%checkEvery == 0
	var stats []client.RequestStats
	var err error
	// Inputs are drawn before the clock starts.
	b := st.rhs[c.rng.Intn(len(st.rhs))]
	a := hd.cur
	switch name {
	case "solvemany":
		b = st.wide[c.rng.Intn(len(st.wide))]
	case "refactor":
		a = st.vals[c.rng.Intn(len(st.vals))]
	case "cold":
		// A structure the fleet has never seen: a near-miss of a cached one.
		churn := max(1, st.base.Nnz()/200)
		a = perturbLocal(hd.cur, churn, churn/2, c.rng)
	}
	t0 := time.Now()
	root := tr.begin("client."+name, op, 0)
	// finish closes the op: latency sample, and the reply's own account of
	// its time as child spans.
	finish := func() time.Duration {
		tr.end(root)
		d := time.Since(t0)
		var off int64
		for _, s := range stats {
			off = tr.child("server.queue", op, root, off, s.QueueNs)
			off = tr.child("server.analyze", op, root, off, s.AnalyzeNs)
			off = tr.child("server.factor", op, root, off, s.FactorNs)
			off = tr.child("server.solve", op, root, off, s.SolveNs)
		}
		if err != nil {
			c.rec.fail("%s: %v", name, err)
		} else {
			c.rec.add(name, name, d)
		}
		return d
	}
	// solve sends one right-hand side to h and accounts the reply. Only the
	// plain solve op is a "solve" sample: a solve that follows a refactorize
	// or a factorize runs beside that handle's replication push and belongs
	// to its op's latency.
	solve := func(h *client.Handle, b []float64) []float64 {
		x, s, e := h.Solve(ctx, b)
		if e != nil {
			err = e
			return nil
		}
		stats = append(stats, s)
		c.widthSum += s.BatchWidth
		c.solves++
		return x
	}
	switch name {
	case "solve":
		x := solve(hd.h, b)
		d := finish()
		if err == nil {
			if tr != nil {
				c.rec.add("traced", name, d)
			} else if traced {
				c.rec.add("plain", name, d)
			}
			if keep {
				c.checks = append(c.checks, svcCheck{"solve", a, b, x, 1, true})
			}
		}
	case "solvemany":
		x, s, e := hd.h.SolveMany(ctx, b, 8)
		stats, err = append(stats, s), e
		finish()
		if err == nil && keep {
			c.checks = append(c.checks, svcCheck{"solvemany", a, b, x, 8, true})
		}
	case "refactor":
		s, e := hd.h.Refactorize(ctx, a.Val)
		stats, err = append(stats, s), e
		var x []float64
		if err == nil {
			hd.cur = a
			x = solve(hd.h, b)
		}
		finish()
		if err == nil && keep {
			c.checks = append(c.checks, svcCheck{"refactor", a, b, x, 1, true})
		}
	case "factorize", "cold":
		h, s, e := w.cl.Factorize(ctx, a, sstar.DefaultOptions())
		stats, err = append(stats, s), e
		var x []float64
		if err == nil && name == "cold" {
			x = solve(h, b)
		}
		finish()
		if e == nil {
			if ferr := h.Free(ctx); ferr != nil {
				c.rec.fail("free: %v", ferr)
			}
		}
		if err == nil && keep && name == "cold" {
			c.checks = append(c.checks, svcCheck{"cold", a, b, x, 1, !s.Patched})
		}
	}
}
