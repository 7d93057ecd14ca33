package main

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"strconv"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/cluster"
	"sstar/internal/server"
	"sstar/internal/wire"
	"sstar/internal/xblas"
)

// Layer measurements taken beside a traced run: what a layer costs alone, on
// the workload's own inputs, in the process that ran the workload.

// timeBatches runs fn in batches of n and returns the median seconds per
// call over the batches: short calls are below the clock's resolution one at
// a time.
func timeBatches(batches, n int, fn func()) float64 {
	per := make([]float64, batches)
	for i := range per {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			fn()
		}
		per[i] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}

// xblasRoofline measures the kernels at the block sizes the partitions
// produce, so factor_gflops can be read against what the kernels reach.
func xblasRoofline(l metricSet) {
	fill := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		return x
	}
	gflops := func(flops float64, fn func()) float64 {
		n := max(int(2e6/flops), 1) // ~2 MFLOP a batch
		return flops / timeBatches(9, n, fn) / 1e9
	}
	for _, s := range []int{16, 32, 64, 128} {
		a, b, c := fill(s*s), fill(s*s), fill(s*s)
		g := gflops(2*float64(s*s*s), func() { xblas.Gemm(s, s, s, a, s, b, s, c, s) })
		l.set("xblas.gemm_gflops_"+strconv.Itoa(s), g)
	}
	const s = 32
	a, b, c := fill(s*s), fill(s*s), fill(2*s*2*s)
	idx := make([]int, s)
	for i := range idx {
		idx[i] = 2 * i
	}
	l.set("xblas.scatter_gflops_32", gflops(2*s*s*s, func() { xblas.GemmScatter(s, s, s, a, s, b, s, c, 2*s, idx, idx) }))
	// A unit-lower solve leaves b bounded only if L is tame; keep L small.
	lower := make([]float64, s*s)
	for i := range lower {
		lower[i] = 1e-3
	}
	l.set("xblas.trsm_gflops_32", gflops(s*s*s, func() { xblas.TrsmLowerUnitLeft(s, s, lower, s, b, s) }))
	mc, nc := xblas.TileShape()
	l.set("xblas.tile_mc", float64(mc))
	l.set("xblas.tile_nc", float64(nc))
}

// wireLayer times the codec on the workload's real requests over a
// bytes.Buffer: what one solve costs in encode, decode and frame CRC, with no
// socket in the way.
func wireLayer(l metricSet, h *client.Handle, a *sstar.Matrix, b, x []float64) {
	solveReq := &server.Request{Op: server.OpSolve, Handle: h.ID(), Key: h.Key(), B: b}
	solveResp := &server.Response{X: x, Stats: server.RequestStats{QueueNs: 1, SolveNs: 1, Workers: 1, FactorWorkers: 1, BatchWidth: 1}}
	factReq := &server.Request{Op: server.OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()}
	var buf bytes.Buffer
	encode := func(typ byte, v any) []byte {
		buf.Reset()
		if err := wire.WriteGob(&buf, typ, v); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	reqFrame := append([]byte(nil), encode(server.FrameRequest, solveReq)...)
	respFrame := append([]byte(nil), encode(server.FrameResponse, solveResp)...)
	decode := func(frame []byte, typ byte, v any) {
		if err := wire.ReadGob(bytes.NewReader(frame), typ, 0, v); err != nil {
			panic(err)
		}
	}
	l.set("wire.encode_solve_us", us(timeBatches(15, 200, func() { encode(server.FrameRequest, solveReq) })))
	l.set("wire.decode_solve_us", us(timeBatches(15, 200, func() { decode(reqFrame, server.FrameRequest, new(server.Request)) })))
	l.set("wire.encode_factorize_us", us(timeBatches(15, 20, func() { encode(server.FrameRequest, factReq) })))
	l.set("wire.bytes_per_solve", float64(len(reqFrame)+len(respFrame)))

	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	frame := timeBatches(15, 50, func() {
		buf.Reset()
		if err := wire.WriteFrame(&buf, server.FrameRequest, payload); err != nil {
			panic(err)
		}
		if _, _, err := wire.ReadFrame(&buf, 0); err != nil {
			panic(err)
		}
	})
	l.set("wire.frame_crc_us_per_kb", us(frame)/64)

	// Heap allocations of one solve's codec work: both frames, both ways.
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		encode(server.FrameRequest, solveReq)
		decode(reqFrame, server.FrameRequest, new(server.Request))
		encode(server.FrameResponse, solveResp)
		decode(respFrame, server.FrameResponse, new(server.Response))
	}
	runtime.ReadMemStats(&after)
	l.set("wire.allocs_per_solve", float64(after.Mallocs-before.Mallocs)/rounds)
}

// layers fills the per-layer metrics of a traced service run.
func (w *svcWorkload) layers(r *run, pendingMax int) {
	l := r.layer
	ctx := context.Background()
	var widthSum, solves int
	for _, c := range w.clients {
		widthSum, solves = widthSum+c.widthSum, solves+c.solves
	}
	if solves > 0 {
		l.set("server.batch_width_mean", float64(widthSum)/float64(solves))
	}
	l.set("client.solve_p99_ms", ms(classStats(r.rec.samples["solve"]).P99))

	cm := w.cl.Metrics()
	l.set("client.dials", float64(cm.Dials))
	l.set("client.reused", float64(cm.Reused))
	l.set("client.retries", float64(cm.Retries))
	l.set("client.redials", float64(cm.Redials))
	l.set("client.redirects", float64(cm.Redirects))
	l.set("client.sheds", float64(cm.Sheds))
	if st, err := w.cl.Stats(ctx); err != nil {
		r.rec.fail("stats: %v", err)
	} else {
		l.set("server.cache_hit_rate", st.HitRate())
		l.set("server.sheds", float64(st.Sheds))
		if st.CacheMisses > 0 {
			l.set("server.patch_rate", float64(st.Patches)/float64(st.CacheMisses))
		}
	}

	hd := w.clients[0].handles[0]
	b := hd.st.rhs[0]
	x, _, err := hd.h.Solve(ctx, b)
	if err != nil {
		r.rec.fail("layer probe solve: %v", err)
		return
	}
	wireLayer(l, hd.h, hd.cur, b, x)
	if w.spec.cluster {
		w.clusterLayers(r, hd, pendingMax)
	}
}

func (w *svcWorkload) clusterLayers(r *run, hd *svcHandle, pendingMax int) {
	l := r.layer
	ctx := context.Background()
	rs := w.router.Stats()
	l.set("cluster.scatters", float64(rs.Scatters))
	l.set("cluster.failovers", float64(rs.Failovers))
	l.set("cluster.redirects", float64(rs.Redirects))
	var repl int64
	for _, s := range w.servers {
		repl += s.Stats().Replications
	}
	l.set("cluster.replications", float64(repl))
	l.set("cluster.replication_pending_max", float64(pendingMax))

	ring := cluster.NewRing(0)
	for _, a := range w.addrs {
		ring.Add(a)
	}
	key := hd.h.Key()
	l.set("cluster.ring_owner_ns", 1e9*timeBatches(15, 2000, func() { key++; ring.Owner(key) }))

	// The router hop: the same solve through the router and straight to the
	// shard that owns the structure, alternating so drift cancels.
	direct, err := client.Dial("tcp", w.addrs[0])
	if err != nil {
		r.rec.fail("dial shard: %v", err)
		return
	}
	defer direct.Close()
	dh, _, err := direct.Factorize(ctx, hd.cur, sstar.DefaultOptions())
	if err != nil {
		r.rec.fail("direct factorize: %v", err)
		return
	}
	defer dh.Free(ctx)
	b := hd.st.rhs[0]
	var viaRouter, viaShard []float64
	for i := 0; i < hopProbes; i++ {
		t0 := time.Now()
		_, _, err1 := hd.h.Solve(ctx, b)
		t1 := time.Now()
		_, _, err2 := dh.Solve(ctx, b)
		t2 := time.Now()
		if err1 != nil || err2 != nil {
			r.rec.fail("hop probe: %v %v", err1, err2)
			return
		}
		viaRouter = append(viaRouter, t1.Sub(t0).Seconds())
		viaShard = append(viaShard, t2.Sub(t1).Seconds())
	}
	sort.Float64s(viaRouter)
	sort.Float64s(viaShard)
	l.set("cluster.router_hop_us", us(quantile(viaRouter, 0.5)-quantile(viaShard, 0.5)))
}
