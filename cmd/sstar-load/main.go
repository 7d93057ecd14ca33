// Command sstar-load drives concurrent mixed traffic (factorize /
// values-only refactorize / solve) against a sparse-solve server and writes
// a JSON report with throughput, latency percentiles and the server's
// analysis-cache hit rate. It is a load generator to point at a live
// sstar-serve, sstar-router or sstar-chaos, not a benchmark: the numbers a
// change is judged by come from go run ./benchmark (benchmark/README.md).
//
// Usage:
//
//	sstar-load                                   # self-contained: in-process server
//	sstar-load -addr 127.0.0.1:7071              # against a running sstar-serve
//	sstar-load -addr 127.0.0.1:7071,127.0.0.1:7072  # multi-endpoint: clients spread round-robin
//	sstar-load -clients 16 -duration 10s -nx 30  # heavier run
//	sstar-load -patterns 4 -mix 1,3,6            # 4 structures; 10% fact / 30% refac / 60% solve
//	sstar-load -addr ... -retries 4 -timeout 2s  # through sstar-chaos: retry + per-request deadline
//
// The report is written to -out (default: standard output).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sstar"
	"sstar/client"
	"sstar/internal/server"
)

type opSample struct {
	op      string
	latency time.Duration
	hit     bool
}

type latencySummary struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P90ms float64 `json:"p90_ms"`
	P99ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

type report struct {
	Config struct {
		Addr     string `json:"addr"`
		Clients  int    `json:"clients"`
		Duration string `json:"duration"`
		Patterns int    `json:"patterns"`
		NX       int    `json:"nx"`
		Mix      string `json:"mix"`
		Check    bool   `json:"check"`
	} `json:"config"`
	ElapsedS      float64                   `json:"elapsed_s"`
	Requests      int                       `json:"requests"`
	Errors        int                       `json:"errors"`
	ThroughputRPS float64                   `json:"throughput_rps"`
	Latency       latencySummary            `json:"latency"`
	Ops           map[string]latencySummary `json:"ops"`
	Cache         struct {
		Hits    int64   `json:"hits"`
		Misses  int64   `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
	Server server.ServerStats `json:"server"`
}

func main() {
	var (
		addr     = flag.String("addr", "", "server address(es), comma-separated for multi-endpoint; empty starts an in-process server")
		network  = flag.String("network", "tcp", "server network (tcp or unix)")
		clients  = flag.Int("clients", 8, "concurrent client connections")
		duration = flag.Duration("duration", 5*time.Second, "load duration")
		patterns = flag.Int("patterns", 2, "distinct matrix structures in the traffic")
		nx       = flag.Int("nx", 20, "base grid dimension (matrix order ~ nx*nx)")
		mix      = flag.String("mix", "1,3,6", "factorize,refactorize,solve weights")
		check    = flag.Bool("check", false, "verify every solve's residual (slower)")
		seed     = flag.Int64("seed", 1, "traffic randomness seed")
		workers  = flag.Int("workers", 4, "in-process server workers (when -addr is empty)")
		factorW  = flag.Int("factor-workers", 0, "in-process server factor-phase goroutines per request; 0 = NumCPU/workers")
		cacheSz  = flag.Int("cache", 64, "in-process server analysis cache entries")
		retries  = flag.Int("retries", 0, "client retry attempts per request (0 disables; sheds and idempotent transport failures only)")
		timeout  = flag.Duration("timeout", 0, "per-request deadline (0 = none; set this when the path can stall, e.g. behind sstar-chaos)")
		out      = flag.String("out", "", "report output path (default: standard output)")
	)
	flag.Parse()

	weights := parseMix(*mix)

	// Multi-endpoint mode: clients spread round-robin across the listed
	// addresses (a shard fleet without a router, or several routers).
	targets := strings.Split(*addr, ",")
	target := targets[0]
	net_ := *network
	if target == "" {
		s := server.New(server.Config{Workers: *workers, FactorWorkers: *factorW, CacheEntries: *cacheSz})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("sstar-load: %v", err)
		}
		go s.Serve(l)
		defer s.Close()
		target = l.Addr().String()
		targets = []string{target}
		net_ = "tcp"
		st := s.Stats()
		log.Printf("sstar-load: in-process server on %s (workers=%d factor-workers=%d cache=%d)", target, st.Workers, st.FactorWorkers, *cacheSz)
	}

	// One base matrix per pattern: distinct structures (varying nx and
	// stencil) of comparable size.
	bases := make([]*sstar.Matrix, *patterns)
	for p := range bases {
		bases[p] = sstar.GenGrid2D(*nx+p, *nx, p%2 == 1, sstar.GenOptions{Seed: int64(p + 1), Convection: 0.2})
	}

	var (
		mu      sync.Mutex
		samples []opSample
		nerr    int
	)
	record := func(s opSample) {
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	fail := func(err error) {
		mu.Lock()
		nerr++
		mu.Unlock()
		log.Printf("sstar-load: %v", err)
	}

	deadline := time.Now().Add(*duration)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < *clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var copts []client.Option
			if *retries > 0 {
				p := client.DefaultRetryPolicy()
				p.MaxRetries = *retries
				copts = append(copts, client.WithRetry(p))
			}
			rng := rand.New(rand.NewSource(*seed + int64(ci)))
			// Per-request deadline: without one, a stalled connection (a
			// corrupted length prefix behind a fault proxy never delivers
			// the bytes the reader waits for) blocks the goroutine forever.
			reqCtx := func() (context.Context, context.CancelFunc) {
				if *timeout <= 0 {
					return context.Background(), func() {}
				}
				return context.WithTimeout(context.Background(), *timeout)
			}
			base := bases[ci%len(bases)]
			cur := base.Clone()
			perturb := func() {
				for i := range cur.Val {
					cur.Val[i] = base.Val[i] * (1 + 0.3*rng.Float64())
				}
			}

			// A load generator must outlive the faults it measures: every
			// failed operation is counted and the worker rebuilds — redial
			// on a dead client, refactorize on a lost handle. A dropped
			// handle may survive server-side; the server's TTL/budget
			// eviction reclaims it.
			myTarget := targets[ci%len(targets)]
			var c *client.Client
			var h *client.Handle
			defer func() {
				if c == nil {
					return
				}
				if h != nil {
					ctx, cancel := reqCtx()
					h.Free(ctx)
					cancel()
				}
				c.Close()
			}()
			for time.Now().Before(deadline) {
				if c == nil {
					cc, err := client.Dial(net_, myTarget, copts...)
					if err != nil {
						fail(err)
						time.Sleep(20 * time.Millisecond)
						continue
					}
					c = cc
				}
				if h == nil {
					t0 := time.Now()
					ctx, cancel := reqCtx()
					hh, st, err := c.Factorize(ctx, cur, sstar.DefaultOptions())
					cancel()
					if err != nil {
						fail(err)
						time.Sleep(20 * time.Millisecond)
						continue
					}
					h = hh
					record(opSample{op: "factorize", latency: time.Since(t0), hit: st.CacheHit})
				}
				switch pick(rng, weights) {
				case 0:
					ctx, cancel := reqCtx()
					err := h.Free(ctx)
					cancel()
					h = nil
					if err != nil {
						fail(err)
						continue
					}
					perturb() // next iteration factorizes the perturbed values
				case 1:
					perturb()
					t0 := time.Now()
					ctx, cancel := reqCtx()
					_, err := h.Refactorize(ctx, cur.Val)
					cancel()
					if err != nil {
						fail(err)
						h = nil
						continue
					}
					record(opSample{op: "refactorize", latency: time.Since(t0)})
				default:
					b := make([]float64, cur.N)
					for i := range b {
						b[i] = 2*rng.Float64() - 1
					}
					t0 := time.Now()
					ctx, cancel := reqCtx()
					x, _, err := h.Solve(ctx, b)
					cancel()
					if err != nil {
						fail(err)
						h = nil
						continue
					}
					record(opSample{op: "solve", latency: time.Since(t0)})
					if *check {
						if r := sstar.Residual(cur, x, b); r > 1e-8 {
							fail(fmt.Errorf("client %d: residual %g", ci, r))
						}
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start)

	c, err := client.Dial(net_, target)
	if err != nil {
		log.Fatalf("sstar-load: stats dial: %v", err)
	}
	st, err := c.Stats(context.Background())
	c.Close()
	if err != nil {
		log.Fatalf("sstar-load: stats: %v", err)
	}

	rep := buildReport(samples, nerr, elapsed, st)
	rep.Config.Addr = target
	rep.Config.Clients = *clients
	rep.Config.Duration = duration.String()
	rep.Config.Patterns = *patterns
	rep.Config.NX = *nx
	rep.Config.Mix = *mix
	rep.Config.Check = *check

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("sstar-load: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		log.Fatalf("sstar-load: %v", err)
	}
	log.Printf("sstar-load: %d requests in %.2fs = %.0f req/s, p50 %.2fms p99 %.2fms, cache hit rate %.0f%%, core split %d workers x %d factor-workers, %d errors",
		rep.Requests, rep.ElapsedS, rep.ThroughputRPS, rep.Latency.P50ms, rep.Latency.P99ms, 100*rep.Cache.HitRate, st.Workers, st.FactorWorkers, rep.Errors)
}

func parseMix(s string) [3]int {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		log.Fatalf("sstar-load: -mix wants 3 comma-separated weights, got %q", s)
	}
	var w [3]int
	total := 0
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			log.Fatalf("sstar-load: bad -mix weight %q", p)
		}
		w[i] = v
		total += v
	}
	if total == 0 {
		log.Fatalf("sstar-load: -mix weights sum to zero")
	}
	return w
}

// pick returns 0 (factorize), 1 (refactorize) or 2 (solve) by weight.
func pick(rng *rand.Rand, w [3]int) int {
	r := rng.Intn(w[0] + w[1] + w[2])
	if r < w[0] {
		return 0
	}
	if r < w[0]+w[1] {
		return 1
	}
	return 2
}

func summarize(ls []time.Duration) latencySummary {
	if len(ls) == 0 {
		return latencySummary{}
	}
	s := append([]time.Duration(nil), ls...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(s)-1))
		return float64(s[idx]) / 1e6
	}
	return latencySummary{
		Count: len(s),
		P50ms: pct(0.50),
		P90ms: pct(0.90),
		P99ms: pct(0.99),
		MaxMs: float64(s[len(s)-1]) / 1e6,
	}
}

func buildReport(samples []opSample, nerr int, elapsed time.Duration, st server.ServerStats) *report {
	rep := &report{Ops: make(map[string]latencySummary)}
	all := make([]time.Duration, 0, len(samples))
	byOp := make(map[string][]time.Duration)
	for _, s := range samples {
		all = append(all, s.latency)
		byOp[s.op] = append(byOp[s.op], s.latency)
	}
	rep.ElapsedS = elapsed.Seconds()
	rep.Requests = len(samples)
	rep.Errors = nerr
	if elapsed > 0 {
		rep.ThroughputRPS = float64(len(samples)) / elapsed.Seconds()
	}
	rep.Latency = summarize(all)
	for op, ls := range byOp {
		rep.Ops[op] = summarize(ls)
	}
	rep.Cache.Hits = st.CacheHits
	rep.Cache.Misses = st.CacheMisses
	rep.Cache.HitRate = st.HitRate()
	rep.Server = st
	return rep
}
