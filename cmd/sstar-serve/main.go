// Command sstar-serve runs the sparse-solve service: a long-running server
// that factorizes and solves client-submitted systems over the sstar binary
// protocol, with a structure-keyed analysis cache and a values-only
// refactorize fast path (see DESIGN.md, "Solver service").
//
// Usage:
//
//	sstar-serve -tcp :7071                        # serve TCP
//	sstar-serve -unix /tmp/sstar.sock             # serve a Unix socket
//	sstar-serve -tcp :7071 -unix /tmp/sstar.sock  # both at once
//	sstar-serve -tcp :7071 -workers 8 -cache 128  # bigger pool and cache
//	sstar-serve -tcp :7071 -admin :8080           # + HTTP admin listener
//
// Cluster mode makes the process one shard of a multi-node fleet (see
// DESIGN.md, "Cluster"): requests for structures placed elsewhere are
// refused with typed redirects, factors are replicated asynchronously to
// the ring successor, and cmd/sstar-router fronts the fleet:
//
//	sstar-serve -tcp :7071 -cluster-self 127.0.0.1:7071 \
//	    -cluster-peers 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073
//
// The admin listener serves Prometheus metrics on /metrics, the most recent
// request spans as Chrome trace JSON on /debug/trace, and the Go profiling
// endpoints under /debug/pprof. It speaks plain HTTP with no auth — bind it
// to localhost or a private interface.
//
// The server runs until SIGINT/SIGTERM, then shuts down cleanly.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sstar/internal/cluster"
	"sstar/internal/server"
)

func main() {
	var (
		tcpAddr  = flag.String("tcp", "", "TCP listen address (e.g. :7071); empty disables")
		unixPath = flag.String("unix", "", "Unix socket path; empty disables")
		workers  = flag.Int("workers", 4, "concurrent factorize/solve workers")
		factorW  = flag.Int("factor-workers", 0, "goroutines per numeric factor phase; 0 = NumCPU/workers (core split)")
		cache    = flag.Int("cache", 64, "analysis cache capacity (structures)")
		memMB    = flag.Int64("mem-budget", 0, "handle memory budget in MiB; LRU handles are evicted beyond it (0 = unlimited)")
		ttl      = flag.Duration("handle-ttl", 0, "evict handles idle for this long, e.g. 10m (0 = never)")
		drain    = flag.Duration("drain", 10*time.Second, "max time to wait for in-flight requests on shutdown")
		admin    = flag.String("admin", "", "HTTP admin listen address (/metrics, /debug/trace, /debug/pprof); empty disables")
		quiet    = flag.Bool("quiet", false, "suppress per-event logging")

		clusterSelf  = flag.String("cluster-self", "", "this shard's advertised address; enables cluster mode")
		clusterPeers = flag.String("cluster-peers", "", "comma-separated advertised addresses of every shard (including self)")
		clusterJoin  = flag.String("cluster-join", "", "address of any live cluster member to join through (dynamic membership; needs -cluster-self)")
		heartbeat    = flag.Duration("heartbeat", 0, "peer heartbeat interval; 0 = default (250ms), negative disables the failure detector")
		repairEvery  = flag.Duration("repair-interval", 0, "anti-entropy repair sweep interval; 0 = default (2s), negative disables the periodic sweep")
	)
	flag.Parse()
	if *tcpAddr == "" && *unixPath == "" {
		fmt.Fprintln(os.Stderr, "sstar-serve: need -tcp and/or -unix")
		flag.Usage()
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:       *workers,
		FactorWorkers: *factorW,
		CacheEntries:  *cache,
		MemBudget:     *memMB << 20,
		HandleTTL:     *ttl,
		DrainTimeout:  *drain,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	if *clusterJoin != "" && *clusterSelf == "" {
		log.Fatalf("sstar-serve: -cluster-join needs -cluster-self (the address this shard advertises)")
	}
	var shard *cluster.Shard
	if *clusterSelf != "" {
		var peers []string
		for _, p := range strings.Split(*clusterPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		shardCfg := cluster.ShardConfig{
			Self:              *clusterSelf,
			Peers:             peers,
			Join:              *clusterJoin,
			HeartbeatInterval: *heartbeat,
			RepairInterval:    *repairEvery,
		}
		if !*quiet {
			shardCfg.Logf = log.Printf
		}
		var err error
		shard, err = cluster.NewShard(shardCfg)
		if err != nil {
			log.Fatalf("sstar-serve: %v", err)
		}
		cfg.Cluster = shard
		if *clusterJoin != "" {
			log.Printf("sstar-serve: cluster shard %s joining via %s", *clusterSelf, *clusterJoin)
		} else {
			log.Printf("sstar-serve: cluster shard %s of %d peers", *clusterSelf, len(peers))
		}
	}
	s := server.New(cfg)
	if shard != nil {
		shard.Bind(s)
	}

	errc := make(chan error, 2)
	serve := func(network, addr string) {
		l, err := net.Listen(network, addr)
		if err != nil {
			errc <- err
			return
		}
		st := s.Stats()
		log.Printf("sstar-serve: listening on %s %s (workers=%d factor-workers=%d cache=%d)", network, addr, st.Workers, st.FactorWorkers, *cache)
		errc <- s.Serve(l)
	}
	if *tcpAddr != "" {
		go serve("tcp", *tcpAddr)
	}
	if *unixPath != "" {
		os.Remove(*unixPath) // a stale socket from a previous run
		go serve("unix", *unixPath)
	}
	if *admin != "" {
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("sstar-serve: admin listener: %v", err)
		}
		defer al.Close()
		log.Printf("sstar-serve: admin HTTP on %s (/metrics, /debug/trace, /debug/pprof)", al.Addr())
		go func() {
			if err := http.Serve(al, s.AdminHandler()); err != nil {
				log.Printf("sstar-serve: admin listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			log.Fatalf("sstar-serve: %v", err)
		}
	case got := <-sig:
		log.Printf("sstar-serve: %v, shutting down", got)
	}
	if shard != nil {
		// Announce the departure first, so peers bump the epoch and route
		// around this shard instead of waiting for the failure detector.
		shard.Leave()
	}
	s.Close()
	if shard != nil {
		shard.Close()
	}
	if *unixPath != "" {
		os.Remove(*unixPath)
	}
	st := s.Stats()
	log.Printf("sstar-serve: served %d requests (%d errors, %d shed), cache %d/%d hit/miss (%.0f%%), %d live handles (%d evicted)",
		st.Requests, st.Errors, st.Sheds, st.CacheHits, st.CacheMisses, 100*st.HitRate(), st.Handles, st.Evictions)
}
