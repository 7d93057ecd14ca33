// Command sstar-router fronts a fleet of sstar-serve cluster shards with the
// ordinary client protocol: clients connect to the router exactly as they
// would to a single server, and the router places each request on the shard
// that owns its structure (consistent hashing), follows redirects, fails
// solves over to the replica when the owner dies — without refactorizing —
// and scatters wide multi-RHS panels across replica holders.
//
// Usage:
//
//	sstar-router -tcp :7070 \
//	    -shards 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073
//
// Placement is a pure function of the membership, computed independently
// by router and shards.
//
// The router runs until SIGINT/SIGTERM.
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

	"sstar/internal/cluster"
	"sstar/internal/obs"
)

func main() {
	var (
		tcpAddr = flag.String("tcp", ":7070", "TCP listen address for clients")
		shards  = flag.String("shards", "", "comma-separated shard addresses (required)")
		admin   = flag.String("admin", "", "HTTP admin listen address (/metrics); empty disables")
		quiet   = flag.Bool("quiet", false, "suppress per-event logging")
	)
	flag.Parse()
	if *shards == "" {
		fmt.Fprintln(os.Stderr, "sstar-router: need -shards")
		flag.Usage()
		os.Exit(2)
	}

	cfg := cluster.RouterConfig{Shards: strings.Split(*shards, ",")}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	r, err := cluster.NewRouter(cfg)
	if err != nil {
		log.Fatalf("sstar-router: %v", err)
	}

	if *admin != "" {
		reg := obs.NewRegistry()
		r.Bind(reg)
		al, err := net.Listen("tcp", *admin)
		if err != nil {
			log.Fatalf("sstar-router: admin listener: %v", err)
		}
		defer al.Close()
		log.Printf("sstar-router: admin HTTP on %s (/metrics)", al.Addr())
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w)
		})
		go func() {
			if err := http.Serve(al, mux); err != nil {
				log.Printf("sstar-router: admin listener: %v", err)
			}
		}()
	}

	l, err := net.Listen("tcp", *tcpAddr)
	if err != nil {
		log.Fatalf("sstar-router: %v", err)
	}
	log.Printf("sstar-router: listening on %s, fronting %d shards", l.Addr(), len(cfg.Shards))

	errc := make(chan error, 1)
	go func() { errc <- r.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			log.Fatalf("sstar-router: %v", err)
		}
	case got := <-sig:
		log.Printf("sstar-router: %v, shutting down", got)
	}
	r.Close()
	st := r.Stats()
	log.Printf("sstar-router: routed %d requests (%d errors), %d failovers, %d scatters, %d redirects followed, %d ambiguous, %d ring refreshes (epoch %d)",
		st.Requests, st.Errors, st.Failovers, st.Scatters, st.Redirects, st.Ambiguous, st.RingRefreshes, st.Epoch)
}
