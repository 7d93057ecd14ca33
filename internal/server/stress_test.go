package server_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sstar"
	"sstar/client"
	"sstar/internal/bench"
	"sstar/internal/server"
)

// TestConcurrentSolvesDuringRefactorize hammers one handle from several
// solving clients while another client keeps refactorizing it with new
// values, on a server whose factor phase itself runs multi-worker
// (FactorWorkers > 1) on a matrix whose task grain admits the executor. Run
// under -race this is the executor/server integration check: request-level
// and factor-level parallelism compose without data races, and every solve
// sees some complete set of factors — either the old values or the new ones,
// never a torn mix (verified by accepting a solve iff its residual is small
// against one of the value sets the refactorizer has published).
func TestConcurrentSolvesDuringRefactorize(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	addr := startServer(t, server.Config{Workers: 3, FactorWorkers: 2, CacheEntries: 4})

	a := bench.ByName("ex11").Gen(0.5)
	owner, err := client.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	h, st, err := owner.Factorize(context.Background(), a, sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.FactorWorkers != 2 {
		t.Fatalf("factorize ran on %d factor workers, want 2", st.FactorWorkers)
	}
	if st.Workers != 3 {
		t.Fatalf("factorize stats report %d request workers, want 3", st.Workers)
	}
	// Below the task-grain line the same server factors sequentially, and
	// its stats say so.
	fine, fst, err := owner.Factorize(context.Background(), sstar.GenGrid2D(12, 12, false, sstar.GenOptions{Seed: 500}), sstar.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fst.FactorWorkers != 1 {
		t.Fatalf("a fine-grained factorize reports %d factor workers, want 1", fst.FactorWorkers)
	}
	if err := fine.Free(context.Background()); err != nil {
		t.Fatal(err)
	}

	// versions holds every value set the refactorizer has published; a solve
	// is correct if it matches any one of them (the server may serve either
	// side of an in-flight refactorize).
	var mu sync.Mutex
	versions := [][]float64{append([]float64(nil), a.Val...)}
	snapshot := func() [][]float64 {
		mu.Lock()
		defer mu.Unlock()
		return append([][]float64(nil), versions...)
	}

	const rounds = 20
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	// Refactorizer: publish the new values *before* sending the request so a
	// concurrent solve that observes them mid-flight still finds its match.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for r := 0; r < rounds; r++ {
			vals := append([]float64(nil), a.Val...)
			scale := 1 + 0.05*float64(r+1)
			for i := range vals {
				vals[i] *= scale
			}
			mu.Lock()
			versions = append(versions, vals)
			mu.Unlock()
			if _, err := h.Refactorize(context.Background(), vals); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Solvers: the client's connection pool makes the shared handle safe to
	// hammer from several goroutines at once.
	for ci := 0; ci < 3; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			b := make([]float64, a.N)
			for i := range b {
				b[i] = float64((i+ci)%7) - 3
			}
			m := a.Clone()
			for !stop.Load() {
				x, _, err := h.Solve(context.Background(), b)
				if err != nil {
					errs <- err
					return
				}
				ok := false
				for _, vals := range snapshot() {
					copy(m.Val, vals)
					if sstar.Residual(m, x, b) < 1e-8 {
						ok = true
						break
					}
				}
				if !ok {
					errs <- fmt.Errorf("solver %d: solution matches no published value set (torn factors?)", ci)
					return
				}
			}
		}(ci)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sstats, err := owner.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sstats.FactorWorkers != 2 {
		t.Fatalf("server stats report %d factor workers, want 2", sstats.FactorWorkers)
	}
	if err := h.Free(context.Background()); err != nil {
		t.Fatal(err)
	}
}
