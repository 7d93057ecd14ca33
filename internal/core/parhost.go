package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sstar/internal/obs"
	"sstar/internal/sched"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/taskgraph"
)

// FactorizeHost runs the numeric factorization on real shared-memory
// hardware: `workers` goroutines run the compute-ahead schedule of the
// paper's 1D code (Fig. 10, sched.ComputeAhead) over the Factor(k)/Update(k,j)
// tasks of Section 4. Block column j belongs to worker j mod workers, which
// runs every task that writes it, in the schedule's k-major order; an
// Update(k, j) waits for a flag that Factor(k)'s worker sets once panel k is
// factored and packed. This is the wall-clock counterpart of the virtual-time
// 1D code (Factorize1D runs the same schedule value): same tasks, same
// dependences, but the parallel time is real.
//
// Determinism: the factors are bit-identical to FactorizeSeq's, whatever the
// worker count and however the workers interleave. The argument rests on the
// DAG's dependence properties:
//
//   - Update(k, j) writes only block column j and reads only block column k
//     and the panel-k pivot sequence; Factor(k) writes only block column k
//     and piv[panel k]. Tasks targeting different block columns therefore
//     never write the same memory.
//   - All updates into one destination column j are serialized in ascending
//     source order k by the Update-chain property (the chain edges
//     Update(k,j) -> Update(k',j)), and Factor(j) runs after the last of
//     them — exactly the relative order FactorizeSeq executes them in. The
//     schedule keeps both inside column j's owner's list, in that order, so
//     the flag carries the only edge between workers, Factor(k) -> Update(k, j).
//
// So every block column experiences the same sequence of floating-point
// operations on the same inputs as in the sequential code, and the
// accumulation order (the only thing reordering could perturb) is pinned.
// The same holds transitively for the pivot choices, which are a function of
// the (bit-identical) column data.
//
// workers <= 1 falls back to the sequential driver. The worker count is used
// as given, clamped to the block count; the facade's choice of it is
// Symbolic.HostWorkers.
func FactorizeHost(a *sparse.CSR, sym *Symbolic, workers int) (*Factorization, error) {
	return FactorizeHostObs(a, sym, workers, nil)
}

// FactorizeHostObs is FactorizeHost with optional instrumentation: when
// sink is non-nil, every Factor(k)/Update(k,j) task is timed and reported
// with the worker that ran it — the raw material of the Chrome-trace
// pipeline-overlap timeline — and the whole numeric phase is reported as one
// Phase event. A nil sink compiles down to pointer checks: no clocks are
// read, nothing allocates, and the factors are bit-identical either way
// (instrumentation never touches numeric state).
func FactorizeHostObs(a *sparse.CSR, sym *Symbolic, workers int, sink obs.Sink) (*Factorization, error) {
	f := &Factorization{Sym: sym}
	if err := f.Refactorize(a, workers, sink); err != nil {
		return nil, err
	}
	return f, nil
}

// ParallelGrain is G, the mean flops per task from which the host executor
// beats the sequential driver. Measured on a 2-vCPU AVX-512 VM (DESIGN.md
// "Host-parallel numeric factorization"), 2 workers against 1 in 10
// alternating pairs per row of the gate grid: a 20² grid of 598 flops per
// task is the smallest grain at which two workers won at least 8 of the 10
// pairs, and the one row below it, a circuit of 144 flops per task, lost 8.
// The line sits this low because a worker meets another only where it needs
// a panel the other factors, and then reads a flag.
const ParallelGrain = 598

// DefaultHostWorkers is the cap HostWorkers(0) applies: the worker count G
// and the executor's gains were measured at. The schedule's 1D ownership
// bounds the speedup (each worker runs whole block columns), and whether G
// still marks the crossing at more workers is unmeasured, so running more
// takes an explicit cap.
const DefaultHostWorkers = 2

// HostWorkers returns the numeric-phase worker count for a cap of limit
// workers (0: DefaultHostWorkers): min(limit, GOMAXPROCS) when the
// partition's mean task reaches ParallelGrain flops, 1 otherwise. limit 1 is
// always sequential. It reads only the partition's counts (Grain), so a
// sequential verdict never builds the task graph.
func (s *Symbolic) HostWorkers(limit int) int {
	if limit <= 0 {
		limit = DefaultHostWorkers
	}
	w := min(limit, runtime.GOMAXPROCS(0))
	if w <= 1 {
		return 1
	}
	if _, grain := s.Grain(); grain < ParallelGrain {
		return 1
	}
	return w
}

// Grain returns the task count of the partition's Factor/Update DAG and its
// mean flops per task, from the partition's counts (taskgraph.Work) without
// building the graph.
func (s *Symbolic) Grain() (tasks int, flopsPerTask float64) {
	tasks, flops := taskgraph.Work(s.Partition)
	return tasks, float64(flops) / float64(max(tasks, 1))
}

// TaskGraph returns the Factor/Update task DAG of the partition, built once
// per analysis and shared by every consumer: the host executor, the 1D codes
// and their schedulers. Callers must not modify it.
func (s *Symbolic) TaskGraph() *taskgraph.Graph {
	s.graphOnce.Do(func() { s.graph = taskgraph.Build(s.Partition) })
	return s.graph
}

// spinYields bounds a worker's poll for a panel before it parks: 1024 yields
// of its processor, 0.1–0.2 ms when nothing else is runnable (a yield runs
// any other runnable goroutine first, so the poll takes no core another
// wants). Parking earlier costs more than it saves: two workers beat one on
// small grains in 84 % of the pairs at this bound, 55 % at 256 yields and
// 54 % at 4096 (DESIGN.md, "Scheduler").
const spinYields = 1024

// hostRun is the host executor of one Factorization: the compute-ahead
// schedule of the paper's 1D code (sched.ComputeAhead, the schedule
// Factorize1D runs on the virtual machine) on real goroutines, one list per
// worker. In an owner-compute schedule whose lists keep a topological order,
// every task of column j runs on j's owner in list order, so the only
// dependence between lists is Factor(k) -> Update(k, j): one flag per panel
// carries it. The schedule and the flags are made for a worker count on the
// first run at it and reused by later ones, so a run allocates nothing but
// its goroutines.
type hostRun struct {
	g        *taskgraph.Graph
	schedule *sched.Schedule
	// packed[k] is set once Factor(k) has factored and packed panel k in the
	// current run; its store publishes the panel to every worker.
	packed []atomic.Bool

	// The current run's inputs; spaces holds one Workspace per worker.
	bm     *supernode.BlockMatrix
	piv    []int32
	spaces []Workspace
	panels *panelStore
	sink   obs.Sink

	// failed is set, with err, by the first task that fails. mu guards err
	// and the parking: parked counts the workers waiting on cond, which is
	// broadcast when a panel is published to a parked worker or the run
	// fails.
	failed atomic.Bool
	parked atomic.Int32
	mu     sync.Mutex
	cond   sync.Cond
	err    error
	wg     sync.WaitGroup
}

func newHostRun(g *taskgraph.Graph, workers int) *hostRun {
	r := &hostRun{g: g, schedule: sched.ComputeAhead(g, workers), packed: make([]atomic.Bool, g.NB)}
	r.cond.L = &r.mu
	return r
}

// run executes the schedule over assembled storage on one worker per
// workspace (len(spaces) is the schedule's worker count), the calling
// goroutine among them, and returns the merged flop tally and the first
// error. Each panel is packed once, by its Factor task, into panels.
func (r *hostRun) run(bm *supernode.BlockMatrix, piv []int32, spaces []Workspace, panels *panelStore, sink obs.Sink) (Flops, error) {
	for w := range spaces {
		spaces[w].Fl = Flops{}
	}
	for k := range r.packed {
		r.packed[k].Store(false)
	}
	r.bm, r.piv, r.spaces, r.panels, r.sink = bm, piv, spaces, panels, sink
	r.failed.Store(false)
	r.err = nil

	r.wg.Add(len(spaces) - 1)
	for w := 1; w < len(spaces); w++ {
		go r.spawned(w)
	}
	r.work(0)
	r.wg.Wait()

	// Merge the per-worker flop tallies (integer sums: order-independent).
	var fl Flops
	for w := range spaces {
		fl.Add(spaces[w].Fl)
	}
	return fl, r.err
}

func (r *hostRun) spawned(worker int) {
	defer r.wg.Done()
	r.work(worker)
}

// work runs one worker's list in order. An Update(k, j) first waits for
// panel k; a Factor(k) factors and packs panel k (exec), then publishes it.
// No task starts once the run has failed.
func (r *hostRun) work(worker int) {
	tasks, ws := r.g.Tasks, &r.spaces[worker]
	for _, id := range r.schedule.Order[worker] {
		t := tasks[id]
		if t.Kind == taskgraph.KindUpdate && !r.await(t.K) || r.failed.Load() {
			return
		}
		var t0 time.Time
		if r.sink != nil {
			t0 = time.Now()
		}
		err := r.exec(t, ws)
		if r.sink != nil {
			kind := obs.KindFactor
			if t.Kind == taskgraph.KindUpdate {
				kind = obs.KindUpdate
			}
			r.sink.Task(obs.TaskEvent{Kind: kind, K: int32(t.K), J: int32(t.J), Worker: int32(worker),
				StartNs: t0.UnixNano(), DurNs: time.Since(t0).Nanoseconds()})
		}
		if err != nil {
			r.fail(err)
			return
		}
		if t.Kind == taskgraph.KindFactor {
			r.publish(t.K)
		}
	}
}

// await waits until panel k is published and reports whether it was; false
// means the run failed first. It polls for spinYields yields, then parks.
func (r *hostRun) await(k int) bool {
	for range spinYields {
		if r.packed[k].Load() {
			return true
		}
		if r.failed.Load() {
			return false
		}
		runtime.Gosched()
	}
	r.mu.Lock()
	// A publisher that stores the flag after the check below sees parked
	// raised and broadcasts under mu, which it can take only once this
	// worker waits.
	r.parked.Add(1)
	for !r.packed[k].Load() && !r.failed.Load() {
		r.cond.Wait()
	}
	r.parked.Add(-1)
	r.mu.Unlock()
	return r.packed[k].Load()
}

// publish marks panel k factored and packed, waking the parked workers.
func (r *hostRun) publish(k int) {
	r.packed[k].Store(true)
	if r.parked.Load() > 0 {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

// fail records the run's first error and wakes every parked worker to stop.
func (r *hostRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.failed.Store(true)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// exec runs one task on ws. A Factor(k) task packs panel k for its updates.
func (r *hostRun) exec(t *taskgraph.Task, ws *Workspace) error {
	if t.Kind == taskgraph.KindUpdate {
		updatePanelPair(r.bm, t.K, t.J, r.piv, r.panels.panel(t.K), ws)
		return nil
	}
	if err := FactorPanel(r.bm, t.K, r.piv, ws); err != nil {
		return err
	}
	r.panels.pack(t.K)
	return nil
}
