package core

import (
	"runtime"
	"sync"
	"time"

	"sstar/internal/obs"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/taskgraph"
)

// FactorizeHost runs the numeric factorization on real shared-memory
// hardware: the Factor(k)/Update(k,j) task DAG of the paper's Section 4 is
// executed by `workers` goroutines with dependence counters and a
// critical-path-priority ready queue. This is the wall-clock counterpart of
// the virtual-time codes — same tasks, same dependences, but the parallel
// time is real.
//
// Determinism: the factors are bit-identical to FactorizeSeq's, whatever the
// worker count and however the scheduler interleaves. The argument rests on
// the DAG's dependence properties:
//
//   - Update(k, j) writes only block column j and reads only block column k
//     and the panel-k pivot sequence; Factor(k) writes only block column k
//     and piv[panel k]. Tasks targeting different block columns therefore
//     never write the same memory.
//   - All updates into one destination column j are serialized in ascending
//     source order k by the Update-chain property (the chain edges
//     Update(k,j) -> Update(k',j)), and Factor(j) runs after the last of
//     them — exactly the relative order FactorizeSeq executes them in.
//
// So every block column experiences the same sequence of floating-point
// operations on the same inputs as in the sequential code, and the
// accumulation order (the only thing reordering could perturb) is pinned.
// The same holds transitively for the pivot choices, which are a function of
// the (bit-identical) column data.
//
// workers <= 1 falls back to the sequential driver. The worker count is used
// as given; the facade's choice of it is Symbolic.HostWorkers.
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

// ParallelGrain is G, the mean flops per task from which the task-DAG
// executor beats the sequential driver. Below it the per-task handoff — a
// mutex round trip, a heap push and pop, a wake-up — costs more than the
// second worker saves. Measured on a 2-vCPU AVX-512 VM (DESIGN.md
// "Host-parallel numeric factorization"): two workers add h ≈ 0.75–1.1 µs
// of wall time per task over half the sequential time on grains of 0.6k–2k
// flops, and tasks near the line run at r ≈ 2.5 GFLOP/s, so two workers
// break even near 2·h·r ≈ 5k flops per task; grids measured on both sides
// put the crossing between 2.1k (1.31x slower) and 4.7k (0.95x). Every
// suite matrix is at least 3x from G.
const ParallelGrain = 5000

// DefaultHostWorkers is the cap HostWorkers(0) applies: the worker count G
// and the executor's gains were measured at. Whether G still marks the
// crossing at more workers, each adding lock traffic per task, is
// unmeasured, so running more takes an explicit cap.
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

// hostDAG is what the task-DAG executor needs of the partition: the task
// graph, the ready queue's priorities and the initial dependence counters.
// Built once per Symbolic (see Symbolic.dag) and read-only after, so
// concurrent factorizations sharing one analysis share it.
type hostDAG struct {
	g *taskgraph.Graph
	// blevel is each task's bottom level — its longest weighted path to an
	// exit over raw flop weights. Descheduling the critical path last is the
	// classic way to starve the tail of the factorization, so the ready heap
	// pops the largest bottom level first.
	blevel []float64
	indeg  []int32
}

// dag returns the partition's hostDAG, building it on first use.
func (s *Symbolic) dag() *hostDAG {
	s.dagOnce.Do(func() {
		g := taskgraph.Build(s.Partition)
		_, bl := g.CriticalPath(g.Weights(1, 1, 1, 1, 0))
		s.hostDAG = &hostDAG{g: g, blevel: bl, indeg: g.InDegrees()}
	})
	return s.hostDAG
}

// TaskGraph returns the Factor/Update task DAG of the partition, built once
// per analysis and shared by every consumer: the host executor, the 1D codes
// and their schedulers. Callers must not modify it.
func (s *Symbolic) TaskGraph() *taskgraph.Graph { return s.dag().g }

// hostRun is the task-DAG executor of one Factorization. Everything it needs
// beyond the shared hostDAG and the Factorization's workspaces — dependence
// counters and ready-heap storage — is sized on the first run and reused by
// every later one, so a run allocates nothing but its goroutines.
type hostRun struct {
	dag   *hostDAG
	deps  []int32
	ready taskHeap

	// The current run's inputs; spaces holds one Workspace per worker.
	bm     *supernode.BlockMatrix
	piv    []int32
	spaces []Workspace
	panels *panelStore
	sink   obs.Sink

	// mu guards deps, ready, remaining and err; cond signals ready work and
	// the end of the run.
	mu        sync.Mutex
	cond      sync.Cond
	remaining int
	err       error
	wg        sync.WaitGroup
}

func newHostRun(dag *hostDAG) *hostRun {
	n := len(dag.g.Tasks)
	r := &hostRun{
		dag:   dag,
		deps:  make([]int32, n),
		ready: taskHeap{ids: make([]int, 0, n), prio: make([]float64, 0, n)},
	}
	r.cond.L = &r.mu
	return r
}

// run executes the DAG over assembled storage on one worker per workspace,
// the calling goroutine among them, and returns the merged flop tally and the
// first error. Each panel is packed once, by its Factor task, into panels.
func (r *hostRun) run(bm *supernode.BlockMatrix, piv []int32, spaces []Workspace, panels *panelStore, sink obs.Sink) (Flops, error) {
	for w := range spaces {
		spaces[w].Fl = Flops{}
	}
	copy(r.deps, r.dag.indeg)
	r.ready.ids, r.ready.prio = r.ready.ids[:0], r.ready.prio[:0]
	for id, d := range r.deps {
		if d == 0 {
			r.ready.push(id, r.dag.blevel[id])
		}
	}
	r.bm, r.piv, r.spaces, r.panels, r.sink = bm, piv, spaces, panels, sink
	r.remaining, r.err = len(r.deps), nil

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

// work is one worker's loop: pop the highest-priority ready task, execute it,
// then — under the same lock acquisition as the next pop — release the
// successors whose dependence counters hit zero. The worker keeps one
// released task for itself and wakes another worker for each further one.
// A Factor(k) task packs panel k (exec) before it releases the updates that
// read it.
func (r *hostRun) work(worker int) {
	tasks, ws := r.dag.g.Tasks, &r.spaces[worker]
	r.mu.Lock()
	for {
		for len(r.ready.ids) == 0 && r.err == nil && r.remaining > 0 {
			r.cond.Wait()
		}
		if r.err != nil || r.remaining == 0 {
			r.mu.Unlock()
			return
		}
		t := tasks[r.ready.pop()]
		r.mu.Unlock()

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

		// The mutex orders this task's writes before any successor's
		// execution: successors are published through the queue it guards.
		r.mu.Lock()
		if err != nil {
			if r.err == nil {
				r.err = err
			}
			r.cond.Broadcast()
			r.mu.Unlock()
			return
		}
		released := 0
		for _, s := range t.Succ {
			r.deps[s]--
			if r.deps[s] == 0 {
				r.ready.push(s, r.dag.blevel[s])
				released++
			}
		}
		r.remaining--
		if r.remaining == 0 {
			r.cond.Broadcast()
		}
		for ; released > 1; released-- {
			r.cond.Signal()
		}
	}
}

// exec runs one task on ws. A Factor(k) task packs panel k for the updates
// it releases.
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

// taskHeap is a max-heap of task ids keyed by priority, hand-rolled (rather
// than container/heap's interface) to keep pops allocation-free on the hot
// scheduling path.
type taskHeap struct {
	ids  []int
	prio []float64
}

func (h *taskHeap) push(id int, p float64) {
	h.ids = append(h.ids, id)
	h.prio = append(h.prio, p)
	i := len(h.ids) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] >= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *taskHeap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.swap(0, last)
	h.ids = h.ids[:last]
	h.prio = h.prio[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.prio[l] > h.prio[big] {
			big = l
		}
		if r < last && h.prio[r] > h.prio[big] {
			big = r
		}
		if big == i {
			break
		}
		h.swap(i, big)
		i = big
	}
	return top
}

func (h *taskHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
}
