package core

import (
	"sync"
	"sync/atomic"
	"time"

	"sstar/internal/obs"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/taskgraph"
)

// FactorizeHost runs the numeric factorization on real shared-memory
// hardware: the Factor(k)/Update(k,j) task DAG of the paper's Section 4 is
// executed by `workers` goroutines with atomic dependence counters and a
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
// workers <= 1 falls back to the sequential driver. Each worker owns a
// Workspace, so the kernels allocate nothing once its buffers have grown.
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

// runHost is the task-DAG executor over assembled storage (workers > 1).
func runHost(bm *supernode.BlockMatrix, piv []int32, sym *Symbolic, workers int, sink obs.Sink) (Flops, error) {
	g := taskgraph.Build(sym.Partition)
	if workers > len(g.Tasks) {
		workers = len(g.Tasks)
	}

	// Ready-queue priority: longest weighted path to an exit (bottom level)
	// over raw flop weights. Descheduling the critical path last is the
	// classic way to starve the tail of the factorization, so the heap pops
	// the largest bottom level first.
	blevel := func() []float64 {
		w := g.Weights(1, 1, 1, 1, 0)
		_, bl := g.CriticalPath(w)
		return bl
	}()

	run := &hostRun{
		g:         g,
		deps:      g.InDegrees(),
		blevel:    blevel,
		remaining: int32(len(g.Tasks)),
		sink:      sink,
	}
	run.cond = sync.NewCond(&run.mu)
	for id, d := range run.deps {
		if d == 0 {
			run.ready.push(id, blevel[id])
		}
	}

	tol := sym.pivotTol()
	spaces := make([]Workspace, workers)
	var wg sync.WaitGroup
	for w := range spaces {
		wg.Add(1)
		go func(worker int32) {
			defer wg.Done()
			run.work(bm, piv, tol, &spaces[worker], worker)
		}(int32(w))
	}
	wg.Wait()
	// Merge the per-worker flop tallies (integer sums: order-independent).
	var fl Flops
	for w := range spaces {
		fl.Add(spaces[w].Fl)
	}
	return fl, run.err
}

// hostRun is the shared state of one parallel factorization: the dependence
// counters (decremented atomically on task completion), the priority ready
// queue (mutex+cond protected) and the first error.
type hostRun struct {
	g      *taskgraph.Graph
	deps   []int32
	blevel []float64

	mu        sync.Mutex
	cond      *sync.Cond
	ready     taskHeap
	remaining int32
	err       error
	aborted   bool
	sink      obs.Sink
}

// work is one worker's loop: pop the highest-priority ready task, execute it,
// release the successors whose dependence counters hit zero.
func (r *hostRun) work(bm *supernode.BlockMatrix, piv []int32, tol float64, ws *Workspace, worker int32) {
	for {
		r.mu.Lock()
		for len(r.ready.ids) == 0 && !r.aborted && r.remaining > 0 {
			r.cond.Wait()
		}
		if r.aborted || r.remaining == 0 {
			r.mu.Unlock()
			return
		}
		id := r.ready.pop()
		r.mu.Unlock()

		t := r.g.Tasks[id]
		var t0 time.Time
		if r.sink != nil {
			t0 = time.Now()
		}
		var err error
		if t.Kind == taskgraph.KindFactor {
			err = FactorPanel(bm, t.K, piv, tol, ws)
		} else {
			UpdatePanelPair(bm, t.K, t.J, piv, ws)
		}
		if r.sink != nil {
			kind := obs.KindFactor
			if t.Kind == taskgraph.KindUpdate {
				kind = obs.KindUpdate
			}
			r.sink.Task(obs.TaskEvent{Kind: kind, K: int32(t.K), J: int32(t.J), Worker: worker,
				StartNs: t0.UnixNano(), DurNs: time.Since(t0).Nanoseconds()})
		}
		if err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.aborted = true
			r.mu.Unlock()
			r.cond.Broadcast()
			return
		}

		// Release successors. The atomic decrement orders this task's writes
		// before the successor's execution: the worker that drops a counter
		// to zero publishes the task through the mutex-protected queue.
		for _, s := range t.Succ {
			if atomic.AddInt32(&r.deps[s], -1) == 0 {
				r.mu.Lock()
				r.ready.push(s, r.blevel[s])
				r.mu.Unlock()
				r.cond.Signal()
			}
		}
		r.mu.Lock()
		r.remaining--
		done := r.remaining == 0
		r.mu.Unlock()
		if done {
			r.cond.Broadcast()
		}
	}
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
