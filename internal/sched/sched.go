// Package sched provides the two 1D scheduling strategies the paper compares
// (Section 5.1): block-cyclic mapping for the compute-ahead (CA) code, and
// critical-path list scheduling of the task graph in the style of
// PYRROS/RAPID for the graph-scheduled code. Because the 1D codes use
// owner-compute column mapping, the scheduler assigns *column blocks* (task
// clusters) to processors and orders each processor's tasks: the CA code in
// the global k-major order, the graph schedules by bottom-level priority.
// A Schedule is what both executors of the 1D codes run: the virtual
// machine's (core.Factorize1D) and, for the CA schedule, the host's
// (core.FactorizeHost), where every dependence that crosses processors is a
// Factor(k) -> Update(k, j) edge.
package sched

import (
	"math"
	"sort"

	"sstar/internal/taskgraph"
)

// Schedule is the result of mapping a task graph onto P processors.
type Schedule struct {
	P int
	// Owner[j] = processor owning column block j (and so all its tasks).
	Owner []int
	// Order[p] = task ids assigned to processor p, in execution order.
	Order [][]int
	// Makespan is the scheduler's *estimate* of the parallel time; the
	// machine-level execution recomputes the real (virtual) time.
	Makespan float64
}

// CyclicOwners returns the block-cyclic column mapping used by the CA code.
func CyclicOwners(nb, p int) []int {
	owner := make([]int, nb)
	for j := 0; j < nb; j++ {
		owner[j] = j % p
	}
	return owner
}

// ComputeAhead builds the schedule of the CA code (Fig. 10): cyclic column
// ownership, with each processor executing its tasks in the global
// k-major order, except that Update(k, k+1) and Factor(k+1) are promoted
// ahead of the remaining Update(k, *) tasks so that the next pivot panel is
// produced and broadcast as early as possible. Update(k, *) are Factor(k)'s
// successors, which taskgraph.Build lists in ascending j, so the schedule
// costs one pass over the tasks.
func ComputeAhead(g *taskgraph.Graph, p int) *Schedule {
	owner := CyclicOwners(g.NB, p)
	s := &Schedule{P: p, Owner: owner, Order: make([][]int, p)}
	assign := func(id int) {
		pr := owner[g.Tasks[id].J]
		s.Order[pr] = append(s.Order[pr], id)
	}
	assign(g.Factor(0))
	for k := 0; k < g.NB-1; k++ {
		// Compute-ahead: the (k, k+1) update and the next factor first.
		updates := g.Tasks[g.Factor(k)].Succ
		if len(updates) > 0 && g.Tasks[updates[0]].J == k+1 {
			assign(updates[0])
			updates = updates[1:]
		}
		assign(g.Factor(k + 1))
		for _, id := range updates {
			assign(id)
		}
	}
	return s
}

// ListSchedule runs communication-aware critical-path list scheduling with
// the owner-compute clustering constraint: it decides (a) which processor
// owns each column block and (b) the task order on each processor. Task
// weights w are in seconds; commCost(bytes) converts a cross-processor edge
// payload to seconds.
func ListSchedule(g *taskgraph.Graph, p int, w []float64, commCost func(int) float64) *Schedule {
	n := len(g.Tasks)
	_, blevel := g.CriticalPath(w)
	s := &Schedule{P: p, Owner: make([]int, g.NB), Order: make([][]int, p)}
	for j := range s.Owner {
		s.Owner[j] = -1
	}
	// Event-driven ETF-style simulation: ready tasks are picked by highest
	// bottom level; each task runs on its column's owner, chosen on first
	// contact as the processor that can start it earliest (accounting for
	// the Factor broadcast payload of cross-processor predecessors).
	indeg := make([]int, n)
	for _, t := range g.Tasks {
		for _, succ := range t.Succ {
			indeg[succ]++
		}
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	procAvail := make([]float64, p)
	finish := make([]float64, n)
	scheduled := 0
	for scheduled < n {
		// Pick the ready task with the highest bottom level.
		sort.Slice(ready, func(a, b int) bool {
			if blevel[ready[a]] != blevel[ready[b]] {
				return blevel[ready[a]] > blevel[ready[b]]
			}
			return ready[a] < ready[b]
		})
		id := ready[0]
		ready = ready[1:]
		t := g.Tasks[id]
		// Candidate processors: the owner if fixed, else all.
		var candidates []int
		if s.Owner[t.J] >= 0 {
			candidates = []int{s.Owner[t.J]}
		} else {
			candidates = make([]int, p)
			for i := range candidates {
				candidates[i] = i
			}
		}
		bestProc, bestStart := -1, 0.0
		for _, pr := range candidates {
			start := procAvail[pr]
			for _, pred := range t.Pred {
				pt := g.Tasks[pred]
				avail := finish[pred]
				if s.Owner[pt.J] != pr {
					avail += commCost(pt.CommBytes)
				}
				if avail > start {
					start = avail
				}
			}
			if bestProc == -1 || start < bestStart || (start == bestStart && procAvail[pr] < procAvail[bestProc]) {
				bestProc, bestStart = pr, start
			}
		}
		s.Owner[t.J] = bestProc
		s.Order[bestProc] = append(s.Order[bestProc], id)
		finish[id] = bestStart + w[id]
		procAvail[bestProc] = finish[id]
		if finish[id] > s.Makespan {
			s.Makespan = finish[id]
		}
		scheduled++
		for _, succ := range t.Succ {
			indeg[succ]--
			if indeg[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	return s
}

// LPTSchedule is the second graph-scheduling heuristic: column clusters are
// assigned to processors by longest-processing-time-first bin packing of the
// cluster work (optimizing balance), and each processor executes its tasks in
// global bottom-level priority order. It tends to beat pure ETF when
// communication is cheap relative to imbalance, and lose when locality along
// the critical path matters — ScheduleRAPID picks whichever simulates faster.
func LPTSchedule(g *taskgraph.Graph, p int, w []float64) *Schedule {
	_, blevel := g.CriticalPath(w)
	// Cluster work per column block.
	work := make([]float64, g.NB)
	for i, t := range g.Tasks {
		work[t.J] += w[i]
	}
	cols := make([]int, g.NB)
	for j := range cols {
		cols[j] = j
	}
	sort.Slice(cols, func(a, b int) bool {
		if work[cols[a]] != work[cols[b]] {
			return work[cols[a]] > work[cols[b]]
		}
		return cols[a] < cols[b]
	})
	owner := make([]int, g.NB)
	load := make([]float64, p)
	for _, j := range cols {
		best := 0
		for q := 1; q < p; q++ {
			if load[q] < load[best] {
				best = q
			}
		}
		owner[j] = best
		load[best] += work[j]
	}
	// Per-processor order: topological order broken by bottom level.
	s := &Schedule{P: p, Owner: owner, Order: make([][]int, p)}
	order := prioritizedTopoOrder(g, blevel)
	for _, id := range order {
		pr := owner[g.Tasks[id].J]
		s.Order[pr] = append(s.Order[pr], id)
	}
	return s
}

// prioritizedTopoOrder returns a topological order that releases the
// highest-bottom-level ready task first.
func prioritizedTopoOrder(g *taskgraph.Graph, blevel []float64) []int {
	n := len(g.Tasks)
	indeg := make([]int, n)
	for _, t := range g.Tasks {
		for _, s := range t.Succ {
			indeg[s]++
		}
	}
	var ready []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	out := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Slice(ready, func(a, b int) bool {
			if blevel[ready[a]] != blevel[ready[b]] {
				return blevel[ready[a]] > blevel[ready[b]]
			}
			return ready[a] < ready[b]
		})
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, s := range g.Tasks[id].Succ {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return out
}

// Estimate plays a schedule with blocking semantics (each processor runs its
// task list in order; a task starts when its predecessors are done, plus the
// communication delay for cross-processor edges) and returns the makespan.
// This is the scheduler-side counterpart of the virtual-machine execution.
func Estimate(g *taskgraph.Graph, s *Schedule, w []float64, commCost func(int) float64) float64 {
	n := len(g.Tasks)
	finish := make([]float64, n)
	done := make([]bool, n)
	procOf := make([]int, n)
	for p := 0; p < s.P; p++ {
		for _, id := range s.Order[p] {
			procOf[id] = p
		}
	}
	idx := make([]int, s.P)
	avail := make([]float64, s.P)
	remaining := n
	for remaining > 0 {
		progress := false
		for p := 0; p < s.P; p++ {
			for idx[p] < len(s.Order[p]) {
				id := s.Order[p][idx[p]]
				start := avail[p]
				ok := true
				for _, pred := range g.Tasks[id].Pred {
					if !done[pred] {
						ok = false
						break
					}
					t := finish[pred]
					if procOf[pred] != p {
						t += commCost(g.Tasks[pred].CommBytes)
					}
					if t > start {
						start = t
					}
				}
				if !ok {
					break
				}
				finish[id] = start + w[id]
				avail[p] = finish[id]
				done[id] = true
				idx[p]++
				remaining--
				progress = true
			}
		}
		if !progress {
			// The schedule deadlocks under blocking execution; report it
			// as unusable.
			return math.Inf(1)
		}
	}
	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	return max
}

// Best returns whichever of the candidate schedules simulates fastest.
func Best(g *taskgraph.Graph, w []float64, commCost func(int) float64, candidates ...*Schedule) *Schedule {
	var best *Schedule
	bestT := math.Inf(1)
	for _, s := range candidates {
		if t := Estimate(g, s, w, commCost); t < bestT {
			best, bestT = s, t
		}
	}
	best.Makespan = bestT
	return best
}

// LoadBalance returns the load balance factor work_total / (P * work_max)
// over the update work only (the paper's Fig. 18 metric), given each task's
// weight and an ownership assignment of tasks to processors.
func LoadBalance(g *taskgraph.Graph, w []float64, taskProc func(*taskgraph.Task) int, p int) float64 {
	per := make([]float64, p)
	total := 0.0
	for i, t := range g.Tasks {
		if t.Kind != taskgraph.KindUpdate {
			continue
		}
		per[taskProc(t)] += w[i]
		total += w[i]
	}
	max := 0.0
	for _, v := range per {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		return 1
	}
	return total / (float64(p) * max)
}
