// Package taskgraph builds the static directed acyclic task graphs that model
// the irregular parallelism of partitioned sparse LU (paper Section 4): tasks
// Factor(k) and Update(k, j) with the four dependence properties plus the
// Update-chain serialization property, task weights derived from flop counts,
// critical-path analytics and Gantt charts (Figs. 9 and 11).
package taskgraph

import (
	"fmt"
	"sort"

	"sstar/internal/supernode"
)

// Kind distinguishes the two task types.
type Kind uint8

const (
	// KindFactor is task Factor(k): factorize block column k.
	KindFactor Kind = iota
	// KindUpdate is task Update(k, j): apply panel k to block column j.
	KindUpdate
)

// Task is one node of the LU task DAG.
type Task struct {
	ID   int
	Kind Kind
	K    int // elimination step (block index)
	J    int // target column block (Update only; == K for Factor)

	// Flop-class weights, converted to seconds by a machine model.
	B1, B2, B3, Sw int64
	// CommBytes is the payload this task's outgoing cross-processor edges
	// carry (for Factor(k): the pivot sequence plus block column k).
	CommBytes int

	Succ []int // successor task ids
	Pred []int // predecessor task ids
}

// Label renders the task name in the paper's notation.
func (t *Task) Label() string {
	if t.Kind == KindFactor {
		return fmt.Sprintf("F(%d)", t.K)
	}
	return fmt.Sprintf("U(%d,%d)", t.K, t.J)
}

// Graph is the full task DAG of one factorization.
type Graph struct {
	Tasks   []*Task
	NB      int
	factor  []int   // factor[k] = task id of Factor(k)
	updates [][]int // updates[j] = ids of Update(*, j), ascending in k
}

// Factor returns the task id of Factor(k).
func (g *Graph) Factor(k int) int { return g.factor[k] }

// Updates returns the ids of the Update(*, j) chain for column block j in
// ascending source order.
func (g *Graph) Updates(j int) []int { return g.updates[j] }

// Build constructs the task graph of a partition, with weights derived from
// the block structure (flops of each panel factorization and block update).
func Build(p *supernode.Partition) *Graph {
	g := &Graph{NB: p.NB, factor: make([]int, p.NB), updates: make([][]int, p.NB)}
	addTask := func(t *Task) int {
		t.ID = len(g.Tasks)
		g.Tasks = append(g.Tasks, t)
		return t.ID
	}
	// Per-block L row counts drive the weights.
	nL := make([]int64, p.NB)
	for k := 0; k < p.NB; k++ {
		nL[k] = int64(len(p.LRows[k]))
	}
	for k := 0; k < p.NB; k++ {
		s := int64(p.Size(k))
		b1, b2 := factorFlops(s, nL[k])
		ft := &Task{Kind: KindFactor, K: k, J: k, B1: b1, B2: b2}
		// Broadcast payload: pivot sequence + diagonal block + L blocks.
		ft.CommBytes = 8 * int(s+s*s+nL[k]*s)
		g.factor[k] = addTask(ft)
	}
	for k := 0; k < p.NB; k++ {
		s := int64(p.Size(k))
		for _, jb := range p.UBlocks[k] {
			j := int(jb)
			nc := int64(countInBlock(p.UCols[k], p.Start[j], p.Start[j+1]))
			ut := &Task{
				Kind: KindUpdate,
				K:    k,
				J:    j,
				B3:   updateFlops(s, nL[k], nc),
				Sw:   s * nc, // delayed row interchanges, elementwise
			}
			id := addTask(ut)
			g.updates[j] = append(g.updates[j], id)
		}
	}
	// Edges. updates[j] is already ascending in k because the outer loop
	// runs k in order, and the loop over j below lists each Factor(k)'s
	// successors, its Update(k, ·), in ascending j (sched.ComputeAhead reads
	// them in that order).
	edge := func(from, to int) {
		g.Tasks[from].Succ = append(g.Tasks[from].Succ, to)
		g.Tasks[to].Pred = append(g.Tasks[to].Pred, from)
	}
	for j := 0; j < p.NB; j++ {
		chain := g.updates[j]
		for i, id := range chain {
			t := g.Tasks[id]
			// Property 3: Factor(k) -> Update(k, j).
			edge(g.factor[t.K], id)
			// Property 5: Update(k, j) -> Update(k', j), consecutive.
			if i+1 < len(chain) {
				edge(id, chain[i+1])
			}
		}
		// Property 4: last Update(k', j) -> Factor(j).
		if len(chain) > 0 {
			edge(chain[len(chain)-1], g.factor[j])
		}
	}
	return g
}

// factorFlops is the weight of Factor(k) on an s-wide panel with nL L rows:
// per panel column, a scale plus a rank-1 update of the panel to the right
// over all rows below.
func factorFlops(s, nL int64) (b1, b2 int64) {
	for mc := int64(0); mc < s; mc++ {
		below := (s - mc - 1) + nL
		b1 += below
		b2 += 2 * below * (s - mc - 1)
	}
	return b1, b2
}

// updateFlops is the weight of Update(k, j) carrying nc columns of U_kj: the
// triangular scaling of U_kj plus the block updates below it.
func updateFlops(s, nL, nc int64) int64 { return nc*s*(s-1) + 2*nL*nc*s }

// Work returns the task count and the total flops (B1+B2+B3) of the task
// graph Build would make of p, from the partition's counts alone: the graph
// is not built. Update(k, ·) splits panel k's U columns among its tasks and
// its weight is linear in their count, so the panel's update flops need only
// that count.
func Work(p *supernode.Partition) (tasks int, flops int64) {
	tasks = p.NB
	for k := 0; k < p.NB; k++ {
		s, nL := int64(p.Size(k)), int64(len(p.LRows[k]))
		b1, b2 := factorFlops(s, nL)
		flops += b1 + b2 + updateFlops(s, nL, int64(len(p.UCols[k])))
		tasks += len(p.UBlocks[k])
	}
	return tasks, flops
}

func countInBlock(cols []int32, lo, hi int) int {
	n := 0
	for _, c := range cols {
		if int(c) >= lo && int(c) < hi {
			n++
		}
	}
	return n
}

// Weights converts each task's flop classes to seconds given per-class rates
// (flops/sec for b1/b2/b3, elements/sec for swaps) plus a fixed per-task
// overhead.
func (g *Graph) Weights(rate1, rate2, rate3, swapRate, overhead float64) []float64 {
	w := make([]float64, len(g.Tasks))
	for i, t := range g.Tasks {
		w[i] = overhead +
			float64(t.B1)/rate1 +
			float64(t.B2)/rate2 +
			float64(t.B3)/rate3 +
			float64(t.Sw)/swapRate
	}
	return w
}

// CriticalPath returns the length of the longest weighted path (task weights
// w, zero communication) and each task's bottom level (longest path from the
// task to an exit, inclusive).
func (g *Graph) CriticalPath(w []float64) (float64, []float64) {
	blevel := make([]float64, len(g.Tasks))
	order := g.TopoOrder()
	cp := 0.0
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, s := range g.Tasks[id].Succ {
			if blevel[s] > best {
				best = blevel[s]
			}
		}
		blevel[id] = w[id] + best
		if blevel[id] > cp {
			cp = blevel[id]
		}
	}
	return cp, blevel
}

// TopoOrder returns a topological order of the task ids.
func (g *Graph) TopoOrder() []int {
	n := len(g.Tasks)
	indeg := make([]int, n)
	for _, t := range g.Tasks {
		for _, s := range t.Succ {
			indeg[s]++
		}
	}
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	order := make([]int, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range g.Tasks[id].Succ {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		panic("taskgraph: dependence cycle")
	}
	return order
}

// TotalWork returns the sum of all task weights.
func (g *Graph) TotalWork(w []float64) float64 {
	s := 0.0
	for _, v := range w {
		s += v
	}
	return s
}

// GanttEntry is one scheduled execution interval, for rendering Fig. 11-style
// charts.
type GanttEntry struct {
	Task       int
	Proc       int
	Start, End float64
}

// RenderGantt formats a Gantt chart as text, one line per processor.
func RenderGantt(g *Graph, entries []GanttEntry, procs int) string {
	perProc := make([][]GanttEntry, procs)
	for _, e := range entries {
		perProc[e.Proc] = append(perProc[e.Proc], e)
	}
	out := ""
	for p := 0; p < procs; p++ {
		sort.Slice(perProc[p], func(i, j int) bool { return perProc[p][i].Start < perProc[p][j].Start })
		out += fmt.Sprintf("P%d:", p)
		for _, e := range perProc[p] {
			out += fmt.Sprintf(" [%.1f %s %.1f]", e.Start, g.Tasks[e.Task].Label(), e.End)
		}
		out += "\n"
	}
	return out
}
