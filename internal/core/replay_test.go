package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sstar/internal/sparse"
	"sstar/internal/taskgraph"
)

// replay runs the Factor/Update DAG of sym over a on one goroutine, in a
// topological order drawn from rng, through the executor's own task bodies
// (hostRun.exec) and with the executor's panel store: every panel in its own
// room, packed by its Factor task and read by its updates whenever the order
// runs them. policy picks among the ready tasks: 0 uniformly, 1 the newest
// (long-lived panels, updates late), 2 the oldest.
func replay(t *testing.T, a *sparse.CSR, sym *Symbolic, rng *rand.Rand, policy int) *Factorization {
	t.Helper()
	bm, asm, err := assemble(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	f := &Factorization{Sym: sym, BM: bm, Piv: make([]int32, sym.N), asm: asm}
	f.panels = newPanelStore(bm, true)
	f.panels.begin()
	defer f.panels.end()
	g := sym.TaskGraph()
	r := &hostRun{g: g, bm: bm, piv: f.Piv, panels: f.panels}
	ws := &Workspace{}
	deps := make([]int, len(g.Tasks))
	var ready []int
	for id, task := range g.Tasks {
		if deps[id] = len(task.Pred); deps[id] == 0 {
			ready = append(ready, id)
		}
	}
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		switch policy {
		case 1:
			i = len(ready) - 1 - rng.Intn(min(2, len(ready)))
		case 2:
			i = rng.Intn(min(2, len(ready)))
		}
		task := g.Tasks[ready[i]]
		ready = append(ready[:i], ready[i+1:]...)
		if err := r.exec(task, ws); err != nil {
			t.Fatal(err)
		}
		for _, s := range task.Succ {
			if deps[s]--; deps[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	f.Fl = ws.Fl
	return f
}

// replayMatrices are the replays' matrices, at reduced size: big panels
// (ex11), the reservoir mid-range (sherman5) and tiny panels (lnsp3937).
func replayMatrices() []struct {
	name string
	a    *sparse.CSR
} {
	dim := func(n int, s float64) int { return max(2, int(math.Round(float64(n)*s))) }
	return []struct {
		name string
		a    *sparse.CSR
	}{
		{"ex11@0.5", sparse.Grid3D(dim(10, 0.5), dim(10, 0.5), dim(10, 0.5), sparse.GenOptions{DOF: 4, Convection: 0.5, Seed: 110})},
		{"sherman5@0.4", sparse.Grid3D(dim(16, 0.4), dim(23, 0.4), 3, sparse.GenOptions{DOF: 3, Convection: 0.4, DiagCoupling: true, Seed: 101})},
		{"lnsp3937@0.4", sparse.Grid2D(dim(63, 0.4), dim(62, 0.4), false, sparse.GenOptions{Convection: 0.8, StructuralDrop: 0.25, Seed: 102})},
	}
}

// sameSlab fails unless got's value slab, pivots and flop tally are
// want's bit for bit.
func sameSlab(t *testing.T, label string, got, want *Factorization) {
	t.Helper()
	vals, wantVals := got.BM.Values(), want.BM.Values()
	for q := range vals {
		if math.Float64bits(vals[q]) != math.Float64bits(wantVals[q]) {
			t.Fatalf("%s: slab entry %d is %v, FactorizeSeq has %v", label, q, vals[q], wantVals[q])
		}
	}
	for m := range got.Piv {
		if got.Piv[m] != want.Piv[m] {
			t.Fatalf("%s: pivot %d is %d, FactorizeSeq has %d", label, m, got.Piv[m], want.Piv[m])
		}
	}
	if got.Fl != want.Fl {
		t.Fatalf("%s: flops %+v, FactorizeSeq %+v", label, got.Fl, want.Fl)
	}
}

// TestReplayRandomOrders holds the executor's task bodies, with panels packed
// once per Factor(k) and read by every Update(k, ·), to FactorizeSeq bit for
// bit under seeded random topological orders. A panel image read before its
// Factor task packed it, or overwritten while an update still needs it,
// changes the factors. Seed budget: 30 orders on each of three matrices (ten
// per policy), under a second in all.
func TestReplayRandomOrders(t *testing.T) {
	const orders = 30
	for _, c := range replayMatrices() {
		sym := Analyze(c.a, AnalyzeOptions{})
		want, err := FactorizeSeq(c.a, sym)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		for seed := int64(0); seed < orders; seed++ {
			got := replay(t, c.a, sym, rand.New(rand.NewSource(seed)), int(seed%3))
			sameSlab(t, fmt.Sprintf("%s seed %d", c.name, seed), got, want)
		}
		t.Logf("%s: %d tasks, %d orders in %v", c.name, len(sym.TaskGraph().Tasks), orders, time.Since(t0).Round(time.Millisecond))
	}
}

// replaySchedule runs the host executor's compute-ahead lists for workers
// workers over a on one goroutine, through its task bodies (hostRun.exec) and
// its panel store, interleaving the lists at random: each step runs the next
// task of a list drawn from rng among those whose next task may start. The
// only constraint between lists is the executor's flag, that an Update(k, ·)
// starts after Factor(k) has run; within a list the order is the list's.
func replaySchedule(t *testing.T, a *sparse.CSR, sym *Symbolic, workers int, rng *rand.Rand) *Factorization {
	t.Helper()
	bm, asm, err := assemble(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	f := &Factorization{Sym: sym, BM: bm, Piv: make([]int32, sym.N), asm: asm}
	f.panels = newPanelStore(bm, true)
	f.panels.begin()
	defer f.panels.end()
	r := newHostRun(sym.TaskGraph(), workers)
	r.bm, r.piv, r.panels = bm, f.Piv, f.panels
	ws := &Workspace{}
	factored := make([]bool, sym.Partition.NB)
	next := make([]int, workers)
	var movable []int
	for {
		movable = movable[:0]
		for w, list := range r.schedule.Order {
			if next[w] == len(list) {
				continue
			}
			if task := r.g.Tasks[list[next[w]]]; task.Kind == taskgraph.KindFactor || factored[task.K] {
				movable = append(movable, w)
			}
		}
		if len(movable) == 0 {
			break
		}
		w := movable[rng.Intn(len(movable))]
		task := r.g.Tasks[r.schedule.Order[w][next[w]]]
		next[w]++
		if err := r.exec(task, ws); err != nil {
			t.Fatal(err)
		}
		if task.Kind == taskgraph.KindFactor {
			factored[task.K] = true
		}
	}
	for w, list := range r.schedule.Order {
		if next[w] != len(list) {
			t.Fatalf("%d workers: the lists deadlock with worker %d at task %d of %d", workers, w, next[w], len(list))
		}
	}
	f.Fl = ws.Fl
	return f
}

// TestReplayScheduleOrders holds the host executor's schedule to
// FactorizeSeq bit for bit under seeded random interleavings of its lists at
// 1 to 4 workers: every run a flag per panel admits gives the sequential
// factors. An Update that ran before its panel's Factor changes them. Seed
// budget: 8 interleavings per worker count on each of three matrices, a fifth
// of a second in all.
func TestReplayScheduleOrders(t *testing.T) {
	const orders = 8
	for _, c := range replayMatrices() {
		sym := Analyze(c.a, AnalyzeOptions{})
		want, err := FactorizeSeq(c.a, sym)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		for workers := 1; workers <= 4; workers++ {
			for seed := int64(0); seed < orders; seed++ {
				got := replaySchedule(t, c.a, sym, workers, rand.New(rand.NewSource(seed)))
				sameSlab(t, fmt.Sprintf("%s, %d workers, seed %d", c.name, workers, seed), got, want)
			}
		}
		t.Logf("%s: %d panels, %d interleavings in %v", c.name, sym.Partition.NB, 4*orders, time.Since(t0).Round(time.Millisecond))
	}
}
