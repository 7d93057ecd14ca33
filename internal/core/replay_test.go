package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sstar/internal/sparse"
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
	dag := sym.dag()
	r := newHostRun(dag)
	r.bm, r.piv, r.panels = bm, f.Piv, f.panels
	ws := &Workspace{}
	deps := append([]int32(nil), dag.indeg...)
	var ready []int
	for id, d := range deps {
		if d == 0 {
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
		task := dag.g.Tasks[ready[i]]
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

// TestReplayRandomOrders holds the executor's task bodies, with panels packed
// once per Factor(k) and read by every Update(k, ·), to FactorizeSeq bit for
// bit under seeded random topological orders. A panel image read before its
// Factor task packed it, or overwritten while an update still needs it,
// changes the factors. Seed budget: 30 orders on each of three matrices (ten
// per policy), under a second in all.
func TestReplayRandomOrders(t *testing.T) {
	const orders = 30
	dim := func(n int, s float64) int { return max(2, int(math.Round(float64(n)*s))) }
	for _, c := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"ex11@0.5", sparse.Grid3D(dim(10, 0.5), dim(10, 0.5), dim(10, 0.5), sparse.GenOptions{DOF: 4, Convection: 0.5, Seed: 110})},
		{"sherman5@0.4", sparse.Grid3D(dim(16, 0.4), dim(23, 0.4), 3, sparse.GenOptions{DOF: 3, Convection: 0.4, DiagCoupling: true, Seed: 101})},
		{"lnsp3937@0.4", sparse.Grid2D(dim(63, 0.4), dim(62, 0.4), false, sparse.GenOptions{Convection: 0.8, StructuralDrop: 0.25, Seed: 102})},
	} {
		sym := Analyze(c.a, AnalyzeOptions{})
		want, err := FactorizeSeq(c.a, sym)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		for seed := int64(0); seed < orders; seed++ {
			got := replay(t, c.a, sym, rand.New(rand.NewSource(seed)), int(seed%3))
			vals, wantVals := got.BM.Values(), want.BM.Values()
			for q := range vals {
				if math.Float64bits(vals[q]) != math.Float64bits(wantVals[q]) {
					t.Fatalf("%s seed %d: slab entry %d is %v, FactorizeSeq has %v", c.name, seed, q, vals[q], wantVals[q])
				}
			}
			for m := range got.Piv {
				if got.Piv[m] != want.Piv[m] {
					t.Fatalf("%s seed %d: pivot %d is %d, FactorizeSeq has %d", c.name, seed, m, got.Piv[m], want.Piv[m])
				}
			}
			if got.Fl != want.Fl {
				t.Fatalf("%s seed %d: flops %+v, FactorizeSeq %+v", c.name, seed, got.Fl, want.Fl)
			}
		}
		t.Logf("%s: %d tasks, %d orders in %v", c.name, len(sym.TaskGraph().Tasks), orders, time.Since(t0).Round(time.Millisecond))
	}
}
