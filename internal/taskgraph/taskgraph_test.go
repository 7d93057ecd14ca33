package taskgraph

import (
	"strings"
	"testing"

	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/symbolic"
)

func buildGraph(t *testing.T, a *sparse.CSR, bsize, amal int) (*Graph, *supernode.Partition) {
	t.Helper()
	st := symbolic.Factorize(sparse.PatternOf(a))
	p := supernode.NewPartition(st, supernode.Options{MaxBlock: bsize, Amalgamate: amal})
	return Build(p), p
}

func TestBuildDenseGraphShape(t *testing.T) {
	g, p := buildGraph(t, sparse.Dense(30, 1), 10, 0)
	if p.NB != 3 {
		t.Fatalf("NB = %d, want 3", p.NB)
	}
	// Dense: N factors + N(N-1)/2 updates.
	wantTasks := 3 + 3
	if len(g.Tasks) != wantTasks {
		t.Fatalf("tasks = %d, want %d", len(g.Tasks), wantTasks)
	}
	// Factor(1) must depend on Update(0,1), Factor(2) on Update(1,2).
	f1 := g.Tasks[g.Factor(1)]
	if len(f1.Pred) != 1 || g.Tasks[f1.Pred[0]].Kind != KindUpdate {
		t.Fatalf("Factor(1) preds wrong: %+v", f1.Pred)
	}
}

func TestGraphDependenceProperties(t *testing.T) {
	a := sparse.Grid2D(8, 8, false, sparse.GenOptions{Seed: 1})
	g, p := buildGraph(t, a, 6, 4)
	if len(g.Tasks) < p.NB {
		t.Fatal("missing tasks")
	}
	for _, id := range g.TopoOrder() {
		task := g.Tasks[id]
		switch task.Kind {
		case KindUpdate:
			// Every update has its factor as a predecessor.
			found := false
			for _, pr := range task.Pred {
				pt := g.Tasks[pr]
				if pt.Kind == KindFactor && pt.K == task.K {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s lacks Factor(%d) predecessor", task.Label(), task.K)
			}
		case KindFactor:
			// Factor(j) must come after the last Update(*, j).
			for _, uid := range g.Updates(task.K) {
				ut := g.Tasks[uid]
				hasPath := false
				for _, s := range ut.Succ {
					st := g.Tasks[s]
					if st.Kind == KindFactor && st.K == task.K {
						hasPath = true
					}
					if st.Kind == KindUpdate && st.J == task.K {
						hasPath = true // chain continues toward Factor
					}
				}
				if !hasPath {
					t.Fatalf("%s has no forward path toward Factor(%d)", ut.Label(), task.K)
				}
			}
		}
	}
}

func TestUpdateChainSerialized(t *testing.T) {
	g, _ := buildGraph(t, sparse.Dense(40, 2), 10, 0)
	for j := 0; j < g.NB; j++ {
		chain := g.Updates(j)
		for i := 0; i+1 < len(chain); i++ {
			cur, next := g.Tasks[chain[i]], g.Tasks[chain[i+1]]
			if cur.K >= next.K {
				t.Fatalf("chain for column %d not ascending", j)
			}
			linked := false
			for _, s := range cur.Succ {
				if s == chain[i+1] {
					linked = true
				}
			}
			if !linked {
				t.Fatalf("chain edge %s -> %s missing", cur.Label(), next.Label())
			}
		}
	}
}

func TestTopoOrderValid(t *testing.T) {
	a := sparse.Circuit(120, 3, sparse.GenOptions{Seed: 2, StructuralDrop: 0.1})
	g, _ := buildGraph(t, a, 8, 4)
	order := g.TopoOrder()
	pos := make([]int, len(g.Tasks))
	for i, id := range order {
		pos[id] = i
	}
	for _, task := range g.Tasks {
		for _, s := range task.Succ {
			if pos[s] <= pos[task.ID] {
				t.Fatalf("topological violation %s -> %s", task.Label(), g.Tasks[s].Label())
			}
		}
	}
}

func TestCriticalPathDenseChain(t *testing.T) {
	g, _ := buildGraph(t, sparse.Dense(30, 3), 10, 0)
	w := make([]float64, len(g.Tasks))
	for i := range w {
		w[i] = 1
	}
	cp, blevel := g.CriticalPath(w)
	// Dense 3-block chain: F0 -> U(0,1) -> F1 -> U(1,2) -> F2 = 5 tasks.
	if cp != 5 {
		t.Fatalf("critical path %v, want 5", cp)
	}
	if blevel[g.Factor(0)] != 5 {
		t.Fatalf("blevel(F0) = %v, want 5", blevel[g.Factor(0)])
	}
	if blevel[g.Factor(g.NB-1)] != 1 {
		t.Fatalf("blevel(last factor) = %v, want 1", blevel[g.Factor(g.NB-1)])
	}
}

func TestWeightsPositive(t *testing.T) {
	a := sparse.Grid2D(7, 7, false, sparse.GenOptions{Seed: 3})
	g, _ := buildGraph(t, a, 5, 3)
	w := g.Weights(1e6, 1e6, 1e8, 1e7, 1e-6)
	for i, task := range g.Tasks {
		if w[i] <= 0 {
			t.Fatalf("task %s has non-positive weight", task.Label())
		}
	}
	if g.TotalWork(w) <= 0 {
		t.Fatal("total work must be positive")
	}
}

// TestWorkMatchesBuild: the counts Work reads off the partition are the
// built graph's task count and flop sum, on every structure family.
func TestWorkMatchesBuild(t *testing.T) {
	for name, a := range map[string]*sparse.CSR{
		"dense":   sparse.Dense(30, 6),
		"grid2d":  sparse.Grid2D(9, 8, false, sparse.GenOptions{Seed: 7}),
		"grid3d":  sparse.Grid3D(5, 5, 4, sparse.GenOptions{DOF: 2, Seed: 8}),
		"circuit": sparse.Circuit(150, 3, sparse.GenOptions{Seed: 9, StructuralDrop: 0.1}),
	} {
		g, p := buildGraph(t, a, 8, 4)
		var flops int64
		for _, task := range g.Tasks {
			flops += task.B1 + task.B2 + task.B3
		}
		if tasks, f := Work(p); tasks != len(g.Tasks) || f != flops {
			t.Fatalf("%s: Work = (%d tasks, %d flops), Build has (%d, %d)", name, tasks, f, len(g.Tasks), flops)
		}
	}
}

func TestCommBytesSet(t *testing.T) {
	g, _ := buildGraph(t, sparse.Dense(20, 4), 10, 0)
	for _, task := range g.Tasks {
		if task.Kind == KindFactor && task.CommBytes <= 0 {
			t.Fatalf("%s has no broadcast payload", task.Label())
		}
	}
}

func TestRenderGantt(t *testing.T) {
	g, _ := buildGraph(t, sparse.Dense(20, 5), 10, 0)
	entries := []GanttEntry{
		{Task: g.Factor(0), Proc: 0, Start: 0, End: 2},
		{Task: g.Updates(1)[0], Proc: 1, Start: 3, End: 5},
	}
	out := RenderGantt(g, entries, 2)
	if !strings.Contains(out, "F(0)") || !strings.Contains(out, "U(0,1)") {
		t.Fatalf("gantt rendering missing labels:\n%s", out)
	}
	if !strings.HasPrefix(out, "P0:") {
		t.Fatalf("gantt rendering malformed:\n%s", out)
	}
}
