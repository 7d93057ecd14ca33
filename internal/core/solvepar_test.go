package core

import (
	"math"
	"testing"

	"sstar/internal/machine"
	"sstar/internal/sched"
	"sstar/internal/sparse"
	"sstar/internal/taskgraph"
)

// byColumn is the 1D ownership rule: block column j lives at owner[j].
func byColumn(owner []int) func(i, j int) int {
	return func(_, j int) int { return owner[j] }
}

// byGrid is the 2D block-cyclic ownership rule on a pr x pc grid.
func byGrid(pr, pc int) func(i, j int) int {
	return func(i, j int) int { return i%pr*pc + j%pc }
}

func TestSolveParByColumnMatchesSequential(t *testing.T) {
	a := sparse.Grid2D(11, 11, false, sparse.GenOptions{Seed: 85, WeakDiagFraction: 0.15, Convection: 0.4})
	sym := analyzeFor(t, a, 8, 4)
	for _, nproc := range []int{1, 2, 4, 7} {
		s := ScheduleCA(sym, nproc)
		res, err := Factorize1D(a, sym, machine.T3E(), s)
		if err != nil {
			t.Fatal(err)
		}
		b := randRHS(a.N, 86)
		xSeq := res.Fact.Solve(b)
		sr, err := SolvePar(res.Fact, nproc, byColumn(s.Owner), machine.T3E(), b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sr.X {
			if math.Abs(sr.X[i]-xSeq[i]) > 1e-11*(1+math.Abs(xSeq[i])) {
				t.Fatalf("P=%d: distributed solve differs at %d: %g vs %g", nproc, i, sr.X[i], xSeq[i])
			}
		}
		if r := residual(a, sr.X, b); r > 1e-9 {
			t.Fatalf("P=%d: residual %g", nproc, r)
		}
		if nproc == 1 && sr.SentMessages != 0 {
			t.Fatalf("single-processor solve sent %d messages", sr.SentMessages)
		}
		if sr.ParallelTime <= 0 {
			t.Fatal("non-positive solve time")
		}
	}
}

func TestSolveParByColumnWithRAPIDOwners(t *testing.T) {
	a := sparse.Circuit(150, 3, sparse.GenOptions{Seed: 87})
	sym := analyzeFor(t, a, 8, 4)
	model := machine.T3E()
	s := ScheduleRAPID(sym, 4, model)
	res, err := Factorize1D(a, sym, model, s)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 88)
	sr, err := SolvePar(res.Fact, 4, byColumn(s.Owner), model, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, sr.X, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

// TestSolveMuchCheaperThanFactor checks the paper's Section 2 remark: "the
// triangular solvers are much less time consuming than the Gaussian
// elimination process".
func TestSolveMuchCheaperThanFactor(t *testing.T) {
	a := sparse.Grid2D(32, 32, false, sparse.GenOptions{Seed: 89})
	sym := analyzeFor(t, a, 25, 4)
	model := machine.T3E()
	s := ScheduleCA(sym, 4)
	res, err := Factorize1D(a, sym, model, s)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 90)
	sr, err := SolvePar(res.Fact, 4, byColumn(s.Owner), model, b)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ParallelTime*3 > res.ParallelTime {
		t.Fatalf("solve time %v not well below factor time %v", sr.ParallelTime, res.ParallelTime)
	}
}

func TestSolveParByColumnDeterministicTime(t *testing.T) {
	a := sparse.Grid2D(9, 9, false, sparse.GenOptions{Seed: 91, WeakDiagFraction: 0.2})
	sym := analyzeFor(t, a, 6, 3)
	s := ScheduleCA(sym, 3)
	res, err := Factorize1D(a, sym, machine.T3D(), s)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 92)
	var first float64 = -1
	for i := 0; i < 4; i++ {
		sr, err := SolvePar(res.Fact, 3, byColumn(s.Owner), machine.T3D(), b)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = sr.ParallelTime
		} else if sr.ParallelTime != first {
			t.Fatalf("solve time not deterministic: %v vs %v", sr.ParallelTime, first)
		}
	}
}

// Exercise the owner-map flexibility: a deliberately bad (all-on-one) owner
// map must still give correct answers.
func TestSolveParByColumnDegenerateOwners(t *testing.T) {
	a := sparse.RandomSparse(80, 3, 93)
	sym := analyzeFor(t, a, 8, 4)
	owner := make([]int, sym.Partition.NB)
	for i := range owner {
		owner[i] = 1 // everything on processor 1 of 3
	}
	res, err := Factorize1D(a, sym, machine.Unit(), &sched.Schedule{P: 3, Owner: owner, Order: ordersFor(sym, owner, 3)})
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 94)
	sr, err := SolvePar(res.Fact, 3, byColumn(owner), machine.Unit(), b)
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, sr.X, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
}

// ordersFor builds a valid sequential task order for an owner map (helper for
// the degenerate-owner test).
func ordersFor(sym *Symbolic, owner []int, nproc int) [][]int {
	g := taskgraph.Build(sym.Partition)
	order := make([][]int, nproc)
	for _, id := range g.TopoOrder() {
		t := g.Tasks[id]
		order[owner[t.J]] = append(order[owner[t.J]], id)
	}
	return order
}

func TestSolvePar2DMatchesSequential(t *testing.T) {
	a := sparse.Grid2D(11, 11, false, sparse.GenOptions{Seed: 95, WeakDiagFraction: 0.15, Convection: 0.4})
	sym := analyzeFor(t, a, 8, 4)
	for _, grid := range [][2]int{{1, 1}, {1, 3}, {2, 2}, {2, 4}, {3, 2}} {
		res, err := Factorize2D(a, sym, machine.T3E(), grid[0], grid[1], true)
		if err != nil {
			t.Fatal(err)
		}
		b := randRHS(a.N, 96)
		xSeq := res.Fact.Solve(b)
		sr, err := SolvePar(res.Fact, grid[0]*grid[1], byGrid(grid[0], grid[1]), machine.T3E(), b)
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		for i := range sr.X {
			if math.Abs(sr.X[i]-xSeq[i]) > 1e-11*(1+math.Abs(xSeq[i])) {
				t.Fatalf("grid %v: 2D solve differs at %d: %g vs %g", grid, i, sr.X[i], xSeq[i])
			}
		}
		if r := residual(a, sr.X, b); r > 1e-9 {
			t.Fatalf("grid %v: residual %g", grid, r)
		}
	}
}

func TestSolvePar2DDeterministicAndCheap(t *testing.T) {
	a := sparse.Grid2D(20, 20, false, sparse.GenOptions{Seed: 97})
	sym := analyzeFor(t, a, 16, 4)
	res, err := Factorize2D(a, sym, machine.T3E(), 2, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	b := randRHS(a.N, 98)
	var first float64 = -1
	for i := 0; i < 3; i++ {
		sr, err := SolvePar(res.Fact, 8, byGrid(2, 4), machine.T3E(), b)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = sr.ParallelTime
		} else if sr.ParallelTime != first {
			t.Fatalf("2D solve time not deterministic: %v vs %v", sr.ParallelTime, first)
		}
	}
	if first >= res.ParallelTime {
		t.Fatalf("2D solve %v not cheaper than factorization %v", first, res.ParallelTime)
	}
}

// TestSolveParGolden pins what a change to the sweep must not move: message
// and byte counts exactly and the modeled time to the last bit (the model
// time is a sum of float64 charges, so any reordering of sends, receives or
// charges on one processor shows up in it). The matrix is the benchmark
// suite's sherman5 at scale 0.3; the constants were captured from the two
// separate 1D / 2D solvers this one replaced.
func TestSolveParGolden(t *testing.T) {
	a := sparse.Grid3D(5, 7, 3, sparse.GenOptions{DOF: 3, Convection: 0.4, DiagCoupling: true, Seed: 101})
	sym := analyzeFor(t, a, 25, 4)
	model := machine.T3E()
	b := randRHS(a.N, 99)
	for _, c := range []struct {
		name        string
		s           *sched.Schedule // 1D owners; nil for the pr x pc grid
		pr, pc      int
		bytes, msgs int64
		ptBits      uint64
	}{
		{"1d-ca", ScheduleCA(sym, 4), 0, 0, 19360, 689, 0x3f3f6d6561025b3e},
		{"1d-rapid", ScheduleRAPID(sym, 4, model), 0, 0, 17936, 608, 0x3f416efd9033ff97},
		{"2x2", nil, 2, 2, 18056, 598, 0x3f421f3d32e733e7},
		{"2x4", nil, 2, 4, 24112, 811, 0x3f3b423be707a1bf},
	} {
		var res *ParResult
		var err error
		nproc, at := c.pr*c.pc, byGrid(c.pr, c.pc)
		if c.s != nil {
			nproc, at = c.s.P, byColumn(c.s.Owner)
			res, err = Factorize1D(a, sym, model, c.s)
		} else {
			res, err = Factorize2D(a, sym, model, c.pr, c.pc, true)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sr, err := SolvePar(res.Fact, nproc, at, model, b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sr.SentBytes != c.bytes || sr.SentMessages != c.msgs {
			t.Errorf("%s: sent %d bytes in %d messages, want %d in %d", c.name, sr.SentBytes, sr.SentMessages, c.bytes, c.msgs)
		}
		if want := math.Float64frombits(c.ptBits); sr.ParallelTime != want {
			t.Errorf("%s: parallel time %v (%#x), want %v (%#x)", c.name, sr.ParallelTime, math.Float64bits(sr.ParallelTime), want, c.ptBits)
		}
	}
}
