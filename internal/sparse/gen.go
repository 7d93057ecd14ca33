package sparse

import (
	"math"
	"math/rand"
	"sort"
)

// GenOptions controls the synthetic matrix generators. The generators are
// deterministic for a fixed Seed, so every experiment is reproducible.
type GenOptions struct {
	// DOF is the number of unknowns per grid node (1 for scalar PDEs, 3-4
	// for structural/CFD problems). Node couplings become dense DOF x DOF
	// blocks, which is what gives CFD/structural matrices their relatively
	// large supernodes.
	DOF int
	// Convection sets the strength of the nonsymmetric first-order term:
	// the (i,j) and (j,i) couplings differ by a factor drawn from
	// [1-Convection, 1+Convection].
	Convection float64
	// StructuralDrop is the probability that a strictly-upper coupling is
	// dropped while its transpose partner is kept (and vice versa), making
	// the *pattern* nonsymmetric as in lnsp3937/lns3937.
	StructuralDrop float64
	// WeakDiagFraction is the fraction of rows whose diagonal entry is
	// scaled down hard so that partial pivoting must interchange rows.
	WeakDiagFraction float64
	// Anisotropy scales the y-direction (and z) couplings, as in stratified
	// reservoir/vavasis-style problems.
	Anisotropy float64
	// DiagCoupling restricts inter-node couplings to same-DOF pairs (a
	// diagonal DOF x DOF block), as in black-oil reservoir models where
	// only like unknowns couple across cells; node-internal blocks stay
	// full. No effect when DOF == 1.
	DiagCoupling bool
	// Seed for the deterministic RNG.
	Seed int64
}

func (o GenOptions) withDefaults() GenOptions {
	if o.DOF <= 0 {
		o.DOF = 1
	}
	if o.Anisotropy == 0 {
		o.Anisotropy = 1
	}
	if o.WeakDiagFraction == 0 {
		o.WeakDiagFraction = 0.05
	}
	return o
}

// unit and signed draw uniform values in [0, 1) and [-1, 1). The explicit
// conversions round the generator's internal scaling on its own, so no
// compiler fuses it with the caller's arithmetic on FMA architectures and
// every platform generates the same matrices, bit for bit.
func unit(rng *rand.Rand) float64 { return float64(rng.Float64()) }

func signed(rng *rand.Rand) float64 { return float64(2*unit(rng)) - 1 }

type genState struct {
	rng *rand.Rand
	o   GenOptions
	coo *COO
}

// coupling inserts the DOF x DOF blocks coupling nodes u and v (u != v),
// honouring structural drop and convection asymmetry. w is the base stencil
// weight.
func (g *genState) coupling(u, v int, w float64) {
	d := g.o.DOF
	dropUV, dropVU := false, false
	if g.o.StructuralDrop > 0 {
		if g.rng.Float64() < g.o.StructuralDrop {
			if g.rng.Intn(2) == 0 {
				dropUV = true
			} else {
				dropVU = true
			}
		}
	}
	skew := 1 + float64(g.o.Convection*signed(g.rng))
	for p := 0; p < d; p++ {
		for q := 0; q < d; q++ {
			if g.o.DiagCoupling && p != q {
				continue
			}
			// Couple DOF pairs with decaying magnitude off the block
			// diagonal so blocks are full but diagonally weighted.
			scale := w / (1 + float64(0.5*math.Abs(float64(p-q))))
			jitter := 0.8 + float64(0.4*unit(g.rng))
			if !dropUV {
				g.coo.Add(u*d+p, v*d+q, scale*jitter*skew)
			}
			if !dropVU {
				g.coo.Add(v*d+p, u*d+q, scale*jitter/skew)
			}
		}
	}
}

func (g *genState) diagonal(u int, degree float64) {
	d := g.o.DOF
	for p := 0; p < d; p++ {
		val := degree * (1.5 + unit(g.rng))
		if g.rng.Float64() < g.o.WeakDiagFraction {
			val *= 0.01 // force a pivot interchange here
		}
		for q := 0; q < d; q++ {
			if p == q {
				g.coo.Add(u*d+p, u*d+q, val)
			} else {
				g.coo.Add(u*d+p, u*d+q, 0.3*signed(g.rng))
			}
		}
	}
}

// Grid2D generates the matrix of a 5-point (or 9-point when ninePoint) finite
// difference stencil on an nx-by-ny grid with the given options. This family
// models the reservoir-simulation matrices (orsreg1, saylr4, sherman*) and,
// with DOF > 1, the CFD/airfoil matrices (goodwin, e40r0100, af23560).
func Grid2D(nx, ny int, ninePoint bool, o GenOptions) *CSR {
	o = o.withDefaults()
	g := &genState{rng: rand.New(rand.NewSource(o.Seed)), o: o, coo: NewCOO(nx*ny*o.DOF, nx*ny*o.DOF)}
	id := func(x, y int) int { return y*nx + x }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			u := id(x, y)
			deg := 0.0
			if x+1 < nx {
				g.coupling(u, id(x+1, y), -1)
				deg += 2
			}
			if y+1 < ny {
				g.coupling(u, id(x, y+1), -o.Anisotropy)
				deg += 2 * o.Anisotropy
			}
			if ninePoint {
				if x+1 < nx && y+1 < ny {
					g.coupling(u, id(x+1, y+1), -0.5)
					deg++
				}
				if x > 0 && y+1 < ny {
					g.coupling(u, id(x-1, y+1), -0.5)
					deg++
				}
			}
			g.diagonal(u, math.Max(deg, 2))
		}
	}
	return g.coo.ToCSR()
}

// Grid3D generates a 7-point stencil on an nx-by-ny-by-nz grid. This family
// models 3D reservoir (sherman3-like) and, with DOF > 1, 3D solid/CFD
// matrices (ex11, raefsky4, inaccura).
func Grid3D(nx, ny, nz int, o GenOptions) *CSR {
	o = o.withDefaults()
	n := nx * ny * nz
	g := &genState{rng: rand.New(rand.NewSource(o.Seed)), o: o, coo: NewCOO(n*o.DOF, n*o.DOF)}
	id := func(x, y, z int) int { return (z*ny+y)*nx + x }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				u := id(x, y, z)
				deg := 0.0
				if x+1 < nx {
					g.coupling(u, id(x+1, y, z), -1)
					deg += 2
				}
				if y+1 < ny {
					g.coupling(u, id(x, y+1, z), -o.Anisotropy)
					deg += 2 * o.Anisotropy
				}
				if z+1 < nz {
					g.coupling(u, id(x, y, z+1), -o.Anisotropy)
					deg += 2 * o.Anisotropy
				}
				g.diagonal(u, math.Max(deg, 2))
			}
		}
	}
	return g.coo.ToCSR()
}

// Circuit generates a circuit-simulation-like matrix (jpwh991 family): a
// random structurally near-symmetric pattern with avgDeg off-diagonal
// couplings per row, strong diagonal, and a few dense-ish rows modelling
// supply rails.
func Circuit(n, avgDeg int, o GenOptions) *CSR {
	o = o.withDefaults()
	g := &genState{rng: rand.New(rand.NewSource(o.Seed)), o: o, coo: NewCOO(n, n)}
	seen := make(map[int64]bool)
	key := func(i, j int) int64 { return int64(i)*int64(n) + int64(j) }
	addPair := func(i, j int) {
		if i == j || seen[key(i, j)] {
			return
		}
		seen[key(i, j)] = true
		seen[key(j, i)] = true
		v := 0.5 + unit(g.rng)
		skew := 1 + float64(o.Convection*signed(g.rng))
		drop := g.rng.Float64() < o.StructuralDrop
		if !drop || g.rng.Intn(2) == 0 {
			g.coo.Add(i, j, -v*skew)
		}
		if !drop || g.rng.Intn(2) == 1 {
			g.coo.Add(j, i, -v/skew)
		}
	}
	// Local couplings: mostly near-diagonal (band-ish), like node numbering
	// of a physical netlist.
	for i := 0; i < n; i++ {
		for k := 0; k < avgDeg/2; k++ {
			span := 1 + g.rng.Intn(32)
			j := i + span
			if g.rng.Float64() < 0.15 {
				j = g.rng.Intn(n) // long-range coupling
			}
			if j < n {
				addPair(i, j)
			}
		}
	}
	// A few rails touching many nodes.
	rails := 2 + n/500
	for r := 0; r < rails; r++ {
		rail := g.rng.Intn(n)
		for k := 0; k < 10+g.rng.Intn(20); k++ {
			addPair(rail, g.rng.Intn(n))
		}
	}
	for i := 0; i < n; i++ {
		val := float64(avgDeg) * (1.5 + unit(g.rng))
		if g.rng.Float64() < o.WeakDiagFraction {
			val *= 0.01
		}
		g.coo.Add(i, i, val)
	}
	return g.coo.ToCSR()
}

// MemoryCircuit generates a memplus-like memory-circuit matrix: a sparse
// local structure plus a set of nearly dense rows (word/bit lines touching a
// large share of the nodes). Such rows are the paper's Section 7 caveat: they
// drive the George–Ng static overestimate toward complete fill-in.
func MemoryCircuit(n int, seed int64) *CSR { return MemoryCircuitFrac(n, 10, seed) }

// MemoryCircuitFrac is MemoryCircuit with the word-line density exposed:
// each line touches n/frac columns.
func MemoryCircuitFrac(n, frac int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 8+unit(rng))
		// Local couplings.
		for k := 0; k < 2; k++ {
			if j := i + 1 + rng.Intn(8); j < n {
				coo.Add(i, j, -0.5*rng.Float64())
				coo.Add(j, i, -0.5*rng.Float64())
			}
		}
	}
	// Word lines: a few rows touching a sizable share of the columns.
	lines := 2 + n/400
	for l := 0; l < lines; l++ {
		row := rng.Intn(n)
		for k := 0; k < n/frac; k++ {
			j := rng.Intn(n)
			if j != row {
				coo.Add(row, j, -0.1)
			}
		}
	}
	return coo.ToCSR()
}

// Dense generates a fully dense n-by-n matrix with random entries and a
// mildly dominant diagonal (the dense1000 test of Table 2).
func Dense(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := signed(rng)
			if i == j {
				v += 4
			}
			coo.Add(i, j, v)
		}
	}
	return coo.ToCSR()
}

// RandomSparse generates an unstructured random n-by-n sparse matrix with the
// given average number of off-diagonal entries per row and a zero-free
// diagonal. Used by property-based tests.
func RandomSparse(n, avgDeg int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+float64(2*unit(rng)))
		for k := 0; k < avgDeg; k++ {
			j := rng.Intn(n)
			if j != i {
				coo.Add(i, j, signed(rng))
			}
		}
	}
	return coo.ToCSR()
}

// PerturbPattern returns a structural near-miss of a: roughly add random
// entries inserted and del random off-diagonal entries deleted, never
// touching the diagonal and never emptying a row or a column — the solver
// service's "same structure plus a few entries" tenant pattern. Retained
// entries keep their values; inserted entries get small random ones.
// Deterministic in seed.
func PerturbPattern(a *CSR, add, del int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := a.N
	rows := make([]map[int]float64, n)
	colCount := make([]int, a.M)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		rows[i] = make(map[int]float64, len(cols))
		for p, j := range cols {
			rows[i][j] = vals[p]
			colCount[j]++
		}
	}
	for k := 0; k < del; k++ {
		for try := 0; try < 64; try++ {
			i := rng.Intn(n)
			if len(rows[i]) < 2 {
				continue
			}
			j := rng.Intn(n)
			if j == i || colCount[j] < 2 {
				continue
			}
			if _, ok := rows[i][j]; !ok {
				continue
			}
			delete(rows[i], j)
			colCount[j]--
			break
		}
	}
	for k := 0; k < add; k++ {
		for try := 0; try < 64; try++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if _, ok := rows[i][j]; ok {
				continue
			}
			rows[i][j] = 0.02 * signed(rng)
			colCount[j]++
			break
		}
	}
	coo := NewCOO(n, a.M)
	for i := 0; i < n; i++ {
		for j, v := range rows[i] {
			coo.Add(i, j, v)
		}
	}
	return coo.ToCSR()
}

// PerturbLocal returns a copy of square a with `del` random off-diagonal
// entries removed and `add` entries added along length-2 paths of the
// structure graph: a new entry (u, v) requires an existing pair (u, w),
// (w, v). This is the structure-preserving churn of a simulation service —
// a new device couples nodes that already interact through a neighbor — and
// unlike the uniform PerturbPattern it adds entries the factorization's fill
// largely anticipates, so incremental re-analysis sees a small propagation
// cone. Diagonal entries are never touched. Deterministic in seed.
func PerturbLocal(a *CSR, add, del int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	n := a.N
	rows := make([]map[int]float64, n)
	colCount := make([]int, a.M)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		rows[i] = make(map[int]float64, len(cols))
		for p, j := range cols {
			rows[i][j] = vals[p]
			colCount[j]++
		}
	}
	for k := 0; k < del; k++ {
		for try := 0; try < 64; try++ {
			i := rng.Intn(n)
			if len(rows[i]) < 2 {
				continue
			}
			j := rng.Intn(n)
			if j == i || colCount[j] < 2 {
				continue
			}
			if _, ok := rows[i][j]; !ok {
				continue
			}
			delete(rows[i], j)
			colCount[j]--
			break
		}
	}
	// Adjacency snapshot for path-2 sampling (deletions above excluded),
	// sorted: map order must not decide which neighbor a draw picks, or the
	// output would not be a function of the seed.
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := range rows[i] {
			if j != i && j < n {
				adj[i] = append(adj[i], j)
			}
		}
		sort.Ints(adj[i])
	}
	for k := 0; k < add; k++ {
		for try := 0; try < 64; try++ {
			u := rng.Intn(n)
			if len(adj[u]) == 0 {
				continue
			}
			w := adj[u][rng.Intn(len(adj[u]))]
			if len(adj[w]) == 0 {
				continue
			}
			v := adj[w][rng.Intn(len(adj[w]))]
			if v == u {
				continue
			}
			if _, ok := rows[u][v]; ok {
				continue
			}
			rows[u][v] = 0.02 * signed(rng)
			colCount[v]++
			break
		}
	}
	coo := NewCOO(n, a.M)
	for i := 0; i < n; i++ {
		for j, v := range rows[i] {
			coo.Add(i, j, v)
		}
	}
	return coo.ToCSR()
}
