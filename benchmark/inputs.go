package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"sstar"
	"sstar/internal/bench"
)

// residualTol is the scaled backward error every verified solve must meet.
const residualTol = 1e-10

// inputs is what a workload generates from -seed. Every random choice of a
// run (values, right-hand sides, perturbations, op mix) draws from a stream
// derived from the seed and a label, so streams do not shift when another
// part of the workload draws more or less.
type inputs struct {
	seed int64
	// fingerprint is the xor over all generated matrices of their
	// StructureKey and a hash of their values, and over all right-hand
	// sides of a hash of theirs: two runs that print the same fingerprint
	// measured the same inputs.
	fingerprint uint64
}

func (in *inputs) rng(label string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(label))
	return rand.New(rand.NewSource(in.seed ^ int64(h.Sum64()>>1)))
}

func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

func (in *inputs) noteMatrix(a *sstar.Matrix, o sstar.Options) {
	in.fingerprint ^= sstar.StructureKey(a, o) ^ hashFloats(a.Val)
}

// suiteMatrix generates the named matrix of the paper's suite. Its pattern
// and base values are fixed by the suite; the seed enters through the value
// sets and right-hand sides drawn on top.
func suiteMatrix(name string, scale float64) *sstar.Matrix {
	sp := bench.ByName(name)
	if sp == nil {
		panic("benchmark: no suite matrix " + name)
	}
	return sp.Gen(scale)
}

// valueSets returns k matrices sharing a's pattern with every value scaled
// by a factor in [0.9, 1.1]: a time-stepping application's "same structure,
// new values".
func (in *inputs) valueSets(a *sstar.Matrix, o sstar.Options, label string, k int) []*sstar.Matrix {
	rng := in.rng(label)
	out := make([]*sstar.Matrix, k)
	for i := range out {
		m := *a
		m.Val = make([]float64, len(a.Val))
		for p, v := range a.Val {
			m.Val[p] = v * (0.9 + 0.2*rng.Float64())
		}
		in.noteMatrix(&m, o)
		out[i] = &m
	}
	return out
}

// rhs returns k right-hand sides of length n*width with entries in [-1, 1].
func (in *inputs) rhs(label string, n, width, k int) [][]float64 {
	rng := in.rng(label)
	out := make([][]float64, k)
	for i := range out {
		b := make([]float64, n*width)
		for j := range b {
			b[j] = 2*rng.Float64() - 1
		}
		in.fingerprint ^= hashFloats(b)
		out[i] = b
	}
	return out
}

// perturbLocal returns a copy of a with del off-diagonal entries removed and
// add entries inserted along length-2 paths of the structure graph — the
// near-miss churn of sparse.PerturbLocal. That generator ranges over Go maps,
// so the same seed gives different patterns on different runs; this one walks
// the CSR arrays and is a pure function of (a, add, del, rng).
func perturbLocal(a *sstar.Matrix, add, del int, rng *rand.Rand) *sstar.Matrix {
	n := a.N
	type entry struct{ i, j int }
	removed := map[entry]bool{}
	added := map[entry]float64{}
	colCount := make([]int, a.M)
	for _, j := range a.ColInd {
		colCount[j]++
	}
	rowLen := make([]int, n)
	for i := range rowLen {
		rowLen[i] = a.RowPtr[i+1] - a.RowPtr[i]
	}
	for k := 0; k < del; k++ {
		for try := 0; try < 64; try++ {
			i := rng.Intn(n)
			cols, _ := a.Row(i)
			j := cols[rng.Intn(len(cols))]
			if j == i || rowLen[i] < 2 || colCount[j] < 2 || removed[entry{i, j}] {
				continue
			}
			removed[entry{i, j}] = true
			rowLen[i]--
			colCount[j]--
			break
		}
	}
	has := func(i, j int) bool {
		cols, _ := a.Row(i)
		p := sort.SearchInts(cols, j)
		return p < len(cols) && cols[p] == j
	}
	for k := 0; k < add; k++ {
		for try := 0; try < 64; try++ {
			u := rng.Intn(n)
			ucols, _ := a.Row(u)
			w := ucols[rng.Intn(len(ucols))]
			wcols, _ := a.Row(w)
			v := wcols[rng.Intn(len(wcols))]
			if v == u || has(u, v) {
				continue
			}
			if _, dup := added[entry{u, v}]; dup {
				continue
			}
			added[entry{u, v}] = 0.02 * (2*rng.Float64() - 1)
			break
		}
	}
	coo := sstar.NewCOO(n, a.M)
	for i := 0; i < n; i++ {
		cols, vals := a.Row(i)
		for p, j := range cols {
			if !removed[entry{i, j}] {
				coo.Add(i, j, vals[p])
			}
		}
	}
	// Map order does not matter here: ToCSR sorts, and no (i, j) repeats.
	for e, v := range added {
		coo.Add(e.i, e.j, v)
	}
	return coo.ToCSR()
}

// equalBits reports whether x and y are bitwise equal.
func equalBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
