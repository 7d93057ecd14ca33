package ordering

import (
	"cmp"
	"slices"

	"sstar/internal/sparse"
)

// MinimumDegree computes a fill-reducing elimination ordering of a symmetric
// pattern: single-elimination minimum degree on the quotient graph, with
// exact external degrees and indistinguishable-variable (supervariable)
// merging. It stands in for the multiple-minimum-degree ordering the paper
// applies to the structure of A^T A, but eliminates one supervariable per
// degree update where MMD eliminates an independent set of them.
//
// The returned perm maps old index to new index: variable i is eliminated at
// step perm[i].
func MinimumDegree(s *sparse.Pattern) []int {
	n := s.N
	if n == 0 {
		return nil
	}
	g := newQuotientGraph(s)
	order := make([]int, n) // order[k] = variable eliminated at step k
	k := 0
	for k < n {
		p := g.popMinDegree()
		for _, v := range g.members(p) {
			order[k] = v
			k++
		}
		g.eliminate(p)
	}
	perm := make([]int, n)
	for pos, v := range order {
		perm[v] = pos
	}
	return perm
}

// quotientGraph is the working representation: variables and elements share
// the index space 0..n-1; an eliminated variable becomes the element with the
// same index.
//
// The lists keep two invariants that let the hot loops skip find:
//   - adjVar[v] and adjElem[v] of every member of the newest element were
//     rebuilt by its elimination as sorted sets of live principal variables
//     and unabsorbed elements (adjElem with the new element appended last).
//   - Every unabsorbed element that lists a merged variable also lists its
//     principal: a merge requires equal element sets. An element list may
//     therefore drop its merged and eliminated entries whenever it is read.
type quotientGraph struct {
	n        int
	adjVar   [][]int // variable -> adjacent (principal) variables
	adjElem  [][]int // variable -> adjacent elements
	elemVars [][]int // element -> member principal variables
	weight   []int   // supervariable weight (0 once merged away)
	parent   []int   // supervariable merge forest: principal var of each var
	children [][]int // inverse of parent, for member expansion
	degree   []int   // external degree of principal variables
	state    []int8  // stateLive, stateElement, stateAbsorbed or stateMerged
	buckets  [][]int // degree -> candidate principal variables (lazy)
	minDeg   int
	mark     []int
	stamp    int

	sigs       []varHash // mergeIndistinguishable's scratch
	out, stack []int     // members' scratch
}

const (
	stateLive     int8 = iota
	stateElement       // eliminated variable, now an element
	stateAbsorbed      // element absorbed into a later element
	stateMerged        // variable merged into a supervariable
)

// varHash is a live variable with the hash of its adjacency.
type varHash struct {
	hash uint64
	v    int
}

func newQuotientGraph(s *sparse.Pattern) *quotientGraph {
	n := s.N
	g := &quotientGraph{
		n:        n,
		adjVar:   make([][]int, n),
		adjElem:  make([][]int, n),
		elemVars: make([][]int, n),
		weight:   make([]int, n),
		parent:   make([]int, n),
		children: make([][]int, n),
		degree:   make([]int, n),
		state:    make([]int8, n),
		buckets:  make([][]int, n+1),
		mark:     make([]int, n),
	}
	// One backing array holds every initial variable list; a list only
	// shrinks in place, so the capacity bound keeps each in its own range.
	all := make([]int, 0, len(s.Ind))
	for i := 0; i < n; i++ {
		g.weight[i] = 1
		g.parent[i] = i
		start := len(all)
		for _, j := range s.Row(i) {
			if j != i {
				all = append(all, j)
			}
		}
		d := len(all) - start
		g.adjVar[i] = all[start:len(all):len(all)]
		g.degree[i] = d
		g.buckets[d] = append(g.buckets[d], i)
		g.mark[i] = -1
	}
	return g
}

// members returns, sorted, the original variables represented by principal
// variable p: p plus everything merged into it, recursively. The slice is
// scratch, valid until the next call.
func (g *quotientGraph) members(p int) []int {
	out := g.out[:0]
	stack := append(g.stack[:0], p)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		stack = append(stack, g.children[v]...)
	}
	slices.Sort(out)
	g.out, g.stack = out, stack
	return out
}

// popMinDegree returns the live principal variable of minimum external
// degree.
func (g *quotientGraph) popMinDegree() int {
	for {
		for g.minDeg <= g.n && len(g.buckets[g.minDeg]) == 0 {
			g.minDeg++
		}
		if g.minDeg > g.n {
			panic("ordering: degree buckets exhausted with live variables remaining")
		}
		b := g.buckets[g.minDeg]
		v := b[len(b)-1]
		g.buckets[g.minDeg] = b[:len(b)-1]
		if g.state[v] == stateLive && g.degree[v] == g.minDeg {
			return v
		}
		// Stale bucket entry; skip.
	}
}

func (g *quotientGraph) push(v int) {
	d := g.degree[v]
	if d < 0 {
		d = 0
	}
	if d > g.n {
		d = g.n
	}
	g.buckets[d] = append(g.buckets[d], v)
	if d < g.minDeg {
		g.minDeg = d
	}
}

// eliminate turns principal variable p into an element and updates the
// degrees of every variable it touches.
func (g *quotientGraph) eliminate(p int) {
	g.state[p] = stateElement
	// Gather the element's variable set: adjacent live variables plus the
	// variables of adjacent elements (absorbing those elements). A merged
	// entry of an element list is skipped: its principal is listed too.
	g.stamp++
	st := g.stamp
	g.mark[p] = st
	var vars []int
	for _, v := range g.adjVar[p] {
		v = g.find(v)
		if g.state[v] == stateLive && g.mark[v] != st {
			g.mark[v] = st
			vars = append(vars, v)
		}
	}
	for _, e := range g.adjElem[p] {
		if g.state[e] != stateElement {
			continue
		}
		for _, v := range g.elemVars[e] {
			if g.state[v] == stateLive && g.mark[v] != st {
				g.mark[v] = st
				vars = append(vars, v)
			}
		}
		g.state[e] = stateAbsorbed
		g.elemVars[e] = nil
	}
	slices.Sort(vars)
	g.elemVars[p] = vars
	// Update each member variable.
	for _, v := range vars {
		// Prune v's variable list: drop p, merged vars, and anything
		// covered by the new element.
		out := g.adjVar[v][:0]
		for _, w := range g.adjVar[v] {
			w = g.find(w)
			if w == v || w == p || g.state[w] != stateLive || g.mark[w] == st {
				continue
			}
			out = append(out, w)
		}
		g.adjVar[v] = sortedSet(out)
		// Element list: drop absorbed elements, add p.
		eout := g.adjElem[v][:0]
		for _, e := range g.adjElem[v] {
			if g.state[e] == stateElement {
				eout = append(eout, e)
			}
		}
		g.adjElem[v] = append(sortedSet(eout), p)
	}
	// Supervariable detection: variables in this element with identical
	// adjacency are merged. Hash by adjacency contents.
	g.mergeIndistinguishable(vars)
	// Recompute external degrees of the (surviving) members. Each sees all
	// of the new element: stamp its live principals once and sum their
	// weights, then count per member only what lies outside it.
	g.stamp++
	sp := g.stamp
	wp := 0
	for _, v := range vars {
		if g.state[v] == stateLive {
			g.mark[v] = sp
			wp += g.weight[v]
		}
	}
	for _, v := range vars {
		if g.state[v] != stateLive {
			continue
		}
		g.degree[v] = wp - g.weight[v] + g.outerDegree(v, p, sp)
		g.push(v)
	}
}

// outerDegree returns the weight of v's live neighbours outside element p,
// whose live principals carry stamp sp. It compacts every other element list
// of v to its live entries as it reads it; p's list is skipped, so the vars
// slice that eliminate iterates stays intact.
func (g *quotientGraph) outerDegree(v, p, sp int) int {
	g.stamp++
	st := g.stamp
	d := 0
	// Rebuilt by this elimination: distinct live principals outside p.
	for _, w := range g.adjVar[v] {
		g.mark[w] = st
		d += g.weight[w]
	}
	for _, e := range g.adjElem[v] {
		if e == p {
			continue
		}
		live := g.elemVars[e][:0]
		for _, w := range g.elemVars[e] {
			if g.state[w] != stateLive {
				continue
			}
			live = append(live, w)
			if g.mark[w] != sp && g.mark[w] != st {
				g.mark[w] = st
				d += g.weight[w]
			}
		}
		g.elemVars[e] = live
	}
	return d
}

// mergeIndistinguishable merges variables among vars that have identical
// quotient-graph adjacency (they can be eliminated together with no extra
// fill). Equal-hash variables are merged in the order the sort leaves them,
// so that order is part of the output.
func (g *quotientGraph) mergeIndistinguishable(vars []int) {
	if len(vars) < 2 {
		return
	}
	sigs := g.sigs[:0]
	for _, v := range vars {
		if g.state[v] != stateLive {
			continue
		}
		h := uint64(1469598103934665603)
		for _, w := range g.adjVar[v] {
			h = mixHash(h, w)
		}
		h = mixHash(h, -7)
		for _, e := range g.adjElem[v] {
			h = mixHash(h, e)
		}
		sigs = append(sigs, varHash{h, v})
	}
	g.sigs = sigs
	slices.SortFunc(sigs, func(a, b varHash) int { return cmp.Compare(a.hash, b.hash) })
	for i := 0; i < len(sigs); i++ {
		v := sigs[i].v
		if g.state[v] != stateLive {
			continue
		}
		for j := i + 1; j < len(sigs) && sigs[j].hash == sigs[i].hash; j++ {
			w := sigs[j].v
			if g.state[w] != stateLive || !g.sameAdjacency(v, w) {
				continue
			}
			// Merge w into v.
			g.state[w] = stateMerged
			g.parent[w] = v
			g.children[v] = append(g.children[v], w)
			g.weight[v] += g.weight[w]
			g.adjVar[w] = nil
			g.adjElem[w] = nil
		}
	}
}

// mixHash folds x into the FNV-1a style hash h.
func mixHash(h uint64, x int) uint64 {
	return (h ^ uint64(x+1)) * 1099511628211
}

// sameAdjacency reports whether live members v and w of the newest element
// have the same quotient-graph neighborhood. Both lists of each were just
// rebuilt as sorted sets (adjElem with the new element last) and neither
// holds the other, so the sets are equal exactly when the lists are.
func (g *quotientGraph) sameAdjacency(v, w int) bool {
	return slices.Equal(g.adjVar[v], g.adjVar[w]) && slices.Equal(g.adjElem[v], g.adjElem[w])
}

// find resolves a possibly-merged variable to its principal representative.
func (g *quotientGraph) find(v int) int {
	for g.parent[v] != v {
		g.parent[v] = g.parent[g.parent[v]]
		v = g.parent[v]
	}
	return v
}

// sortedSet sorts xs in place and drops duplicates, skipping the sort when
// xs is already strictly increasing.
func sortedSet(xs []int) []int {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			slices.Sort(xs)
			return slices.Compact(xs)
		}
	}
	return xs
}
