// This file holds minimumDegreeRef, a verbatim copy of MinimumDegree as it
// stood before its redundant rescans, sorts and allocations were removed
// (identifiers prefixed with ref). TestMinimumDegreeMatchesReference holds
// the optimized ordering to its exact output; the copy is never changed.

package ordering

import (
	"sort"

	"sstar/internal/sparse"
)

// minimumDegreeRef computes a fill-reducing elimination ordering of a symmetric
// pattern using a quotient-graph minimum-degree algorithm with external
// degrees and indistinguishable-variable (supervariable) merging — the
// practical core of the multiple-minimum-degree ordering the paper applies to
// the structure of A^T A.
//
// The returned perm maps old index to new index: variable i is eliminated at
// step perm[i].
func minimumDegreeRef(s *sparse.Pattern) []int {
	n := s.N
	if n == 0 {
		return nil
	}
	g := newRefQuotientGraph(s)
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

// refQuotientGraph is the working representation: variables and elements share
// the index space 0..n-1; an eliminated variable becomes the element with the
// same index.
type refQuotientGraph struct {
	n        int
	adjVar   [][]int // variable -> adjacent (principal) variables
	adjElem  [][]int // variable -> adjacent elements
	elemVars [][]int // element -> member principal variables
	weight   []int   // supervariable weight (0 once merged away)
	parent   []int   // supervariable merge forest: principal var of each var
	children [][]int // inverse of parent, for member expansion
	degree   []int   // external degree of principal variables
	state    []int8  // 0 = live variable, 1 = eliminated (element), 2 = merged
	buckets  [][]int // degree -> candidate principal variables (lazy)
	minDeg   int
	mark     []int
	stamp    int
}

const (
	refStateLive int8 = iota
	refStateElement
	refStateMerged
)

func newRefQuotientGraph(s *sparse.Pattern) *refQuotientGraph {
	n := s.N
	g := &refQuotientGraph{
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
	for i := 0; i < n; i++ {
		g.weight[i] = 1
		g.parent[i] = i
		row := s.Row(i)
		adj := make([]int, 0, len(row))
		for _, j := range row {
			if j != i {
				adj = append(adj, j)
			}
		}
		g.adjVar[i] = adj
		g.degree[i] = len(adj)
		g.buckets[len(adj)] = append(g.buckets[len(adj)], i)
		g.mark[i] = -1
	}
	return g
}

// members returns the original variables represented by principal variable p
// (p plus everything merged into it).
func (g *refQuotientGraph) members(p int) []int { return g.childList(p) }

// childList returns p plus every variable merged into p (recursively).
func (g *refQuotientGraph) childList(p int) []int {
	out := []int{}
	stack := []int{p}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		stack = append(stack, g.children[v]...)
	}
	// Keep deterministic order.
	sort.Ints(out)
	return out
}

// popMinDegree returns the live principal variable of minimum external
// degree.
func (g *refQuotientGraph) popMinDegree() int {
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
		if g.state[v] == refStateLive && g.degree[v] == g.minDeg {
			return v
		}
		// Stale bucket entry; skip.
	}
}

func (g *refQuotientGraph) push(v int) {
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
func (g *refQuotientGraph) eliminate(p int) {
	g.state[p] = refStateElement
	// Gather the element's variable set: adjacent live variables plus the
	// variables of adjacent elements (absorbing those elements).
	g.stamp++
	st := g.stamp
	g.mark[p] = st
	var vars []int
	for _, v := range g.adjVar[p] {
		v = g.find(v)
		if g.state[v] == refStateLive && g.mark[v] != st {
			g.mark[v] = st
			vars = append(vars, v)
		}
	}
	for _, e := range g.adjElem[p] {
		for _, v := range g.elemVars[e] {
			v = g.find(v)
			if g.state[v] == refStateLive && g.mark[v] != st {
				g.mark[v] = st
				vars = append(vars, v)
			}
		}
		g.elemVars[e] = nil // absorbed
	}
	sort.Ints(vars)
	g.elemVars[p] = vars
	// Update each member variable.
	for _, v := range vars {
		// Prune v's variable list: drop p, merged vars, and anything
		// covered by the new element.
		out := g.adjVar[v][:0]
		for _, w := range g.adjVar[v] {
			w = g.find(w)
			if w == v || w == p || g.state[w] != refStateLive || g.mark[w] == st {
				continue
			}
			out = append(out, w)
		}
		g.adjVar[v] = refDedupInts(out)
		// Element list: drop absorbed elements, add p.
		eout := g.adjElem[v][:0]
		for _, e := range g.adjElem[v] {
			if g.state[e] == refStateElement && g.elemVars[e] != nil {
				eout = append(eout, e)
			}
		}
		g.adjElem[v] = append(refDedupInts(eout), p)
	}
	// Supervariable detection: variables in this element with identical
	// adjacency are merged. Hash by adjacency contents.
	g.mergeIndistinguishable(vars)
	// Recompute external degrees of the (surviving) members.
	for _, v := range vars {
		if g.state[v] != refStateLive {
			continue
		}
		g.degree[v] = g.externalDegree(v)
		g.push(v)
	}
}

// externalDegree computes the weighted size of v's neighborhood (union of its
// variable neighbors and the variables of its adjacent elements, minus v).
func (g *refQuotientGraph) externalDegree(v int) int {
	g.stamp++
	st := g.stamp
	g.mark[v] = st
	d := 0
	for _, w := range g.adjVar[v] {
		w = g.find(w)
		if g.state[w] == refStateLive && g.mark[w] != st {
			g.mark[w] = st
			d += g.weight[w]
		}
	}
	for _, e := range g.adjElem[v] {
		for _, w := range g.elemVars[e] {
			w = g.find(w)
			if g.state[w] == refStateLive && g.mark[w] != st {
				g.mark[w] = st
				d += g.weight[w]
			}
		}
	}
	return d
}

// mergeIndistinguishable merges variables among vars that have identical
// quotient-graph adjacency (they can be eliminated together with no extra
// fill).
func (g *refQuotientGraph) mergeIndistinguishable(vars []int) {
	if len(vars) < 2 {
		return
	}
	type sig struct {
		hash  uint64
		index int
	}
	sigs := make([]sig, 0, len(vars))
	for _, v := range vars {
		if g.state[v] != refStateLive {
			continue
		}
		h := uint64(1469598103934665603)
		mix := func(x int) {
			h ^= uint64(x + 1)
			h *= 1099511628211
		}
		for _, w := range g.adjVar[v] {
			mix(g.find(w))
		}
		mix(-7)
		for _, e := range g.adjElem[v] {
			mix(e)
		}
		sigs = append(sigs, sig{h, v})
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i].hash < sigs[j].hash })
	for i := 0; i < len(sigs); i++ {
		v := sigs[i].index
		if g.state[v] != refStateLive {
			continue
		}
		for j := i + 1; j < len(sigs) && sigs[j].hash == sigs[i].hash; j++ {
			w := sigs[j].index
			if g.state[w] != refStateLive || !g.sameAdjacency(v, w) {
				continue
			}
			// Merge w into v.
			g.state[w] = refStateMerged
			g.parent[w] = v
			g.children[v] = append(g.children[v], w)
			g.weight[v] += g.weight[w]
			g.adjVar[w] = nil
			g.adjElem[w] = nil
		}
	}
}

// sameAdjacency reports whether live variables v and w have the same
// quotient-graph neighborhood (ignoring each other).
func (g *refQuotientGraph) sameAdjacency(v, w int) bool {
	av := g.liveAdj(v, w)
	aw := g.liveAdj(w, v)
	if len(av) != len(aw) {
		return false
	}
	for i := range av {
		if av[i] != aw[i] {
			return false
		}
	}
	ev := append([]int(nil), g.adjElem[v]...)
	ew := append([]int(nil), g.adjElem[w]...)
	sort.Ints(ev)
	sort.Ints(ew)
	if len(ev) != len(ew) {
		return false
	}
	for i := range ev {
		if ev[i] != ew[i] {
			return false
		}
	}
	return true
}

func (g *refQuotientGraph) liveAdj(v, skip int) []int {
	var out []int
	for _, w := range g.adjVar[v] {
		w = g.find(w)
		if g.state[w] == refStateLive && w != v && w != skip {
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return refDedupSortedInts(out)
}

// find resolves a possibly-merged variable to its principal representative.
func (g *refQuotientGraph) find(v int) int {
	for g.parent[v] != v {
		g.parent[v] = g.parent[g.parent[v]]
		v = g.parent[v]
	}
	return v
}

func refDedupInts(xs []int) []int {
	sort.Ints(xs)
	return refDedupSortedInts(xs)
}

func refDedupSortedInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
