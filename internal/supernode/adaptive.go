// Structure-adaptive blocking: instead of one global (MaxBlock, Amalgamate)
// pair for every matrix, the partition's panel boundaries are chosen at
// analyze time from the actual symbolic structure by a small flop-versus-
// overhead cost model (in the spirit of the structure-aware irregular
// blocking literature; see DESIGN.md "Structure-adaptive blocking").
//
// The model captures the two opposing forces of supernode blocking:
//
//   - Wider panels run the BLAS-3 kernels closer to their asymptotic rate
//     (the packed GEMM engine amortizes packing and micro-tile overhead over
//     the panel width, which is the k extent of every update product), and
//     fewer panels mean fewer per-task costs (scatter maps, pivot
//     bookkeeping, DAG dispatch).
//   - Wider amalgamation pads the blocks with explicit zeros, which are real
//     flops, and wider panels serialize more of the elimination.
//
// Both effects are computable from the supernode structures alone — the
// trailing L-row and U-column counts that amalgamateSpans already derives —
// so the choice is a deterministic, pivot-independent function of the
// nonzero pattern. It therefore caches with the symbolic analysis: a cached
// Analysis carries its chosen blocking, and every matrix sharing the pattern
// reuses the same decision.
//
// Everything here only moves panel boundaries. The numeric kernels, the
// task DAG and the determinism guarantees are untouched: for a given
// partition the factors are bit-identical across every execution path, and
// the same holds for an adaptively chosen partition.
package supernode

import (
	"time"

	"sstar/internal/symbolic"
)

// Cost-model constants. The efficiency curve is calibrated against the
// measured GEMM rate by inner dimension: the packed GEMM engine reaches roughly half its asymptotic rate around k ≈ 12 and ~90% by k ≈ 96.
// These are deliberately plain constants, not measured at runtime: the
// chooser must be a pure function of the structure so a cached analysis is
// reproducible across processes.
const (
	// MaxAdaptivePanel is the hard upper bound on any adaptively chosen
	// panel width. Panels wider than this stop gaining kernel efficiency
	// (the curve is flat past ~96) while still losing parallelism, and the
	// bound keeps workspace sizes predictable.
	MaxAdaptivePanel = 64

	// widthHalf is the panel width at which the dense kernels reach half
	// their asymptotic rate: eff(s) = s / (s + widthHalf). Least-squares
	// fit of a measured gemm GFLOP/s curve (6.1 at k=8 through 30.4 at
	// k=128) gives h ≈ 38; the curve to re-fit against is the benchmark's
	// xblas.gemm_gflops_{16,32,64,128} (go run ./benchmark, traced run).
	widthHalf = 38.0

	// panelOverhead is the fixed per-panel cost in flop-equivalents: task
	// dispatch, pivot bookkeeping, and the per-panel pass over the block
	// column. Charged once per panel, it is what pushes thin supernodes
	// toward fewer, wider panels.
	panelOverhead = 2000.0

	// rcOverhead is the per-trailing-row/column cost of one panel in
	// flop-equivalents: gather/scatter index setup touches every trailing
	// L row and U column of the panel once per panel.
	rcOverhead = 12.0
)

// adaptiveAmalgCandidates are the relaxed-amalgamation factors the chooser
// evaluates when Options.Amalgamate does not pin one. The paper reports 4-6
// as the best fixed range; 0 and 2 cover structures that cannot afford
// padding, 8 covers very regular ones.
var adaptiveAmalgCandidates = []int{0, 2, 4, 6, 8}

// eff is the modeled kernel efficiency (fraction of asymptotic rate) at
// panel width s.
func eff(s float64) float64 { return s / (s + widthHalf) }

// superCost models the cost of factoring one supernode of width w with l
// trailing L rows and u trailing U columns, split into p panels: the dense
// flops of the (padded) supernode at the efficiency of its panel width,
// plus the per-panel overheads.
func superCost(w, l, u float64, p int) float64 {
	// Dense flop proxy for the supernode: the panel factorizations touch
	// the w-by-w diagonal triangle and the l trailing rows, the updates
	// stream the l-by-u trailing rectangle once per panel width. The split
	// leaves the flop total essentially unchanged (the w columns are
	// eliminated either way); what the split changes is the rate and the
	// overhead.
	flops := 2 * w * (l + float64(w/2)) * (u + float64(w/2))
	s := w / float64(p)
	perPanel := panelOverhead + float64(rcOverhead*(l+u))
	return flops/eff(s) + float64(float64(p)*perPanel)
}

// bestSplit returns the panel count p minimizing the modeled cost of a
// supernode of width w (trailing counts l, u), subject to every panel being
// at most MaxAdaptivePanel wide, along with that cost.
func bestSplit(w, l, u int) (p int, cost float64) {
	if w <= 0 {
		return 1, panelOverhead
	}
	pMin := (w + MaxAdaptivePanel - 1) / MaxAdaptivePanel
	if pMin < 1 {
		pMin = 1
	}
	p, cost = pMin, superCost(float64(w), float64(l), float64(u), pMin)
	// The cost in p is a sum of a decreasing (rate) and an increasing
	// (overhead) term — unimodal — so scanning up from pMin and stopping
	// after the first rise finds the minimum. The scan is bounded by w
	// (panels cannot be thinner than one column).
	for q := pMin + 1; q <= w; q++ {
		c := superCost(float64(w), float64(l), float64(u), q)
		if c < cost {
			p, cost = q, c
		} else if c > cost {
			break
		}
	}
	return p, cost
}

// planSplits chooses a panel count per supernode and returns the total
// modeled cost of the plan.
func planSplits(supers []superSpan) (splits []int, total float64) {
	splits = make([]int, len(supers))
	for i, s := range supers {
		p, c := bestSplit(s.hi-s.lo, s.nl, s.nu)
		splits[i] = p
		total += c
	}
	return splits, total
}

// boundsOf expands a per-supernode split plan into panel boundaries with
// balanced widths: a supernode of width w split p ways yields w%p panels of
// width ⌈w/p⌉ followed by panels of width ⌊w/p⌋.
func boundsOf(supers []superSpan, splits []int) []int {
	out := []int{0}
	for i, s := range supers {
		w := s.hi - s.lo
		p := splits[i]
		base, rem := w/p, w%p
		c := s.lo
		for j := 0; j < p; j++ {
			width := base
			if j < rem {
				width++
			}
			c += width
			out = append(out, c)
		}
	}
	return out
}

// newAdaptivePartition is the structure-adaptive partitioning path: detect
// strict supernodes once, evaluate the cost model over the amalgamation
// candidates (or the pinned Options.Amalgamate), pick the per-supernode
// panel widths of the winner, and build the partition on those irregular
// boundaries.
func newAdaptivePartition(st *symbolic.Static, o Options) *Partition {
	var tm Times
	t0 := time.Now()
	strict := detectSupernodes(st)
	tm.DetectNs = time.Since(t0).Nanoseconds()
	t0 = time.Now()
	cands := adaptiveAmalgCandidates
	if o.Amalgamate > 0 {
		cands = []int{o.Amalgamate}
	}
	// Each candidate runs its own merge pass and split plan; the winner has
	// strictly lower cost, so ties go to the lowest index.
	var bestSupers []superSpan
	var bestPlan []int
	bestR, bestCost := 0, 0.0
	for i, r := range cands {
		supers := amalgamateSpans(st, strict, r)
		plan, cost := planSplits(supers)
		if i == 0 || cost < bestCost {
			bestSupers, bestPlan, bestR, bestCost = supers, plan, r, cost
		}
	}
	bounds := boundsOf(bestSupers, bestPlan)
	if len(bounds) == 1 {
		// n == 0: keep the fixed path's shape (one empty block) so the
		// two paths agree on degenerate input.
		bounds = append(bounds, 0)
	}
	tm.ChooseNs = time.Since(t0).Nanoseconds()
	t0 = time.Now()
	p := buildPartition(st, bounds, nil)
	tm.BuildNs = time.Since(t0).Nanoseconds()
	maxw := 0
	for b := 0; b < p.NB; b++ {
		if s := p.Size(b); s > maxw {
			maxw = s
		}
	}
	p.Choice = Choice{Adaptive: true, MaxBlock: maxw, Amalgamate: bestR, ModelCost: bestCost}
	p.Times = tm
	return p
}
