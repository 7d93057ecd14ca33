// Package supernode implements the 2D L/U supernode partitioning layer of S*
// (paper Section 3.2/3.3): detection of supernodes in the static symbolic
// structure, relaxed amalgamation controlled by the factor r, splitting into
// cache-sized column blocks, and the packed dense block storage that Theorem 1
// justifies (U submatrices consist of structurally dense subcolumns; L
// submatrices of dense subrows).
package supernode

import (
	"slices"
	"sync"
	"time"

	"sstar/internal/sparse"
	"sstar/internal/symbolic"
)

// Options controls partitioning.
type Options struct {
	// MaxBlock is the largest allowed block (supernode panel) size; the
	// paper uses 25 on both T3D and T3E ("if the block size is too large,
	// the available parallelism will be reduced"). MaxBlock <= 0 selects
	// structure-adaptive blocking: panel widths and (unless pinned) the
	// amalgamation factor are chosen per matrix by the cost model of
	// adaptive.go instead of one global constant.
	MaxBlock int
	// Amalgamate is the relaxed-amalgamation factor r: merging two
	// adjacent supernodes is allowed when it introduces at most r explicit
	// zeros per column of the merged supernode. The paper reports r in 4..6
	// as best. With a fixed MaxBlock, r = 0 disables amalgamation; under
	// adaptive blocking (MaxBlock <= 0), r = 0 lets the cost model choose
	// r too, while r > 0 pins it.
	Amalgamate int
}

// DefaultOptions selects structure-adaptive blocking: the panel widths and
// amalgamation factor are chosen per matrix at partition time. The paper's
// fixed experimental setup (BSIZE 25, r 4) remains available by setting the
// fields explicitly.
func DefaultOptions() Options { return Options{} }

// Partition is the 2D L/U supernode partition of an n-by-n static structure:
// the same block boundaries cut both the columns and the rows, so the matrix
// becomes an NB-by-NB grid of submatrices.
type Partition struct {
	N       int
	NB      int
	Start   []int // Start[b] = first column (== row) of block b; Start[NB] = N
	BlockOf []int // column/row -> owning block

	// UCols[b] lists the global columns >= Start[b+1] in which the rows of
	// block b hold U entries (the union of the block's static row
	// structures — identical across rows for strict supernodes, a few
	// explicit zeros after amalgamation). Sorted.
	UCols [][]int32
	// LRows[b] lists the global rows >= Start[b+1] holding L entries in the
	// columns of block b (union of the block's static column structures).
	// Sorted.
	LRows [][]int32

	// UBlocks[b] / LBlocks[b] are the block-granularity images of UCols /
	// LRows: the column blocks j > b with U_bj nonzero and the row blocks
	// i > b with L_ib nonzero. Sorted.
	UBlocks [][]int32
	LBlocks [][]int32

	// Choice records how the blocking was selected (fixed options or the
	// adaptive cost model), so analyses can report and cache the decision.
	Choice Choice

	// Times is the partition-phase cost split, recorded at construction.
	// Purely observational: two partitions are structurally equal iff every
	// other field is equal, regardless of Times.
	Times Times

	// Derived, value-free structures every numeric factorization over this
	// partition shares: built lazily, once, and read-only afterwards (see
	// blockmatrix.go and plan.go). Unexported, so gob and structural
	// comparisons of partitions ignore them.
	skelOnce sync.Once
	skel     *skeleton
	planOnce sync.Once
	plan     *UpdatePlan
}

// Times splits the partition build into its stages, in nanoseconds: strict
// supernode detection, the blocking choice (amalgamation and split planning,
// including the adaptive candidate sweep), and the structure build.
type Times struct {
	DetectNs int64
	ChooseNs int64
	BuildNs  int64
}

// Choice describes the blocking a partition was built with. For a fixed
// partition it echoes the options; for an adaptive one it reports what the
// cost model picked.
type Choice struct {
	// Adaptive is true when the cost model chose the blocking.
	Adaptive bool
	// MaxBlock is the widest panel of the partition (the MaxBlock option
	// for fixed blocking, the widest chosen panel for adaptive).
	MaxBlock int
	// Amalgamate is the relaxed-amalgamation factor used.
	Amalgamate int
	// ModelCost is the cost model's predicted factorization cost of the
	// chosen blocking, in flop-equivalents (0 for fixed blocking).
	ModelCost float64
}

// Size returns the number of columns of block b.
func (p *Partition) Size(b int) int { return p.Start[b+1] - p.Start[b] }

// EliminationForest returns the supernodal elimination forest of the
// partition: parent[k] is the block containing the first row below block k
// with an L entry in block k's columns (-1 for roots). Disjoint subtrees can
// be factored concurrently, so the forest's height over its node count is a
// cheap proxy for the available tree parallelism.
func (p *Partition) EliminationForest() []int {
	parent := make([]int, p.NB)
	for k := 0; k < p.NB; k++ {
		parent[k] = -1
		if len(p.LBlocks[k]) > 0 {
			parent[k] = int(p.LBlocks[k][0])
		}
		if len(p.UBlocks[k]) > 0 {
			if u := int(p.UBlocks[k][0]); parent[k] == -1 || u < parent[k] {
				parent[k] = u
			}
		}
	}
	return parent
}

// FlopWeightedWidth returns the average panel width weighted by each panel's
// update-flop volume. Factorization work concentrates in the wide trailing
// supernodes, so this — not the plain average — is the effective dense-kernel
// operand size that determines cache behaviour.
func (p *Partition) FlopWeightedWidth() float64 {
	var wsum, fsum float64
	for k := 0; k < p.NB; k++ {
		s := float64(p.Size(k))
		fl := 2 * s * float64(len(p.LRows[k])) * float64(len(p.UCols[k]))
		if fl == 0 {
			fl = s * s * s // trailing block: dense panel factorization
		}
		wsum += float64(fl * s)
		fsum += fl
	}
	if fsum == 0 {
		return float64(p.N) / float64(p.NB)
	}
	return wsum / fsum
}

// NewPartition builds the 2D L/U partition from a static symbolic
// factorization: strict supernode detection, relaxed amalgamation, then
// splitting into panels of at most MaxBlock columns. MaxBlock <= 0 selects
// the structure-adaptive path (adaptive.go), which chooses the amalgamation
// factor and per-supernode panel widths from the symbolic structure — one
// entry point either way, so every caller gets the explicit-override
// semantics of Options for free.
func NewPartition(st *symbolic.Static, o Options) *Partition {
	if o.MaxBlock <= 0 {
		return newAdaptivePartition(st, o)
	}
	var tm Times
	t0 := time.Now()
	bounds := detectSupernodes(st)
	tm.DetectNs = time.Since(t0).Nanoseconds()
	t0 = time.Now()
	if o.Amalgamate > 0 {
		bounds = amalgamate(st, bounds, o.Amalgamate)
	}
	bounds = split(bounds, o.MaxBlock)
	tm.ChooseNs = time.Since(t0).Nanoseconds()
	t0 = time.Now()
	p := buildPartition(st, bounds, nil)
	tm.BuildNs = time.Since(t0).Nanoseconds()
	p.Choice = Choice{MaxBlock: o.MaxBlock, Amalgamate: o.Amalgamate}
	p.Times = tm
	return p
}

// buildPartition materializes the partition for a final set of panel
// boundaries: per-panel U/L structures and their block-granularity images.
// reuse, when non-nil, may supply a block's U/L unions instead of computing
// them from st (ok == false computes them).
func buildPartition(st *symbolic.Static, bounds []int, reuse func(lo, hi int) (ucols, lrows []int32, ok bool)) *Partition {
	n := st.N
	nb := len(bounds) - 1
	p := &Partition{
		N:       n,
		NB:      nb,
		Start:   bounds,
		BlockOf: make([]int, n),
		UCols:   make([][]int32, nb),
		LRows:   make([][]int32, nb),
		UBlocks: make([][]int32, nb),
		LBlocks: make([][]int32, nb),
	}
	for b := 0; b < nb; b++ {
		for c := bounds[b]; c < bounds[b+1]; c++ {
			p.BlockOf[c] = b
		}
	}
	u := unions{seen: sparse.NewMarker(n)}
	for b := 0; b < nb; b++ {
		lo, hi := bounds[b], bounds[b+1]
		var ok bool
		if reuse != nil {
			p.UCols[b], p.LRows[b], ok = reuse(lo, hi)
		}
		if !ok {
			p.UCols[b], p.LRows[b] = u.of(st.URows, lo, hi), u.of(st.LCols, lo, hi)
		}
		p.UBlocks[b] = p.blocksOf(p.UCols[b])
		p.LBlocks[b] = p.blocksOf(p.LRows[b])
	}
	return p
}

// unions is the scratch of one buildPartition call's block unions: a stamp
// marker over the n indices and the buffer a union is gathered in. It is
// never stored on a Partition, because several goroutines may patch one
// cached partition at once.
type unions struct {
	seen *sparse.Marker
	buf  []int32
}

// of returns the sorted union of lists[c] beyond hi over the columns
// [lo, hi) in a right-sized slice (nil when empty). Each index is appended
// once, when first met, so only the union is sorted, not the concatenation
// of the columns' lists; as a set union sorted it is the same slice
// append-sort-dedup builds.
func (u *unions) of(lists [][]int32, lo, hi int) []int32 {
	u.seen.Next()
	buf := u.buf[:0]
	for c := lo; c < hi; c++ {
		buf = u.seen.AppendNew(buf, lists[c], int32(hi))
	}
	u.buf = buf
	if len(buf) == 0 {
		return nil
	}
	slices.Sort(buf)
	return append(make([]int32, 0, len(buf)), buf...)
}

func (p *Partition) blocksOf(idx []int32) []int32 {
	var out []int32
	for _, x := range idx {
		b := int32(p.BlockOf[x])
		if len(out) == 0 || out[len(out)-1] != b {
			out = append(out, b)
		}
	}
	return out
}

// detectSupernodes returns the strict supernode boundaries of the static
// structure: consecutive columns are fused while their U-row structures and
// L-column structures are exactly nested (the nonsymmetric T1-style
// definition on the George–Ng structure, which is what Theorem 1 needs).
func detectSupernodes(st *symbolic.Static) []int {
	n := st.N
	bounds := []int{0}
	for k := 1; k < n; k++ {
		if !(uNested(st.URows[k-1], st.URows[k]) && lNested(st.LCols[k-1], st.LCols[k], int32(k))) {
			bounds = append(bounds, k)
		}
	}
	bounds = append(bounds, n)
	return bounds
}

// uNested reports whether prev \ {its first column} == cur.
func uNested(prev, cur []int32) bool {
	if len(prev) != len(cur)+1 {
		return false
	}
	for i, c := range cur {
		if prev[i+1] != c {
			return false
		}
	}
	return true
}

// lNested reports whether prev == {k} ∪ cur, i.e. column k-1's L rows are
// row k plus exactly column k's L rows.
func lNested(prev, cur []int32, k int32) bool {
	if len(prev) != len(cur)+1 || prev[0] != k {
		return false
	}
	for i, r := range cur {
		if prev[i+1] != r {
			return false
		}
	}
	return true
}

// superStruct is the running structure of a (possibly amalgamated) supernode
// during the merge pass.
type superStruct struct {
	lo, hi int     // column range [lo, hi)
	ucols  []int32 // U columns >= hi
	lrows  []int32 // L rows >= hi
}

// superSpan is a supernode as the blocking choice reads it: the column range
// and the sizes of the trailing structures. The merge pass reuses the
// buffers behind its structures, so it hands on counts, not slices.
type superSpan struct {
	lo, hi int // column range [lo, hi)
	nu, nl int // U columns and L rows >= hi
}

func (s superStruct) span() superSpan {
	return superSpan{lo: s.lo, hi: s.hi, nu: len(s.ucols), nl: len(s.lrows)}
}

// amalgamate greedily merges adjacent supernodes while each merge introduces
// at most r explicit zeros per column of the merged supernode (the paper's
// O(n), permutation-free scheme of Section 3.3).
func amalgamate(st *symbolic.Static, bounds []int, r int) []int {
	ss := amalgamateSpans(st, bounds, r)
	out := make([]int, 0, len(ss)+1)
	out = append(out, 0)
	for _, s := range ss {
		out = append(out, s.hi)
	}
	return out
}

// strictStruct returns the trailing U/L structure of the strict supernode
// [lo, hi) in O(1): by the nestedness that defines strictness, every member
// column's structure past hi equals the last column's, so the supernode's
// trailing structure is URows[hi-1] minus its diagonal and LCols[hi-1]
// verbatim. The slices alias the static structure and must not be mutated
// (the merge pass only reads them; merged supernodes live in the pass's own
// buffers).
func strictStruct(st *symbolic.Static, lo, hi int) superStruct {
	s := superStruct{lo: lo, hi: hi}
	if hi <= lo {
		return s // degenerate n == 0 range
	}
	if u := st.URows[hi-1]; len(u) > 1 {
		s.ucols = u[1:]
	}
	s.lrows = st.LCols[hi-1]
	return s
}

// amalgamateSpans runs the merge pass and returns the merged supernodes
// with the sizes of their trailing structures (the raw material of both the
// bounds-only amalgamate above and the adaptive cost model); r <= 0 returns
// the strict supernodes unmerged. bounds must be strict supernode boundaries
// of st, which makes the initial structures O(1) each.
func amalgamateSpans(st *symbolic.Static, bounds []int, r int) []superSpan {
	ns := len(bounds) - 1
	if ns < 1 {
		return nil
	}
	out := make([]superSpan, 0, ns)
	if r <= 0 {
		for s := 0; s < ns; s++ {
			out = append(out, strictStruct(st, bounds[s], bounds[s+1]).span())
		}
		return out
	}
	var m merger
	cur := strictStruct(st, bounds[0], bounds[1])
	for s := 1; s < ns; s++ {
		next := strictStruct(st, bounds[s], bounds[s+1])
		if m.tryMerge(&cur, next, r) {
			continue
		}
		out = append(out, cur.span())
		cur = next
	}
	return append(out, cur.span())
}

// merger owns the buffers of one merge pass: two ping-pong pairs of U and L
// lists. A merge writes into the pair the running supernode does not occupy
// and then swaps, so the pass allocates only while the buffers grow.
type merger struct {
	u, l [2][]int32
	side int // the pair the next merge writes
}

// tryMerge evaluates merging adjacent supernodes a (left, the running
// supernode) and b (right); on success it replaces *a with the merged
// structure, held in the merger's buffers.
func (m *merger) tryMerge(a *superStruct, b superStruct, r int) bool {
	wa := a.hi - a.lo // width of a
	wb := b.hi - b.lo
	// Split a's structure at b.hi: the part inside b's columns/rows becomes
	// the dense coupling rectangles; the rest is compared against b's.
	uaIn, uaOut := splitAt(a.ucols, int32(b.hi))
	laIn, laOut := splitAt(a.lrows, int32(b.hi))
	uOnlyA, uOnlyB := diffCounts(uaOut, b.ucols)
	lOnlyA, lOnlyB := diffCounts(laOut, b.lrows)
	extraZeros := wa*(wb-len(uaIn)) + // superdiagonal rectangle padding
		wa*(wb-len(laIn)) + // subdiagonal rectangle padding
		wb*uOnlyA + wa*uOnlyB + // U region rows extended to the union
		wb*lOnlyA + wa*lOnlyB // L region columns extended to the union
	if extraZeros > r*(wa+wb) {
		return false
	}
	i := m.side
	m.u[i] = mergeSorted(m.u[i][:0], uaOut, b.ucols)
	m.l[i] = mergeSorted(m.l[i][:0], laOut, b.lrows)
	*a = superStruct{lo: a.lo, hi: b.hi, ucols: m.u[i], lrows: m.l[i]}
	m.side ^= 1
	return true
}

// split cuts every supernode wider than maxBlock into panels of at most
// maxBlock columns.
func split(bounds []int, maxBlock int) []int {
	out := []int{0}
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		for c := lo + maxBlock; c < hi; c += maxBlock {
			out = append(out, c)
		}
		out = append(out, hi)
	}
	return out
}

// splitAt partitions sorted xs into (< at, >= at) halves... inverted: returns
// (inside, outside) where inside are the entries < at and outside >= at.
func splitAt(xs []int32, at int32) (inside, outside []int32) {
	for i, x := range xs {
		if x >= at {
			return xs[:i], xs[i:]
		}
	}
	return xs, nil
}

// diffCounts returns |a \ b| and |b \ a| for sorted slices.
func diffCounts(a, b []int32) (onlyA, onlyB int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			onlyA++
			i++
		case a[i] > b[j]:
			onlyB++
			j++
		default:
			i++
			j++
		}
	}
	onlyA += len(a) - i
	onlyB += len(b) - j
	return
}

// mergeSorted appends the sorted union of sorted a and b to out.
func mergeSorted(out, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
