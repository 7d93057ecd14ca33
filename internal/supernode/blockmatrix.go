package supernode

import (
	"fmt"
	"math"

	"sstar/internal/sparse"
)

// Block is one submatrix of the 2D L/U partition, stored as a packed dense
// matrix: Rows and Cols list the global indices present (sorted), Data holds
// the len(Rows) x len(Cols) values row-major.
//
// Layout by region:
//   - diagonal blocks (I == J): full dense (all rows and columns of the block);
//   - L blocks (I > J): packed structural rows (dense subrows, Theorem 1's
//     dual), all columns of block J;
//   - U blocks (I < J): all rows of block I, packed structural columns
//     (Theorem 1's dense subcolumns).
type Block struct {
	I, J int
	Rows []int32
	Cols []int32
	Data []float64
}

// NumCols returns the packed column count.
func (b *Block) NumCols() int { return len(b.Cols) }

// Bytes returns the payload size of the block's values in bytes, used by the
// communication cost model.
func (b *Block) Bytes() int { return 8 * len(b.Data) }

// RowSlice returns the packed value slice of global row r, or nil when the
// block has no such row.
func (b *Block) RowSlice(r int) []float64 {
	p := searchInt32(b.Rows, int32(r))
	if p < 0 {
		return nil
	}
	nc := len(b.Cols)
	return b.Data[p*nc : (p+1)*nc]
}

// ColPos returns the packed position of global column c, or -1.
func (b *Block) ColPos(c int) int { return searchInt32(b.Cols, int32(c)) }

// RowPos returns the packed position of global row r, or -1.
func (b *Block) RowPos(r int) int { return searchInt32(b.Rows, int32(r)) }

// At returns the value at global (r, c), or 0 when the position is not
// stored.
func (b *Block) At(r, c int) float64 {
	i := b.RowPos(r)
	j := b.ColPos(c)
	if i < 0 || j < 0 {
		return 0
	}
	return b.Data[i*len(b.Cols)+j]
}

func searchInt32(xs []int32, v int32) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == v {
		return lo
	}
	return -1
}

// BlockMatrix is the partitioned working matrix: diagonal blocks plus sparse
// collections of L and U off-diagonal blocks. Everything but the values is
// static: the block lists and the Rows/Cols index slices come from the
// partition's skeleton (built once per Partition, shared read-only by every
// BlockMatrix over it), and the values of all blocks live in one contiguous
// slab whose layout the skeleton fixes. A factorization therefore allocates a
// slab and one array of block headers, and a refactorization allocates
// nothing: Assemble clears the slab and scatters the new values through a
// precomputed offset map (see Partition.AssemblyMap).
type BlockMatrix struct {
	P    *Partition
	Diag []*Block
	// LCol[j] holds the L blocks of block column j, sorted by block row.
	LCol [][]*Block
	// URow[k] holds the U blocks of block row k, sorted by block column.
	URow [][]*Block

	sk     *skeleton
	slab   []float64
	blocks []Block // skeleton order; Diag/LCol/URow point into it
}

// skeleton is the value-free image of a BlockMatrix. Blocks are numbered in
// slab order — for each block column b: Diag[b], the L blocks of column b by
// block row, the U blocks of row b by block column — so panel b (diagonal
// plus L blocks) is one contiguous run of the slab. The block id is that
// number; the update plan names target blocks by it. A block is kept as a
// 16-byte descriptor: its index lists are ranges of the partition's own
// LRows/UCols lists (or of 0..N-1 on a dense side), materialized on demand.
type skeleton struct {
	p     *Partition
	iota  []int32     // 0, 1, ..., N-1: the dense-side index lists are ranges of it
	desc  []blockDesc // by block id
	off   []int       // off[id] = slab offset of block id; off[len(desc)] = slab length
	first []int       // first[b] = id of Diag[b]; first[NB] = len(desc)
	nL    []int       // nL[b] = number of L blocks of column b
}

// blockDesc locates one block: its block coordinates and, for an
// off-diagonal block, the range [lo, hi) of LRows[j] (L block) or UCols[i]
// (U block) holding its packed side.
type blockDesc struct{ i, j, lo, hi int32 }

// lID / uID return the block ids of the li-th L block of column k and the
// ui-th U block of row k.
func (sk *skeleton) lID(k, li int) int { return sk.first[k] + 1 + li }
func (sk *skeleton) uID(k, ui int) int { return sk.first[k] + 1 + sk.nL[k] + ui }

// block materializes the header of block id (Data nil). The index slices
// alias the partition's structure lists and must not be modified.
func (sk *skeleton) block(id int) Block {
	d, p := sk.desc[id], sk.p
	i, j := int(d.i), int(d.j)
	b := Block{I: i, J: j, Rows: sk.iota[p.Start[i]:p.Start[i+1]], Cols: sk.iota[p.Start[j]:p.Start[j+1]]}
	switch {
	case i > j:
		b.Rows = p.LRows[j][d.lo:d.hi]
	case i < j:
		b.Cols = p.UCols[i][d.lo:d.hi]
	}
	return b
}

// skeleton returns the partition's block skeleton, building it on first use.
func (p *Partition) skeleton() *skeleton {
	p.skelOnce.Do(func() { p.skel = buildSkeleton(p) })
	return p.skel
}

func buildSkeleton(p *Partition) *skeleton {
	sk := &skeleton{p: p, iota: rangeInt32(0, p.N), first: make([]int, p.NB+1), nL: make([]int, p.NB)}
	nblk := p.NB
	for b := 0; b < p.NB; b++ {
		nblk += len(p.LBlocks[b]) + len(p.UBlocks[b])
	}
	sk.desc = make([]blockDesc, 0, nblk)
	// groups appends one descriptor per run of idx falling in one block —
	// the L blocks of column b when lower, else the U blocks of row b — and
	// returns how many.
	groups := func(idx []int32, b int32, lower bool) int {
		n := 0
		for lo := 0; lo < len(idx); n++ {
			blk := p.BlockOf[idx[lo]]
			hi := lo
			for hi < len(idx) && p.BlockOf[idx[hi]] == blk {
				hi++
			}
			d := blockDesc{i: b, j: int32(blk), lo: int32(lo), hi: int32(hi)}
			if lower {
				d.i, d.j = d.j, d.i
			}
			sk.desc = append(sk.desc, d)
			lo = hi
		}
		return n
	}
	for b := 0; b < p.NB; b++ {
		sk.first[b] = len(sk.desc)
		sk.desc = append(sk.desc, blockDesc{i: int32(b), j: int32(b)})
		sk.nL[b] = groups(p.LRows[b], int32(b), true)
		groups(p.UCols[b], int32(b), false)
	}
	sk.first[p.NB] = len(sk.desc)
	sk.off = make([]int, len(sk.desc)+1)
	for id := range sk.desc {
		b := sk.block(id)
		sk.off[id+1] = sk.off[id] + len(b.Rows)*len(b.Cols)
	}
	return sk
}

// NewEmptyBlockMatrix allocates the storage of the static 2D structure with
// every value zero.
func NewEmptyBlockMatrix(p *Partition) *BlockMatrix {
	sk := p.skeleton()
	return newBlockMatrix(sk, make([]float64, sk.off[len(sk.desc)]))
}

// newBlockMatrix builds the block headers over vals, a slab of the
// skeleton's length.
func newBlockMatrix(sk *skeleton, vals []float64) *BlockMatrix {
	p := sk.p
	nblk := len(sk.desc)
	bm := &BlockMatrix{
		P:      p,
		sk:     sk,
		Diag:   make([]*Block, p.NB),
		LCol:   make([][]*Block, p.NB),
		URow:   make([][]*Block, p.NB),
		blocks: make([]Block, nblk),
	}
	ptrs := make([]*Block, nblk)
	for id := range bm.blocks {
		bm.blocks[id] = sk.block(id)
		ptrs[id] = &bm.blocks[id]
	}
	for b := 0; b < p.NB; b++ {
		f, nl := sk.first[b], sk.nL[b]
		bm.Diag[b] = ptrs[f]
		bm.LCol[b] = ptrs[f+1 : f+1+nl : f+1+nl]
		bm.URow[b] = ptrs[f+1+nl : sk.first[b+1] : sk.first[b+1]]
	}
	bm.SwapValues(vals)
	return bm
}

// SwapValues points every block at vals — a slab with the layout of Values,
// whose content becomes the matrix — and returns the slab it replaces. With
// a second slab this is how a refactorization keeps the previous factors
// intact until the new ones are known good: swap, factorize, swap back on
// failure. It costs one pass over the block headers and allocates nothing.
func (bm *BlockMatrix) SwapValues(vals []float64) []float64 {
	off := bm.sk.off
	if len(vals) != off[len(bm.blocks)] {
		panic(fmt.Sprintf("supernode: value slab has %d entries, structure needs %d", len(vals), off[len(bm.blocks)]))
	}
	for id := range bm.blocks {
		bm.blocks[id].Data = vals[off[id]:off[id+1]:off[id+1]]
	}
	old := bm.slab
	bm.slab = vals
	return old
}

// NewBlockMatrix allocates the storage of the static 2D structure and
// scatters the values of a (already in the partition's row/column order)
// into it. Positions of a outside the static structure cause a panic (they
// cannot exist if the same matrix produced the partition).
func NewBlockMatrix(p *Partition, a *sparse.CSR) *BlockMatrix {
	bm := NewEmptyBlockMatrix(p)
	bm.Assemble(p.AssemblyMap(a, nil, nil), a.Val)
	return bm
}

// AssemblyMap returns, for every stored entry of a in CSR order, the slab
// offset it lands on once row i is moved to rowPerm[i] and column j to
// colPerm[j] (nil means identity). It depends on the pattern of a only, so it
// is computed once per pattern and replayed by Assemble for every new set of
// values. Entries outside the static structure cause a panic.
func (p *Partition) AssemblyMap(a *sparse.CSR, rowPerm, colPerm []int) []int {
	if a.N != p.N || a.M != p.N {
		panic("supernode: matrix/partition size mismatch")
	}
	sk := p.skeleton()
	out := make([]int, a.Nnz())
	for i := 0; i < a.N; i++ {
		pi := i
		if rowPerm != nil {
			pi = rowPerm[i]
		}
		bi := p.BlockOf[pi]
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			pj := a.ColInd[q]
			if colPerm != nil {
				pj = colPerm[pj]
			}
			bj := p.BlockOf[pj]
			id := sk.blockID(bi, bj)
			if id < 0 {
				panic(fmt.Sprintf("supernode: entry (%d,%d) outside static block structure", pi, pj))
			}
			// A dense side holds every index of its block in order; only a
			// packed side (rows of an L block, columns of a U block) is
			// searched.
			blk := sk.block(id)
			r, c := pi-p.Start[bi], pj-p.Start[bj]
			if bi > bj {
				r = blk.RowPos(pi)
			} else if bi < bj {
				c = blk.ColPos(pj)
			}
			if r < 0 || c < 0 {
				panic(fmt.Sprintf("supernode: entry (%d,%d) outside block (%d,%d) packing", pi, pj, blk.I, blk.J))
			}
			out[q] = sk.off[id] + r*len(blk.Cols) + c
		}
	}
	return out
}

// Assemble overwrites the matrix with the values val laid out by the assembly
// map off (see Partition.AssemblyMap): every slot not named by off becomes
// zero. It reports whether every value was finite, from a test the copy
// folds in without a branch. It allocates nothing.
func (bm *BlockMatrix) Assemble(off []int, val []float64) (finite bool) {
	clear(bm.slab)
	var bad uint64
	for q, o := range off {
		v := val[q]
		bm.slab[o] = v
		// Bit 63 of the sum is set exactly when the exponent is all ones:
		// an infinity or a NaN.
		bad |= math.Float64bits(v)&0x7ff0000000000000 + 1<<52
	}
	return bad>>63 == 0
}

// LoadBlockMatrix rebuilds a BlockMatrix from a partition and a value slab
// previously obtained from Values — the deserialization path. Both come from
// outside the program, so the partition's index lists are range-checked
// before any structure is derived from them and the slab length must match
// the layout exactly. The BlockMatrix takes ownership of vals.
func LoadBlockMatrix(p *Partition, vals []float64) (*BlockMatrix, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return withSlab(p.skeleton(), vals)
}

// WithValues returns a BlockMatrix over bm's structure holding vals, a slab
// obtained from Values of a matrix over the same partition. The structure is
// shared and not validated again (bm already holds it); only the slab length
// is checked. The result takes ownership of vals and leaves bm unchanged.
func (bm *BlockMatrix) WithValues(vals []float64) (*BlockMatrix, error) {
	return withSlab(bm.sk, vals)
}

func withSlab(sk *skeleton, vals []float64) (*BlockMatrix, error) {
	if need := sk.off[len(sk.desc)]; len(vals) != need {
		return nil, fmt.Errorf("supernode: value slab has %d entries, structure needs %d", len(vals), need)
	}
	return newBlockMatrix(sk, vals), nil
}

// validate checks the invariants the skeleton build indexes by: consistent
// block boundaries and sorted, in-range trailing structure lists.
func (p *Partition) validate() error {
	if p.NB < 0 || len(p.Start) != p.NB+1 || len(p.BlockOf) != p.N ||
		len(p.UCols) != p.NB || len(p.LRows) != p.NB || len(p.UBlocks) != p.NB || len(p.LBlocks) != p.NB || (p.NB > 0 && (p.Start[0] != 0 || p.Start[p.NB] != p.N)) {
		return fmt.Errorf("supernode: inconsistent partition (n=%d, nb=%d)", p.N, p.NB)
	}
	for b := 0; b < p.NB; b++ {
		if p.Start[b+1] <= p.Start[b] {
			return fmt.Errorf("supernode: block %d is empty or reversed", b)
		}
		for c := p.Start[b]; c < p.Start[b+1]; c++ {
			if c >= p.N || p.BlockOf[c] != b {
				return fmt.Errorf("supernode: BlockOf[%d] disagrees with block %d", c, b)
			}
		}
		for _, list := range [][]int32{p.UCols[b], p.LRows[b]} {
			prev := int32(p.Start[b+1]) - 1
			for _, x := range list {
				if x <= prev || int(x) >= p.N {
					return fmt.Errorf("supernode: structure list of block %d is unsorted or out of range", b)
				}
				prev = x
			}
		}
	}
	return nil
}

// Values returns the value slab: all block values, contiguous, in the
// skeleton's block order. Together with the Partition it determines the
// BlockMatrix, which is what serialization stores.
func (bm *BlockMatrix) Values() []float64 { return bm.slab }

// Panel returns the values of panel k — the diagonal block followed by the L
// blocks of column k, which the slab keeps contiguous — as one row-major
// matrix of Size(k) columns. Its row r is global row Start[k]+r inside the
// diagonal block and LRows[k][r-Size(k)] below it.
func (bm *BlockMatrix) Panel(k int) []float64 {
	sk := bm.sk
	f := sk.first[k]
	return bm.slab[sk.off[f]:sk.off[f+1+sk.nL[k]]]
}

// Block returns the block with skeleton id id.
func (bm *BlockMatrix) Block(id int) *Block { return &bm.blocks[id] }

// blockID returns the id of the block at block coordinates (i, j), or -1.
func (sk *skeleton) blockID(i, j int) int {
	switch {
	case i == j:
		return sk.first[i]
	case i > j: // L blocks of column j, sorted by block row
		lo, hi := sk.lID(j, 0), sk.uID(j, 0)
		for lo < hi {
			if mid := (lo + hi) / 2; int(sk.desc[mid].i) < i {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < sk.uID(j, 0) && int(sk.desc[lo].i) == i {
			return lo
		}
	default: // U blocks of row i, sorted by block column
		lo, hi := sk.uID(i, 0), sk.first[i+1]
		for lo < hi {
			if mid := (lo + hi) / 2; int(sk.desc[mid].j) < j {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < sk.first[i+1] && int(sk.desc[lo].j) == j {
			return lo
		}
	}
	return -1
}

// BlockAt returns the block at block coordinates (i, j), or nil when the
// static structure has no such block.
func (bm *BlockMatrix) BlockAt(i, j int) *Block {
	if id := bm.sk.blockID(i, j); id >= 0 {
		return &bm.blocks[id]
	}
	return nil
}

// UIndex returns the position of block (k, j) within URow[k], or -1.
func (bm *BlockMatrix) UIndex(k, j int) int {
	if id := bm.sk.blockID(k, j); id >= 0 {
		return id - bm.sk.uID(k, 0)
	}
	return -1
}

// At returns the value at global (i, j), or 0 when the position is not
// stored.
func (bm *BlockMatrix) At(i, j int) float64 {
	blk := bm.BlockAt(bm.P.BlockOf[i], bm.P.BlockOf[j])
	if blk == nil {
		return 0
	}
	return blk.At(i, j)
}

// StorageEntries returns the total number of float64 slots allocated — the
// "factor entries" statistic of the block storage, including the explicit
// zeros that amalgamation and block packing introduce.
func (bm *BlockMatrix) StorageEntries() int64 { return int64(len(bm.slab)) }

func rangeInt32(lo, hi int) []int32 {
	out := make([]int32, hi-lo)
	for i := range out {
		out[i] = int32(lo + i)
	}
	return out
}
