package core

import (
	"sync"

	"sstar/internal/supernode"
	"sstar/internal/xblas"
)

// panelStore holds the packed L panels of a factorization, the
// produce-once, consume-many shape of the paper's Factor(k) and Update(k, j):
// the task that runs Factor(k) packs panel k's L blocks once (pack), and
// every Update(k, ·), on any worker, multiplies those images (panel). The
// host executor packs before it sets panel k's flag, so the flag publishes
// the images to the updates.
//
// Where the images lie is fixed when the store is made. The sequential driver
// runs every Update(k, ·) before Factor(k+1), so one panel's room serves all
// panels. The executor has several in flight (its compute-ahead lists held
// up to 4–6 live at once on two workers), so each panel gets its own room:
// the partition's L part, packed. The storage itself is borrowed from arenas for the length
// of a run (begin, end), so a process holds as many arenas as it has had
// runs in flight at once, not one per factorization it keeps (DESIGN.md,
// "Packed L panel: once per Factor(k)").
type panelStore struct {
	bm     *supernode.BlockMatrix
	shared bool // every panel has its own room
	// Panel k's li-th L block is packed at img[first[k]+li]; an image of
	// length 0 marks a block whose products all take GemmUpdate's direct
	// loop, which reads the block in place.
	first []int
	img   []imageSpan
	size  int // arena values a run needs

	arena []float64 // borrowed between begin and end
}

// imageSpan locates one packed L block in the arena.
type imageSpan struct{ off, n int }

// arenas keeps the packed-panel storage runs have returned, for the next runs
// to borrow. It is a plain list rather than a sync.Pool: a pool keeps a
// private entry per processor, so the runs of one goroutine that hop between
// processors would keep one arena on each.
var arenas struct {
	sync.Mutex
	free [][]float64
}

// newPanelStore lays out the images of bm's panels: each panel in its own
// room when shared, else all in one panel's room.
func newPanelStore(bm *supernode.BlockMatrix, shared bool) *panelStore {
	p := bm.P
	st := &panelStore{bm: bm, shared: shared, first: make([]int, p.NB+1)}
	off := 0
	for k, col := range bm.LCol {
		st.first[k+1] = st.first[k] + len(col)
		if !shared {
			off = 0
		}
		s, widest := p.Size(k), 0
		for _, ub := range bm.URow[k] {
			widest = max(widest, len(ub.Cols))
		}
		for _, lb := range col {
			m, n := len(lb.Rows), 0
			if widest > 0 && xblas.PacksA(m, widest, s) {
				n = xblas.PackedALen(m, s)
			}
			st.img = append(st.img, imageSpan{off, n})
			off += n
		}
		st.size = max(st.size, off)
	}
	return st
}

// begin borrows the storage of a run. An arena too small for it is dropped
// for a new one, so the list keeps the largest a process has needed.
func (st *panelStore) begin() {
	arenas.Lock()
	if n := len(arenas.free); n > 0 {
		st.arena, arenas.free = arenas.free[n-1], arenas.free[:n-1]
	}
	arenas.Unlock()
	if cap(st.arena) < st.size {
		st.arena = make([]float64, st.size)
	}
}

// end returns the storage begin borrowed.
func (st *panelStore) end() {
	arenas.Lock()
	arenas.free = append(arenas.free, st.arena)
	arenas.Unlock()
	st.arena = nil
}

// pack packs panel k's L blocks, as Factor(k) left them, into their images.
func (st *panelStore) pack(k int) {
	s := st.bm.P.Size(k)
	im := st.panel(k)
	for li, lb := range st.bm.LCol[k] {
		if pa := im.block(li); pa != nil {
			xblas.PackA(pa, len(lb.Rows), s, lb.Data, s)
		}
	}
}

// panel returns panel k's packed L blocks, for an Update(k, ·) to run on.
func (st *panelStore) panel(k int) packedPanel {
	return packedPanel{st.arena, st.img[st.first[k]:st.first[k+1]]}
}

// packedPanel is one panel's L blocks in packed form; the zero value has
// none, and its updates pack each block per call.
type packedPanel struct {
	data []float64
	img  []imageSpan
}

// block returns the li-th L block's image, nil when there is none.
func (pp packedPanel) block(li int) []float64 {
	if pp.img == nil || pp.img[li].n == 0 {
		return nil
	}
	sp := pp.img[li]
	return pp.data[sp.off : sp.off+sp.n : sp.off+sp.n]
}
