package sparse

import "math"

// Marker is the stamp array of the sparse-accumulator idiom (Gilbert–Peierls):
// a set over [0, n) that empties in O(1). An index is in the current set
// when its mark equals the stamp; Next starts a new, empty set by bumping the
// stamp. A union built with it costs the entries it reads, where
// append-sort-dedup would sort their whole concatenation. A Marker is
// scratch for one call: it is not safe for concurrent use.
type Marker struct {
	mark  []int32
	stamp int32
}

// NewMarker returns a Marker over [0, n) holding the empty set.
func NewMarker(n int) *Marker { return &Marker{mark: make([]int32, n), stamp: 1} }

// Next empties the set.
func (m *Marker) Next() {
	if m.stamp == math.MaxInt32 {
		clear(m.mark)
		m.stamp = 0
	}
	m.stamp++
}

// AppendNew appends to dst, in the order met, each entry of xs that is at
// least lo and not yet in the set, adds those entries to the set, and
// returns the extended dst.
func (m *Marker) AppendNew(dst, xs []int32, lo int32) []int32 {
	for _, x := range xs {
		if x >= lo && m.mark[x] != m.stamp {
			m.mark[x] = m.stamp
			dst = append(dst, x)
		}
	}
	return dst
}
