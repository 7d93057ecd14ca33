package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleCSR() *CSR {
	coo := NewCOO(4, 4)
	coo.Add(0, 0, 1)
	coo.Add(0, 2, 2)
	coo.Add(1, 1, 3)
	coo.Add(2, 0, 4)
	coo.Add(2, 2, 5)
	coo.Add(2, 3, 6)
	coo.Add(3, 3, 7)
	return coo.ToCSR()
}

func TestCOOToCSR(t *testing.T) {
	a := sampleCSR()
	if a.Nnz() != 7 {
		t.Fatalf("nnz = %d, want 7", a.Nnz())
	}
	if got := a.At(2, 3); got != 6 {
		t.Errorf("At(2,3) = %v, want 6", got)
	}
	if got := a.At(3, 0); got != 0 {
		t.Errorf("At(3,0) = %v, want 0", got)
	}
}

func TestCOODuplicatesSummed(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 0, 2.5)
	coo.Add(1, 1, 1)
	a := coo.ToCSR()
	if a.Nnz() != 2 {
		t.Fatalf("nnz = %d, want 2", a.Nnz())
	}
	if got := a.At(0, 0); got != 3.5 {
		t.Errorf("At(0,0) = %v, want 3.5", got)
	}
}

func TestCOOAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range entry")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestCSRCSCTransposeRoundTrip(t *testing.T) {
	a := RandomSparse(60, 5, 1)
	b := a.ToCSC().ToCSR()
	if !equalCSR(a, b) {
		t.Fatal("CSR -> CSC -> CSR round trip changed the matrix")
	}
	tt := a.Transpose().Transpose()
	if !equalCSR(a, tt) {
		t.Fatal("double transpose changed the matrix")
	}
}

func TestTransposeEntries(t *testing.T) {
	a := sampleCSR()
	at := a.Transpose()
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if got := at.At(j, i); got != vals[k] {
				t.Fatalf("A^T(%d,%d) = %v, want %v", j, i, got, vals[k])
			}
		}
	}
}

func equalCSR(a, b *CSR) bool {
	if a.N != b.N || a.M != b.M || a.Nnz() != b.Nnz() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for k := range a.ColInd {
		if a.ColInd[k] != b.ColInd[k] || a.Val[k] != b.Val[k] {
			return false
		}
	}
	return true
}

func TestPermuteRowsCols(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := RandomSparse(60, 6, 11)
	for _, c := range []struct {
		a      *CSR
		rp, cp []int // old row i -> new row rp[i]; old column j -> cp[j]
	}{
		{sampleCSR(), []int{2, 0, 3, 1}, []int{1, 2, 3, 0}},
		{big, rng.Perm(60), rng.Perm(60)},
	} {
		a := c.a
		b := a.Permute(c.rp, c.cp)
		for i := 0; i < a.N; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				if got := b.At(c.rp[i], c.cp[j]); got != vals[k] {
					t.Fatalf("B(%d,%d) = %v, want %v", c.rp[i], c.cp[j], got, vals[k])
				}
			}
			bc, _ := b.Row(i)
			for k := 1; k < len(bc); k++ {
				if bc[k] <= bc[k-1] {
					t.Fatalf("row %d of the permuted matrix is not strictly increasing: %v", i, bc)
				}
			}
		}
		if b.Nnz() != a.Nnz() {
			t.Fatalf("permutation changed nnz: %d vs %d", b.Nnz(), a.Nnz())
		}
	}
}

func TestPermuteIdentity(t *testing.T) {
	a := RandomSparse(40, 4, 7)
	b := a.Permute(IdentityPerm(40), IdentityPerm(40))
	if !equalCSR(a, b) {
		t.Fatal("identity permutation changed the matrix")
	}
}

func TestInversePermProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := rng.Perm(50)
		inv := InversePerm(p)
		for i, v := range p {
			if inv[v] != i {
				return false
			}
		}
		return IsPerm(inv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsPerm(t *testing.T) {
	if !IsPerm([]int{2, 0, 1}) {
		t.Error("valid permutation rejected")
	}
	if IsPerm([]int{0, 0, 1}) {
		t.Error("duplicate accepted")
	}
	if IsPerm([]int{0, 3, 1}) {
		t.Error("out of range accepted")
	}
}

func TestMulVec(t *testing.T) {
	a := sampleCSR()
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(x, y)
	want := []float64{1*1 + 2*3, 3 * 2, 4*1 + 5*3 + 6*4, 7 * 4}
	for i := range want {
		if math.Abs(y[i]-want[i]) > 1e-14 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestNorms(t *testing.T) {
	a := sampleCSR()
	if got, want := a.NormInf(), 15.0; got != want {
		t.Errorf("NormInf = %v, want %v", got, want)
	}
	want := math.Sqrt(1 + 4 + 9 + 16 + 25 + 36 + 49)
	if got := a.NormFrob(); math.Abs(got-want) > 1e-12 {
		t.Errorf("NormFrob = %v, want %v", got, want)
	}
}

func TestATAPattern(t *testing.T) {
	a := sampleCSR()
	p := ATAPattern(a)
	// Column 0 of A has rows {0,2}; their patterns are {0,2} and {0,2,3}.
	want := []int{0, 2, 3}
	got := p.Row(0)
	if len(got) != len(want) {
		t.Fatalf("ATA row 0 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ATA row 0 = %v, want %v", got, want)
		}
	}
	// Symmetry of the A^T A pattern.
	for i := 0; i < p.N; i++ {
		for _, j := range p.Row(i) {
			found := false
			for _, k := range p.Row(j) {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("ATA pattern not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestSymmetrizedPattern(t *testing.T) {
	a := sampleCSR()
	p := SymmetrizedPattern(a)
	// (0,2) and (2,0) both present; (2,3) present implies (3,2) in pattern.
	has := func(i, j int) bool {
		for _, k := range p.Row(i) {
			if k == j {
				return true
			}
		}
		return false
	}
	if !has(3, 2) || !has(2, 3) || !has(0, 2) || !has(2, 0) {
		t.Fatal("symmetrized pattern missing expected entries")
	}
}

func TestComputeStatsSymmetricPattern(t *testing.T) {
	// Structurally symmetric matrix: symmetry score must be 1.
	coo := NewCOO(3, 3)
	for i := 0; i < 3; i++ {
		coo.Add(i, i, 1)
	}
	coo.Add(0, 1, 2)
	coo.Add(1, 0, 3)
	a := coo.ToCSR()
	s := ComputeStats(a)
	if s.Symmetry != 1 {
		t.Errorf("symmetry = %v, want 1", s.Symmetry)
	}
	if !s.DiagFree {
		t.Error("diagonal should be zero-free")
	}
}

func TestComputeStatsNonsymmetric(t *testing.T) {
	coo := NewCOO(3, 3)
	for i := 0; i < 3; i++ {
		coo.Add(i, i, 1)
	}
	coo.Add(0, 1, 2)
	coo.Add(0, 2, 2)
	a := coo.ToCSR()
	s := ComputeStats(a)
	if s.Symmetry <= 1 {
		t.Errorf("symmetry = %v, want > 1 for nonsymmetric pattern", s.Symmetry)
	}
}

func TestHasZeroFreeDiagonal(t *testing.T) {
	a := sampleCSR()
	if !a.HasZeroFreeDiagonal() {
		t.Error("sample has a full diagonal")
	}
	coo := NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if coo.ToCSR().HasZeroFreeDiagonal() {
		t.Error("antidiagonal matrix misreported as zero-free diagonal")
	}
}

func TestPermutePattern(t *testing.T) {
	a := sampleCSR()
	p := PatternOf(a)
	rp := []int{1, 3, 0, 2}
	cp := []int{3, 1, 0, 2}
	q := PermutePattern(p, rp, cp)
	b := a.Permute(rp, cp)
	pb := PatternOf(b)
	if len(q.Ind) != len(pb.Ind) {
		t.Fatalf("pattern nnz mismatch %d vs %d", len(q.Ind), len(pb.Ind))
	}
	for i := range q.Ind {
		if q.Ind[i] != pb.Ind[i] || q.Ptr[i%len(q.Ptr)] != pb.Ptr[i%len(pb.Ptr)] {
			t.Fatal("PermutePattern disagrees with CSR.Permute")
		}
	}
}

// TestMarkerSetsAndWraps: AppendNew keeps the first occurrence of each index
// at or above lo, Next empties the set, and the stamp's wrap at MaxInt32
// clears the marks instead of reusing a stamp a stale mark still holds.
func TestMarkerSetsAndWraps(t *testing.T) {
	m := NewMarker(5)
	if got := m.AppendNew(nil, []int32{3, 0, 3, 4, 1}, 1); !reflect.DeepEqual(got, []int32{3, 4, 1}) {
		t.Fatalf("first set = %v, want [3 4 1]", got)
	}
	if got := m.AppendNew(nil, []int32{4, 2}, 0); !reflect.DeepEqual(got, []int32{2}) {
		t.Fatalf("same set again = %v, want [2]", got)
	}
	m.Next()
	if got := m.AppendNew(nil, []int32{4, 2}, 0); !reflect.DeepEqual(got, []int32{4, 2}) {
		t.Fatalf("after Next = %v, want [4 2]", got)
	}
	m.mark[2] = 1 // a mark left from the set stamped 1, long ago
	m.stamp = math.MaxInt32
	m.Next()
	if got := m.AppendNew(nil, []int32{0, 1, 2, 3, 4}, 0); len(got) != 5 {
		t.Fatalf("after the stamp wrapped = %v, want every index", got)
	}
}
