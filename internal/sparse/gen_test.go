package sparse

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestGrid2DShape(t *testing.T) {
	a := Grid2D(10, 8, false, GenOptions{Seed: 1})
	if a.N != 80 || a.M != 80 {
		t.Fatalf("order = %dx%d, want 80x80", a.N, a.M)
	}
	if !a.HasZeroFreeDiagonal() {
		t.Fatal("grid matrix must have a zero-free diagonal")
	}
	// Interior node: 5-point stencil => <= 5 entries per row, >= 3.
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		if len(cols) < 3 || len(cols) > 5 {
			t.Fatalf("row %d has %d entries, want 3..5", i, len(cols))
		}
	}
}

func TestGrid2DDeterministic(t *testing.T) {
	a := Grid2D(12, 12, true, GenOptions{Seed: 42, Convection: 0.4})
	b := Grid2D(12, 12, true, GenOptions{Seed: 42, Convection: 0.4})
	if !equalCSR(a, b) {
		t.Fatal("generator is not deterministic for a fixed seed")
	}
	c := Grid2D(12, 12, true, GenOptions{Seed: 43, Convection: 0.4})
	if equalCSR(a, c) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestGrid2DDOFBlocks(t *testing.T) {
	a := Grid2D(6, 6, false, GenOptions{DOF: 3, Seed: 2})
	if a.N != 6*6*3 {
		t.Fatalf("order = %d, want %d", a.N, 6*6*3)
	}
	// Diagonal block of node 0 must be fully populated.
	for p := 0; p < 3; p++ {
		cols, _ := a.Row(p)
		count := 0
		for _, j := range cols {
			if j < 3 {
				count++
			}
		}
		if count != 3 {
			t.Fatalf("diagonal block row %d has %d of 3 entries", p, count)
		}
	}
}

func TestGrid2DStructuralDrop(t *testing.T) {
	a := Grid2D(20, 20, false, GenOptions{Seed: 3, StructuralDrop: 0.3})
	s := ComputeStats(a)
	if s.Symmetry <= 1.001 {
		t.Fatalf("symmetry = %v, want > 1 with structural drop", s.Symmetry)
	}
	if !s.DiagFree {
		t.Fatal("structural drop must not touch the diagonal")
	}
}

func TestGrid3DShape(t *testing.T) {
	a := Grid3D(5, 4, 3, GenOptions{Seed: 4})
	if a.N != 60 {
		t.Fatalf("order = %d, want 60", a.N)
	}
	if !a.HasZeroFreeDiagonal() {
		t.Fatal("grid3d must have zero-free diagonal")
	}
	maxRow := 0
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		if len(cols) > maxRow {
			maxRow = len(cols)
		}
	}
	if maxRow > 7 {
		t.Fatalf("7-point stencil produced a row with %d entries", maxRow)
	}
}

func TestCircuitShape(t *testing.T) {
	a := Circuit(500, 4, GenOptions{Seed: 5, Convection: 0.5, StructuralDrop: 0.1})
	if a.N != 500 {
		t.Fatalf("order = %d, want 500", a.N)
	}
	if !a.HasZeroFreeDiagonal() {
		t.Fatal("circuit matrix must have zero-free diagonal")
	}
	avg := float64(a.Nnz()) / 500
	if avg < 2 || avg > 12 {
		t.Fatalf("average row count %v out of expected band", avg)
	}
}

func TestDense(t *testing.T) {
	a := Dense(10, 6)
	if a.Nnz() != 100 {
		t.Fatalf("dense nnz = %d, want 100", a.Nnz())
	}
}

func TestRandomSparseDiagonal(t *testing.T) {
	a := RandomSparse(100, 3, 7)
	if !a.HasZeroFreeDiagonal() {
		t.Fatal("random sparse must keep a zero-free diagonal")
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	a := RandomSparse(30, 4, 8)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !equalCSR(a, b) {
		t.Fatal("matrix market round trip changed the matrix")
	}
}

func TestMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 2 2.0
3 3 2.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.Nnz() != 5 {
		t.Fatalf("nnz = %d, want 5 after symmetric expansion", a.Nnz())
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric expansion missing mirrored entry")
	}
}

func TestMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 3
1 1
1 2
2 2
`
	a, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != 1 {
		t.Fatal("pattern entries should get unit values")
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
		"not a header\n2 2 1\n1 1 1.0\n",
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: expected error, got nil", i)
		}
	}
}

func TestMemoryCircuitHasDenseRows(t *testing.T) {
	a := MemoryCircuit(800, 1)
	if !a.HasZeroFreeDiagonal() {
		t.Fatal("memory circuit must have zero-free diagonal")
	}
	maxRow := 0
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i)
		if len(cols) > maxRow {
			maxRow = len(cols)
		}
	}
	if maxRow < a.N/20 {
		t.Fatalf("densest row has %d entries; want a near-dense word line", maxRow)
	}
}

// Reader robustness: arbitrary garbage must produce errors, never panics and
// never absurd allocations.
func TestReadersNeverPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("reader panicked on %q: %v", data, r)
			}
		}()
		_, _ = ReadMatrixMarket(bytes.NewReader(data))
		_, _ = ReadHarwellBoeing(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Adversarial headers, too.
	for _, s := range []string{
		"%%MatrixMarket matrix coordinate real general\n-1 -1 -1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n9 9 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n999999999999 2 1\n1 1 1.0\n",
		"t\n1 1 1 1\nRUA  2 2 100000000\n(6I3) (6I3) (3D12.4)\n",
		"t\n1 1 1 1\nRUA  999999999 2 2\n(6I3) (6I3) (3D12.4)\n",
		"t\n1 1 1 1\nRUA  2 2 2\n(6I3) (6I3) (3D12.4)\n  1  9  3\n  1  2\n 1.0 1.0\n",
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked on adversarial input: %v", r)
				}
			}()
			if _, err := ReadMatrixMarket(strings.NewReader(s)); err == nil && strings.HasPrefix(s, "%%") {
				t.Errorf("expected error for %q", s)
			}
			_, _ = ReadHarwellBoeing(strings.NewReader(s))
		}()
	}
}

// TestPerturbSameSeedSamePattern: the perturbation generators are functions
// of (matrix, counts, seed). PerturbLocal used to sample neighbors out of Go
// maps, so one seed gave a different pattern on every call.
func TestPerturbSameSeedSamePattern(t *testing.T) {
	a := Grid2D(14, 13, false, GenOptions{Seed: 3})
	for name, gen := range map[string]func(seed int64) *CSR{
		"PerturbLocal":   func(seed int64) *CSR { return PerturbLocal(a, 40, 20, seed) },
		"PerturbPattern": func(seed int64) *CSR { return PerturbPattern(a, 40, 20, seed) },
	} {
		want := gen(11)
		if want.Nnz() == a.Nnz() && PatternOf(want).EqualCSR(a) {
			t.Fatalf("%s left the pattern unchanged", name)
		}
		for rep := 0; rep < 5; rep++ {
			got := gen(11)
			if !PatternOf(want).EqualCSR(got) {
				t.Fatalf("%s: repetition %d of seed 11 produced a different pattern", name, rep)
			}
			for q := range want.Val {
				if got.Val[q] != want.Val[q] {
					t.Fatalf("%s: repetition %d of seed 11 produced different values", name, rep)
				}
			}
		}
		if PatternOf(want).EqualCSR(gen(12)) {
			t.Errorf("%s: seeds 11 and 12 produced the same pattern", name)
		}
	}
}
