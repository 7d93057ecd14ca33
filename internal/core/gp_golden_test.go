package core_test

import (
	"fmt"
	"math"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/supernode"
)

// gpBits is the bit-identity fingerprint of a Gilbert–Peierls factorization:
// the counts it reports and one FNV-1a fold of its pivot rows and of every
// L and U column (indices and value bits, each list with its length first).
type gpBits struct {
	Flops      int64
	NnzL, NnzU int
	PRow, L, U uint64
}

func (b gpBits) String() string {
	return fmt.Sprintf("{%d, %d, %d, %#016x, %#016x, %#016x}", b.Flops, b.NnzL, b.NnzU, b.PRow, b.L, b.U)
}

func hashGP(f *core.GPFactors) gpBits {
	const prime = 1099511628211
	word := func(h uint64, x uint64) uint64 {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime
			x >>= 8
		}
		return h
	}
	cols := func(ptr []int, ind []int32, val []float64) uint64 {
		h := word(14695981039346656037, uint64(len(ptr)))
		for _, p := range ptr {
			h = word(h, uint64(p))
		}
		for k := range ind {
			h = word(word(h, uint64(ind[k])), math.Float64bits(val[k]))
		}
		return h
	}
	prow := word(14695981039346656037, uint64(len(f.PRow)))
	for _, p := range f.PRow {
		prow = word(prow, uint64(p))
	}
	return gpBits{
		Flops: f.Flops, NnzL: f.NnzL(), NnzU: f.NnzU(),
		PRow: prow, L: cols(f.LPtr, f.LInd, f.LVal), U: cols(f.UPtr, f.UInd, f.UVal),
	}
}

// gpGolden pins GPFactorize on the small suite at scale 0.5, each matrix in
// the order the paper's 25/4 analysis chooses.
var gpGolden = map[string]gpBits{
	"sherman5": {9080228, 53100, 54368, 0xb096efb5c594f3f0, 0xf0cc56d9d5d687bf, 0x6a3068554acfede7},
	"lnsp3937": {615851, 12765, 15659, 0x264e3880111921a0, 0x57a975941aab3c3c, 0x6b66fdde305c148e},
	"lns3937":  {576944, 12116, 15175, 0x742eb80a4a261604, 0x0f25d8ed62d788d1, 0x4ec62979e1e089d3},
	"sherman3": {2861760, 28190, 28620, 0x7e3084f896901c1f, 0xf1df6885b932f7a3, 0x8810efe7fa9f7d60},
	"jpwh991":  {5169484, 23570, 25018, 0x001672559f46b286, 0x8a4525bf4c1ea7c5, 0xb330e97e728f53e9},
	"orsreg1":  {2771130, 23345, 24434, 0x7e27929e1ca0b618, 0x4a0a3c95ac278cd8, 0x4ac1f66ba52a16e4},
	"saylr4":   {6000645, 42881, 44454, 0x2fff7617c112c40b, 0x058a4b2a8c668fed, 0xc0097d1ff02121ae},
}

func TestGPGolden(t *testing.T) {
	bad := false
	var lines []string
	for _, sp := range bench.SmallSuite() {
		a := sp.Gen(0.5)
		sym := core.Analyze(a, core.AnalyzeOptions{Supernode: supernode.Options{MaxBlock: 25, Amalgamate: 4}})
		f, err := core.GPFactorize(sym.PermutedMatrix(a))
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		got := hashGP(f)
		lines = append(lines, fmt.Sprintf("%q: %v,", sp.Name, got))
		if want, ok := gpGolden[sp.Name]; !ok || got != want {
			bad = true
			t.Errorf("%s: got %v, want %v", sp.Name, got, want)
		}
	}
	if bad {
		for _, l := range lines {
			t.Log(l)
		}
	}
}

// BenchmarkGPFactorize times the dynamic-fill baseline on the sim-t3e set,
// each matrix in its 25/4 analysis order: the run that supplies the MFLOPS
// numerator of every virtual factorization.
func BenchmarkGPFactorize(b *testing.B) {
	for _, name := range []string{"sherman5", "lnsp3937", "orsreg1", "saylr4"} {
		b.Run(name, func(b *testing.B) {
			a := bench.ByName(name).Gen(0.5)
			sym := core.Analyze(a, core.AnalyzeOptions{Supernode: supernode.Options{MaxBlock: 25, Amalgamate: 4}})
			pa := sym.PermutedMatrix(a)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.GPFactorize(pa); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
