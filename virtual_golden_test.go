package sstar

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"sstar/internal/bench"
	"sstar/internal/core"
)

// virtualBits is the bit-identity fingerprint of one virtual-machine
// factorization: every RunStats field (floats by their bits, Utilization
// folded entry by entry with its length first) and the dynamic-fill counts of
// the Gilbert–Peierls run that supplies the MFLOPS numerator.
type virtualBits struct {
	ParallelTime, MFLOPS, LoadBalance uint64
	SentBytes, SentMessages           int64
	Utilization                       uint64
	Flops                             int64
	NnzL, NnzU                        int
}

func (b virtualBits) String() string {
	return fmt.Sprintf("{%#016x, %#016x, %#016x, %d, %d, %#016x, %d, %d, %d}",
		b.ParallelTime, b.MFLOPS, b.LoadBalance, b.SentBytes, b.SentMessages,
		b.Utilization, b.Flops, b.NnzL, b.NnzU)
}

func hashVirtual(t *testing.T, a *Matrix, f *Factorization) virtualBits {
	t.Helper()
	rs := f.RunStats()
	util := fnvWord(fnvOffset64, len(rs.Utilization))
	for _, u := range rs.Utilization {
		util = fnvWord(util, int(math.Float64bits(u)))
	}
	gp, err := core.GPFactorize(f.sym.PermutedMatrix(a))
	if err != nil {
		t.Fatal(err)
	}
	return virtualBits{
		ParallelTime: math.Float64bits(rs.ParallelTime),
		MFLOPS:       math.Float64bits(rs.MFLOPS),
		LoadBalance:  math.Float64bits(rs.LoadBalance),
		SentBytes:    rs.SentBytes, SentMessages: rs.SentMessages,
		Utilization: util,
		Flops:       gp.Flops, NnzL: gp.NnzL(), NnzU: gp.NnzU(),
	}
}

// virtualMatrices and virtualMappings are the benchmark's sim-t3e set: the
// paper's 25/4 blocking on 16 T3E processors, every mapping.
var (
	virtualMatrices = []string{"sherman5", "lnsp3937", "orsreg1", "saylr4"}
	virtualMappings = []Mapping{Map1DCA, Map1DRAPID, Map2D, Map2DSync}
)

// virtualGolden pins every modelled number of the sim-t3e set. A failure
// logs every current line; a deliberate change of modelled bits replaces the
// lines it moves and names them in CHANGES.md.
var virtualGolden = map[string]virtualBits{
	"sherman5/1d-ca":    {0x3f87cd55638c5a59, 0x40886a4fe7f7e012, 0x3fe1157f20f0353b, 4172080, 1490, 0x2ea795c4f8d1a1ed, 9080228, 53100, 54368},
	"sherman5/1d-rapid": {0x3f89f65a7391a394, 0x4086623edcdfa95b, 0x3fe338f8c633a7cc, 4038568, 1373, 0xefed7c6038f95906, 9080228, 53100, 54368},
	"sherman5/2d":       {0x3f88d451b0a1b6d2, 0x408767b666798982, 0x3fe9d075b4643b43, 4920344, 6319, 0x477a663969aad370, 9080228, 53100, 54368},
	"sherman5/2d-sync":  {0x3f91670acda786a3, 0x4080b26597674dc3, 0x3fe9d075b4643b43, 4920344, 6319, 0xe083bb98d965249b, 9080228, 53100, 54368},
	"lnsp3937/1d-ca":    {0x3f606312f6b7791e, 0x40733de752605450, 0x3fd996b6c31d2e0c, 514304, 1648, 0x416cba1c97f9f308, 615851, 12765, 15659},
	"lnsp3937/1d-rapid": {0x3f59c15ea3454ba2, 0x40787c46a8cb8cd2, 0x3fda0613a572cd26, 504000, 1528, 0xee65d6752e3cdd89, 615851, 12765, 15659},
	"lnsp3937/2d":       {0x3f75387a86fbc3fb, 0x405db7c5bcf1f9db, 0x3fdaffe97ed02ffa, 1448256, 10321, 0xed496db4f08522c3, 615851, 12765, 15659},
	"lnsp3937/2d-sync":  {0x3f8623bab875e71c, 0x404c7bff06112868, 0x3fdaffe97ed02ffa, 1448256, 10321, 0xc746689b91f870cf, 615851, 12765, 15659},
	"orsreg1/1d-ca":     {0x3f761be93373ddda, 0x40800b1e42ed6f5e, 0x3fdb15005de33a48, 1535856, 1055, 0xa16791eb3963c446, 2771130, 23345, 24434},
	"orsreg1/1d-rapid":  {0x3f7439b900982bbc, 0x4081899a91cb746b, 0x3fdb3f63ab1c5e2d, 1500648, 930, 0xafb739fbb75dc265, 2771130, 23345, 24434},
	"orsreg1/2d":        {0x3f7770a821dc4b8d, 0x407e43cb02f12da2, 0x3fe17afa7e560b74, 2256632, 4999, 0x5a490e08768820fc, 2771130, 23345, 24434},
	"orsreg1/2d-sync":   {0x3f81d5a6f2d2be7d, 0x4073e37ab2229361, 0x3fe17afa7e560b74, 2256632, 4999, 0x9700c3d32b492e70, 2771130, 23345, 24434},
	"saylr4/1d-ca":      {0x3f8370f6c92c3e83, 0x4083c1012631f971, 0x3fdd1c91ef756d5d, 3194728, 1624, 0x3271ce18e29097fe, 6000645, 42881, 44454},
	"saylr4/1d-rapid":   {0x3f82cf8f9d6d2ace, 0x40846a7ffd0548ca, 0x3fd21ff33d917574, 2929952, 1403, 0x70c1a9d6df1d3f52, 6000645, 42881, 44454},
	"saylr4/2d":         {0x3f851bfd7e9b9501, 0x40823165b437ecba, 0x3fe62c99613b9127, 4101616, 7382, 0xe2f27b832a593947, 6000645, 42881, 44454},
	"saylr4/2d-sync":    {0x3f8ec4737a2f43a9, 0x4078f6d470b32aad, 0x3fe62c99613b9127, 4101616, 7382, 0x80a67a6c1e0063fd, 6000645, 42881, 44454},
}

func TestVirtualGolden(t *testing.T) {
	mats := virtualMatrices
	if testing.Short() {
		mats = mats[1:3] // the two smallest, for the race detector
	}
	bad := false
	var lines []string
	for _, name := range mats {
		a := bench.ByName(name).Gen(0.5)
		for _, mp := range virtualMappings {
			o := PaperOptions()
			o.Procs, o.Machine, o.Mapping = 16, T3E, mp
			f, err := Factorize(a, o)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mp, err)
			}
			key := name + "/" + string(mp)
			got := hashVirtual(t, a, f)
			lines = append(lines, fmt.Sprintf("%q: %v,", key, got))
			if want, ok := virtualGolden[key]; !ok || got != want {
				bad = true
				t.Errorf("%s: got %v, want %v", key, got, want)
			}
		}
	}
	if bad {
		for _, l := range lines {
			t.Log(l)
		}
	}
}

// countRunning reports whether any goroutine is inside GPFactorize.
func countRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("core.GPFactorize("))
}

// TestVirtualErrorsLeaveNothingRunning: a virtual factorization that fails
// returns its error with no dynamic-fill count left running beside it, and
// one refused for its mapping never analyzes, so it never starts the count.
// The goroutine count then returns to where it started.
func TestVirtualErrorsLeaveNothingRunning(t *testing.T) {
	base := runtime.NumGoroutine()
	a := bench.ByName("orsreg1").Gen(0.5)
	o := PaperOptions()
	o.Procs, o.Machine = 16, T3E
	f, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	if countRunning() {
		t.Fatal("a dynamic-fill count outlived a successful Factorize")
	}
	// Both inputs are structurally intact. Zero values in the column
	// eliminated last stop every run at the final pivot. A NaN there is
	// refused when the virtual run assembles its blocks, while the count,
	// which meets it only at that column, has its whole factorization ahead.
	singular := singularLike(a, f)
	withNaN := a.Clone()
	for q, j := range withNaN.ColInd {
		if f.sym.ColPerm[j] == a.N-1 {
			withNaN.Val[q] = math.NaN()
			break
		}
	}
	for _, bad := range []struct {
		name string
		a    *Matrix
	}{{"singular", singular}, {"NaN", withNaN}} {
		for _, mp := range virtualMappings {
			o.Mapping = mp
			if _, err := Factorize(bad.a, o); !errors.Is(err, ErrSingular) {
				t.Fatalf("%s/%s: virtual run returned %v, want ErrSingular", bad.name, mp, err)
			}
			if countRunning() {
				t.Fatalf("%s/%s: a dynamic-fill count outlived the ErrSingular return", bad.name, mp)
			}
		}
	}
	rec := newRecordingObserver()
	o.Mapping, o.Observer = "3d", rec
	if _, err := Factorize(a, o); err == nil || !strings.Contains(err.Error(), "unknown mapping") {
		t.Fatalf("unknown mapping returned %v", err)
	}
	if len(rec.phases) != 0 {
		t.Fatalf("unknown mapping analyzed the matrix (phases %v): the count could have started", rec.phases)
	}
	// A goroutine that has delivered its count may still be on its way out.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
