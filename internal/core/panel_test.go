package core_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sstar/internal/bench"
	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
)

// core.FactorPanel is a blocked dense LU; what it must reproduce, bit for bit,
// is the loop it replaced, kept here as the reference: one column at a time
// over the full panel width, block by block — a separate pivot sweep (diagonal
// block, then the L blocks in order, first maximum wins), a row interchange
// found by block and row search, a scaling and a rank-1 update of everything
// right of the column. Every multiply-subtract rounds its product first and no
// zero multiplier is skipped (the definition all executors share).

func refFactorPanel(bm *supernode.BlockMatrix, k int, piv []int32, ws *core.Workspace) error {
	p := bm.P
	d := bm.Diag[k]
	s := p.Size(k)
	lblocks := bm.LCol[k]
	start := p.Start[k]
	panelRow := func(r int) []float64 {
		if rb := p.BlockOf[r]; rb != k {
			return bm.BlockAt(rb, k).RowSlice(r)
		}
		return d.RowSlice(r)
	}
	axpy := func(l float64, urow, row []float64) {
		for j, u := range urow {
			row[j] -= float64(l * u)
		}
	}
	for mc := 0; mc < s; mc++ {
		m := start + mc
		bestVal, bestRow := math.Abs(d.Data[mc*s+mc]), m
		for r := mc + 1; r < s; r++ {
			if v := math.Abs(d.Data[r*s+mc]); v > bestVal {
				bestVal, bestRow = v, start+r
			}
		}
		for _, lb := range lblocks {
			for r := range lb.Rows {
				if v := math.Abs(lb.Data[r*s+mc]); v > bestVal {
					bestVal, bestRow = v, int(lb.Rows[r])
				}
			}
		}
		if bestVal == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", core.ErrSingular, m)
		}
		if math.IsNaN(bestVal) || math.IsInf(bestVal, 0) {
			return fmt.Errorf("%w: non-finite pivot at column %d", core.ErrSingular, m)
		}
		piv[m] = int32(bestRow)
		if bestRow != m {
			a, b := panelRow(m), panelRow(bestRow)
			for i := range a {
				a[i], b[i] = b[i], a[i]
			}
			ws.Fl.Sw += int64(s)
		}
		pivVal := d.Data[mc*s+mc]
		urow := d.Data[mc*s+mc+1 : mc*s+s]
		for r := mc + 1; r < s; r++ {
			row := d.Data[r*s : r*s+s]
			row[mc] /= pivVal
			axpy(row[mc], urow, row[mc+1:])
		}
		ws.Fl.B1 += int64(s - mc - 1)
		ws.Fl.B2 += 2 * int64(s-mc-1) * int64(s-mc-1)
		for _, lb := range lblocks {
			for r := range lb.Rows {
				row := lb.Data[r*s : r*s+s]
				row[mc] /= pivVal
				axpy(row[mc], urow, row[mc+1:])
			}
			ws.Fl.B1 += int64(len(lb.Rows))
			ws.Fl.B2 += 2 * int64(len(lb.Rows)) * int64(s-mc-1)
		}
	}
	return nil
}

// firstDiff returns the first index at which x and y differ in bits, or -1.
func firstDiff(x, y []float64) int {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return i
		}
	}
	return -1
}

// TestFactorPanelMatchesColumnAtATimeOnSuite factors every suite matrix twice
// — Factor(k) by the reference loop, then by the sequential executor — and
// wants the same factors, pivots and flop tallies.
func TestFactorPanelMatchesColumnAtATimeOnSuite(t *testing.T) {
	scale := 0.5
	if testing.Short() {
		scale = 0.2
	}
	for _, spec := range bench.Suite() {
		t.Run(spec.Name, func(t *testing.T) {
			a := spec.Gen(scale)
			sym := core.Analyze(a, core.AnalyzeOptions{})
			p := sym.Partition
			bm := supernode.NewBlockMatrix(p, sym.PermutedMatrix(a))
			piv := make([]int32, sym.N)
			ws := new(core.Workspace)
			for k := 0; k < p.NB; k++ {
				if err := refFactorPanel(bm, k, piv, ws); err != nil {
					t.Fatalf("reference: %v", err)
				}
				for _, jb := range p.UBlocks[k] {
					core.UpdatePanelPair(bm, k, int(jb), piv, ws)
				}
			}
			f, err := core.FactorizeSeq(a, sym)
			if err != nil {
				t.Fatal(err)
			}
			sameFactors(t, spec.Name, f, bm, piv)
			if f.Fl != ws.Fl {
				t.Fatalf("flop tally %+v, column-at-a-time reference %+v", f.Fl, ws.Fl)
			}
		})
	}
}

// fillPanel overwrites panel 0 with a tall random panel built to stress the
// pivot search: values drawn from a handful of magnitudes, so most columns
// have several rows tied for the maximum, a fifth of the rows all zero (the
// padding amalgamation leaves), and signed zeros among the rest.
func fillPanel(rng *rand.Rand, pan []float64, s int) {
	for r := 0; r < len(pan)/s; r++ {
		row := pan[r*s : r*s+s]
		zero := rng.Intn(5) == 0
		for j := range row {
			switch {
			case zero:
				row[j] = 0
			case rng.Intn(9) == 0:
				row[j] = math.Copysign(0, -1)
			default:
				row[j] = float64(1+rng.Intn(3)) * (0.5 - float64(rng.Intn(2)))
				if rng.Intn(3) == 0 {
					row[j] += rng.Float64() / 8
				}
			}
		}
	}
}

// TestFactorPanelTallPanels: the blocked panel against the reference on tall
// panels with exact ties and zero rows, at widths around the block width
// (one column, under a block, a block, a block and one, many blocks and an
// odd first one).
func TestFactorPanelTallPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	compared := 0
	for _, s := range []int{1, 7, 8, 9, 63} {
		for _, r := range []int{s, s + 1, 2*s + 3, 5*s + 40} {
			for trial := 0; trial < 8; trial++ {
				bm, ws, piv, _ := densePanel(t, r, s)
				ref, refWs, refPiv, _ := densePanel(t, r, s)
				fillPanel(rng, bm.Panel(0), s)
				copy(ref.Panel(0), bm.Panel(0))
				err := core.FactorPanel(bm, 0, piv, ws)
				refErr := refFactorPanel(ref, 0, refPiv, refWs)
				what := fmt.Sprintf("%dx%d trial %d", r, s, trial)
				if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
					t.Fatalf("%s: error %v, reference %v", what, err, refErr)
				}
				if err != nil {
					continue // singular by construction: same column reported, nothing more to compare
				}
				if i := firstDiff(bm.Panel(0), ref.Panel(0)); i >= 0 {
					t.Fatalf("%s: panel entry (%d,%d) is %x, reference %x", what, i/s, i%s,
						math.Float64bits(bm.Panel(0)[i]), math.Float64bits(ref.Panel(0)[i]))
				}
				for m := 0; m < s; m++ {
					if piv[m] != refPiv[m] {
						t.Fatalf("%s: pivot %d is row %d, reference %d", what, m, piv[m], refPiv[m])
					}
				}
				if ws.Fl != refWs.Fl {
					t.Fatalf("%s: flop tally %+v, reference %+v", what, ws.Fl, refWs.Fl)
				}
				compared++
			}
		}
	}
	if compared < 100 {
		t.Fatalf("only %d of 160 panels factored: the generator makes too many singular ones", compared)
	}
}

// TestFactorPanelSingularColumn: a column that is zero from the diagonal down
// when its turn comes fails with the reference's error — same column index —
// wherever in a block it sits.
func TestFactorPanelSingularColumn(t *testing.T) {
	const r, s = 40, 19
	for _, col := range []int{0, 2, 3, 10, 11, 18} {
		bm, ws, piv, _ := densePanel(t, r, s)
		ref, refWs, refPiv, _ := densePanel(t, r, s)
		for _, x := range []*supernode.BlockMatrix{bm, ref} {
			pan := x.Panel(0)
			for i := 0; i < r; i++ {
				pan[i*s+col] = 0 // stays zero: every update subtracts l times the pivot row's zero
			}
		}
		err := core.FactorPanel(bm, 0, piv, ws)
		refErr := refFactorPanel(ref, 0, refPiv, refWs)
		if err == nil || !errors.Is(err, core.ErrSingular) || err.Error() != refErr.Error() {
			t.Fatalf("zero column %d: error %v, reference %v", col, err, refErr)
		}
		if want := fmt.Sprintf("zero pivot at column %d", col); !strings.Contains(err.Error(), want) {
			t.Fatalf("zero column %d: error %q does not say %q", col, err, want)
		}
	}
}

// TestNonFinitePivotIsSingular: a NaN or infinite pivot candidate used to
// slip through every comparison and come back as NaN factors with a nil
// error. Every executor now fails with an error wrapping ErrSingular: a
// value that is not finite is refused at assembly, naming its entry, and a
// pivot that the elimination itself overflows fails its column.
func TestNonFinitePivotIsSingular(t *testing.T) {
	base := bench.ByName("sherman5").Gen(0.3)
	sym := core.Analyze(base, core.AnalyzeOptions{})
	model := machine.T3E()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := base.Clone()
		// Poison the diagonal entry of a row in the middle of the matrix.
		i := a.N / 2
		hit := false
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			if a.ColInd[q] == i {
				a.Val[q], hit = bad, true
			}
		}
		if !hit {
			t.Fatal("test matrix has no stored diagonal")
		}
		runs := map[string]func() error{
			"seq":  func() error { _, err := core.FactorizeSeq(a, sym); return err },
			"host": func() error { _, err := core.FactorizeHost(a, sym, 3); return err },
			"1d":   func() error { _, err := core.Factorize1D(a, sym, model, core.ScheduleCA(sym, 4)); return err },
			"2d":   func() error { _, err := core.Factorize2D(a, sym, model, 2, 2, true); return err },
		}
		for name, run := range runs {
			err := run()
			if err == nil || !errors.Is(err, core.ErrSingular) {
				t.Fatalf("%s with a %v entry: error %v, want one wrapping ErrSingular", name, bad, err)
			}
			if want := fmt.Sprintf("at row %d, column %d is not finite", i, i); !strings.Contains(err.Error(), want) {
				t.Fatalf("%s with a %v entry: error %q does not say %q", name, bad, err, want)
			}
		}
	}
	// Finite input whose elimination overflows: the first column ties, so
	// the diagonal pivots with multiplier 1, and -1e308 - 1e308 leaves -Inf
	// as the second pivot.
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 1, 1e308)
	c.Add(1, 0, 1)
	c.Add(1, 1, -1e308)
	a := c.ToCSR()
	sym = core.Analyze(a, core.AnalyzeOptions{SkipOrdering: true})
	runs := map[string]func() error{
		"seq":  func() error { _, err := core.FactorizeSeq(a, sym); return err },
		"host": func() error { _, err := core.FactorizeHost(a, sym, 3); return err },
		"1d":   func() error { _, err := core.Factorize1D(a, sym, model, core.ScheduleCA(sym, 4)); return err },
		"2d":   func() error { _, err := core.Factorize2D(a, sym, model, 2, 2, true); return err },
	}
	for name, run := range runs {
		if err := run(); !errors.Is(err, core.ErrSingular) || !strings.Contains(fmt.Sprint(err), "non-finite pivot at column 1") {
			t.Fatalf("%s with an overflowing elimination: error %v, want a non-finite pivot at column 1 wrapping ErrSingular", name, err)
		}
	}
}

// TestSignedZeroSharedByExecutors pins the zero-multiplier decision across
// executors: with -0.0 stored in the matrix (a zero multiplier applied to a
// -0 slot gives +0; a skipping loop would keep -0), sequential, task-DAG, 1D
// and 2D still agree bit for bit.
func TestSignedZeroSharedByExecutors(t *testing.T) {
	a := sparse.Dense(60, 77)
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(79))
	for q := range a.Val {
		switch rng.Intn(4) {
		case 0:
			a.Val[q] = negZero
		case 1:
			a.Val[q] = 0
		}
	}
	sym := core.Analyze(a, core.AnalyzeOptions{SkipOrdering: true, Supernode: supernode.Options{MaxBlock: 13}})
	want, err := core.FactorizeSeq(a, sym)
	if err != nil {
		t.Fatal(err)
	}
	neg := 0
	for _, v := range want.BM.Values() {
		if v == 0 && math.Signbit(v) {
			neg++
		}
	}
	if neg == 0 {
		t.Fatal("no -0.0 survived into the factors: the test exercises nothing")
	}
	model := machine.T3E()
	fh, err := core.FactorizeHost(a, sym, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, "host", fh, want.BM, want.Piv)
	r1, err := core.Factorize1D(a, sym, model, core.ScheduleCA(sym, 3))
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, "1d", r1.Fact, want.BM, want.Piv)
	r2, err := core.Factorize2D(a, sym, model, 2, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	sameFactors(t, "2d", r2.Fact, want.BM, want.Piv)
}
