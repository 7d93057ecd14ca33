package bench

import (
	"fmt"
	"strings"
	"testing"
)

func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

// quickCfg shrinks every matrix hard so the whole experiment suite runs in
// seconds inside unit tests.
func quickCfg() Config { return Config{Scale: 0.25, BSize: 16, Amalg: 4} }

func TestSuiteSpecsGenerate(t *testing.T) {
	for _, spec := range append(Suite(), Extras()...) {
		a := spec.Gen(0.2)
		if a.N <= 0 || !a.HasZeroFreeDiagonal() {
			t.Fatalf("%s: bad generated matrix", spec.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("goodwin") == nil || ByName("dense1000") == nil {
		t.Fatal("known names must resolve")
	}
	if ByName("nope") != nil {
		t.Fatal("unknown name must return nil")
	}
}

func TestSmallLargeSplit(t *testing.T) {
	small, large := SmallSuite(), LargeSuite()
	if len(small)+len(large) != len(Suite()) {
		t.Fatal("small/large partition broken")
	}
	for _, s := range large {
		if !s.Large {
			t.Fatal("large suite contains small matrix")
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("1", "2")
	out := tab.Render()
	for _, want := range []string{"T\n", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tab, err := Table1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(Suite()) {
		t.Fatalf("rows %d, want %d", len(tab.Rows), len(Suite()))
	}
	// Every static fill must be at least the dynamic fill (column 8 ratio >= 1)
	for _, row := range tab.Rows {
		var ratio float64
		if _, err := sscan(row[7], &ratio); err != nil {
			t.Fatalf("bad ratio cell %q", row[7])
		}
		if ratio < 1 {
			t.Fatalf("%s: static/dynamic fill ratio %v < 1", row[0], ratio)
		}
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}

func TestTable2Shape(t *testing.T) {
	tab, err := Table2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SmallSuite())+len(Extras()) {
		t.Fatalf("unexpected row count %d", len(tab.Rows))
	}
}

func TestParallelExperimentsQuick(t *testing.T) {
	cfg := quickCfg()
	procs := []int{2, 4}
	if _, err := Table3(cfg, procs); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig16(cfg, procs); err != nil {
		t.Fatal(err)
	}
	if _, err := Table4(cfg, procs); err != nil {
		t.Fatal(err)
	}
	if _, err := Table7(cfg, procs); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig17(cfg, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig18(cfg, 4); err != nil {
		t.Fatal(err)
	}
}

func TestLargeExperimentsQuick(t *testing.T) {
	cfg := Config{Scale: 0.18, BSize: 12, Amalg: 4}
	if _, err := Table5(cfg, []int{4}); err != nil {
		t.Fatal(err)
	}
	if _, err := Table6(cfg, []int{8}); err != nil {
		t.Fatal(err)
	}
}

func TestAblationsQuick(t *testing.T) {
	cfg := quickCfg()
	if _, err := AblationBlockSize(cfg, "sherman5", []int{8, 16}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationAmalgamation(cfg, "sherman5", []int{0, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationGridAspect(cfg, "sherman5", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationMapping(cfg, "sherman5", []int{2, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationBlockSize(cfg, "missing", []int{8}, 4); err == nil {
		t.Fatal("unknown matrix must error")
	}
}

func TestClaimExperimentsQuick(t *testing.T) {
	cfg := quickCfg()
	tab, err := Blas3Fraction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty blas3 table")
	}
	tb, err := Theorem2Buffers(cfg, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	// Buffer high-water must be a small fraction of the matrix storage.
	for _, row := range tb.Rows {
		var pct float64
		if _, err := fmt.Sscanf(row[3], "%f%%", &pct); err != nil {
			t.Fatalf("bad percent cell %q", row[3])
		}
		if pct > 60 {
			t.Fatalf("%s: buffer high water %.1f%% of matrix — not 'small'", row[0], pct)
		}
	}
}

func TestAblationOrderingQuick(t *testing.T) {
	tab, err := AblationOrdering(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SmallSuite()) {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Fill-reducing orderings must not make the static fill (much) worse on
	// the grid-family matrices.
	for _, row := range tab.Rows {
		var fn, fm float64
		fmt.Sscan(row[1], &fn)
		fmt.Sscan(row[2], &fm)
		if fm > 1.5*fn {
			t.Fatalf("%s: ordering blew up static fill: nat %v mmd %v", row[0], fn, fm)
		}
	}
}

func TestSolveCostQuick(t *testing.T) {
	tab, err := SolveCost(quickCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(SmallSuite()) {
		t.Fatalf("rows %d", len(tab.Rows))
	}
}

func TestScalingReportQuick(t *testing.T) {
	tab, err := ScalingReport(Config{Scale: 0.2, BSize: 12, Amalg: 4}, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	// Speedup at P=4 must be > 1 for at least the larger matrices.
	any := false
	for _, row := range tab.Rows {
		var sp float64
		fmt.Sscan(row[2], &sp)
		if sp > 1.5 {
			any = true
		}
		if sp <= 0 {
			t.Fatalf("%s: speedup %v", row[0], sp)
		}
	}
	if !any {
		t.Fatal("no matrix shows speedup at P=4")
	}
}

func TestCaveatsQuick(t *testing.T) {
	tab, err := Caveats(Config{Scale: 0.3, BSize: 12, Amalg: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	for _, row := range tab.Rows {
		var r float64
		fmt.Sscan(row[4], &r)
		ratios = append(ratios, r)
	}
	// The memplus analog must overestimate much more than the wang3 analog.
	if !(ratios[0] > 2*ratios[1]) {
		t.Fatalf("memplus-like ratio %v not much worse than wang3-like %v", ratios[0], ratios[1])
	}
}

func TestPrepCostQuick(t *testing.T) {
	tab, err := PrepCost(Config{Scale: 0.2, BSize: 12, Amalg: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("empty prepcost table")
	}
}
