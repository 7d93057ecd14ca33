package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the tables the benchmark emits from
// and the tables to the limits of the driver's contract.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the benchmark's tables; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics are outside the contract", len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower")
	}
}

// TestWorkloadsToyScale runs every workload, untraced and traced, on inputs a
// fifth of the size for the minimum number of blocks, and checks the result line:
// correct, exactly the declared metric names, no end-to-end metric at 0, and
// enough samples behind every median.
func TestWorkloadsToyScale(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 1, seconds: 0.05, trace: trace, scale: 0.2, setups: 1, outDir: out}
			res, det, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, det.Failures)
			}
			declared := endToEnd
			if trace {
				declared = perLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, d := range declared {
				v, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is missing", w.Name, trace, d.Name)
				case v.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.Name, d.Name, v.Unit, d.Unit)
				case !trace && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %g", w.Name, d.Name, v.Value)
				}
			}
			// A median needs ten samples beyond it, and minBlocks sees to
			// them on any clock. The per-layer p90s need a hundred, which a
			// full-length run has (samples_beyond_p90 in its detail line)
			// and this run does not.
			for _, class := range []string{w.Op, "solve"} {
				if n := det.Samples[class]; n < 20 {
					t.Errorf("%s trace=%v: %d %s samples, a median needs 20", w.Name, trace, n, class)
				}
			}
			if trace {
				if _, err := os.Stat(out + "/trace." + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}
