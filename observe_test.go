package sstar

import (
	"bytes"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"time"
)

// recordingObserver collects every Phase and Task callback, safely across
// the executor's concurrent workers.
type recordingObserver struct {
	mu     sync.Mutex
	phases map[string]int
	tasks  []TaskEvent
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{phases: make(map[string]int)}
}

func (r *recordingObserver) Phase(name string, d time.Duration) {
	r.mu.Lock()
	r.phases[name]++
	r.mu.Unlock()
}

func (r *recordingObserver) Task(ev TaskEvent) {
	r.mu.Lock()
	r.tasks = append(r.tasks, ev)
	r.mu.Unlock()
}

// TestObserverReceivesAllPhases: one Factorize + Solve through an Observer
// must report every pipeline phase exactly once and a Factor task per panel.
func TestObserverReceivesAllPhases(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := coarseMatrix()
	rec := newRecordingObserver()
	o := DefaultOptions()
	o.HostWorkers = 4
	o.Observer = rec
	f, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	onExecutor(t, "observed factorization", f)
	if _, err := f.Solve(rhs(a.N, 92)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{PhaseOrdering, PhaseSymbolic, PhasePartition, PhaseFactor, PhaseSolve} {
		if rec.phases[name] != 1 {
			t.Fatalf("phase %q reported %d times, want 1 (all: %v)", name, rec.phases[name], rec.phases)
		}
	}
	nb := f.Blocks()
	factors, updates := 0, 0
	for _, ev := range rec.tasks {
		switch ev.Kind {
		case TaskFactor:
			factors++
			if ev.J != ev.K {
				t.Fatalf("Factor(%d) has J=%d, want J==K", ev.K, ev.J)
			}
		case TaskUpdate:
			updates++
			if ev.J <= ev.K {
				t.Fatalf("Update(%d,%d) must have J > K", ev.K, ev.J)
			}
		default:
			t.Fatalf("unknown task kind %q", ev.Kind)
		}
		if ev.Worker < 0 || ev.Worker >= 4 {
			t.Fatalf("task worker %d out of range [0,4)", ev.Worker)
		}
	}
	if factors != nb {
		t.Fatalf("got %d Factor tasks, want one per panel (%d)", factors, nb)
	}
	if updates == 0 {
		t.Fatal("no Update tasks reported")
	}

	// Refactorize reports the factor phase again through the stored observer.
	if err := f.Refactorize(a); err != nil {
		t.Fatal(err)
	}
	if rec.phases[PhaseFactor] != 2 {
		t.Fatalf("PhaseFactor after Refactorize reported %d times, want 2", rec.phases[PhaseFactor])
	}
}

// TestObserverDoesNotChangeFactors: the stability contract — attaching an
// Observer (including a Trace with its per-task time stamps) must leave the
// factors bit-identical, at any worker count.
func TestObserverDoesNotChangeFactors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := coarseMatrix()
	plain, err := Factorize(a, Options{HostWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		o := DefaultOptions()
		o.HostWorkers = w
		o.Observer = NewTrace(0)
		traced, err := Factorize(a, o)
		if err != nil {
			t.Fatal(err)
		}
		if w > 1 {
			onExecutor(t, "traced factorization", traced)
		}
		factsBitIdentical(t, "traced vs plain", plain, traced)
	}
}

// TestTraceChromeJSON: a Factorize recorded through a Trace must render as
// valid Chrome trace_event JSON whose Factor/Update spans match the task DAG
// (one F(k) per panel, every U(k,j) with j > k).
func TestTraceChromeJSON(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a := coarseMatrix()
	tr := NewTrace(0)
	o := DefaultOptions()
	o.HostWorkers = 3
	o.Observer = tr
	f, err := Factorize(a, o)
	if err != nil {
		t.Fatal(err)
	}
	onExecutor(t, "traced factorization", f)
	if tr.Len() == 0 {
		t.Fatal("trace recorded no spans")
	}
	if tr.Dropped() != 0 {
		t.Fatalf("trace dropped %d spans with default capacity", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
			Args struct {
				K int `json:"k"`
				J int `json:"j"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	factors := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has ph=%q, want complete event X", ev.Name, ev.Ph)
		}
		if ev.Ts < 0 || ev.Dur <= 0 {
			t.Fatalf("event %q has ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
		}
		switch ev.Cat {
		case "factor":
			factors++
			if ev.Args.J != ev.Args.K {
				t.Fatalf("Factor span %q has j=%d, want j==k=%d", ev.Name, ev.Args.J, ev.Args.K)
			}
			if ev.TID < 0 || ev.TID >= 3 {
				t.Fatalf("Factor span %q on lane %d, want [0,3)", ev.Name, ev.TID)
			}
		case "update":
			if ev.Args.J <= ev.Args.K {
				t.Fatalf("Update span %q has j=%d <= k=%d", ev.Name, ev.Args.J, ev.Args.K)
			}
		}
	}
	if factors != f.Blocks() {
		t.Fatalf("trace holds %d Factor spans, want one per panel (%d)", factors, f.Blocks())
	}
}
