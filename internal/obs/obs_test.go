package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("t_requests_total", "requests processed", func() float64 { return 5 })
	r.GaugeFunc("t_queue_depth", "requests waiting", func() float64 { return 2 })
	h := r.Histogram("t_factor_seconds", "factor latency", 0.001, 0.01, 0.1)
	r.GaugeFunc("t_mean_wait_seconds", "mean wait", func() float64 { return 1.5 })

	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(9) // overflow bucket

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# HELP t_requests_total requests processed",
		"# TYPE t_requests_total counter",
		"t_requests_total 5",
		"# TYPE t_queue_depth gauge",
		"t_queue_depth 2",
		"# TYPE t_factor_seconds histogram",
		`t_factor_seconds_bucket{le="0.001"} 1`,
		`t_factor_seconds_bucket{le="0.01"} 1`,
		`t_factor_seconds_bucket{le="0.1"} 2`,
		`t_factor_seconds_bucket{le="+Inf"} 3`,
		"t_factor_seconds_count 3",
		"# TYPE t_mean_wait_seconds gauge",
		"t_mean_wait_seconds 1.5",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("missing %q in output:\n%s", want, got)
		}
	}
	// Sum: 0.0005 + 0.05 + 9.
	if !strings.Contains(got, "t_factor_seconds_sum 9.0505\n") {
		t.Errorf("bad histogram sum in:\n%s", got)
	}
	// Every line must be a comment or a sample with exactly one space.
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Split(line, " "); len(parts) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const goroutines, each = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*each {
		t.Fatalf("count = %d, want %d", got, goroutines*each)
	}
	if got, want := h.Sum(), float64(goroutines*each)*0.001; got < want*0.999 || got > want*1.001 {
		t.Fatalf("sum = %g, want ~%g", got, want)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines (run under
// -race in the CI gate) and checks the ring-buffer accounting: capacity is
// respected, and held + dropped equals the number of events emitted.
func TestTracerConcurrent(t *testing.T) {
	const capEvents = 256
	tr := NewTracer(capEvents)
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.Task(TaskEvent{Kind: KindUpdate, K: int32(i), J: int32(i + 1),
					Worker: int32(worker), StartNs: time.Now().UnixNano(), DurNs: 100})
				tr.Phase(PhaseFactor, 50)
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Len(); got != capEvents {
		t.Fatalf("ring holds %d events, want full capacity %d", got, capEvents)
	}
	total := int64(goroutines * each * 2)
	if got := tr.Dropped() + int64(tr.Len()); got != total {
		t.Fatalf("held+dropped = %d, want %d", got, total)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].StartNs < evs[i-1].StartNs {
			t.Fatalf("events not chronological at %d", i)
		}
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer(64)
	tr.Phase(PhaseOrdering, int64(2*time.Millisecond))
	tr.Phase(PhaseSymbolic, int64(time.Millisecond))
	tr.Task(TaskEvent{Kind: KindFactor, K: 0, Worker: 1, StartNs: time.Now().UnixNano(), DurNs: 5000})
	tr.Task(TaskEvent{Kind: KindUpdate, K: 0, J: 2, Worker: 2, StartNs: time.Now().UnixNano(), DurNs: 7000})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Dur <= 0 || ev.TS < 0 {
			t.Errorf("event %q: bad ts/dur %v/%v", ev.Name, ev.TS, ev.Dur)
		}
	}
	for _, want := range []string{"ordering", "symbolic", "F(0)", "U(0,2)"} {
		if !names[want] {
			t.Errorf("missing event %q in %v", want, names)
		}
	}
}

// TestDisabledPathZeroAlloc is the overhead guard of the disabled
// instrumentation path: every nil-receiver call must allocate nothing (and
// in particular never touch a clock). This is what keeps the library path
// within the <2% overhead budget when no tracer/observer is attached.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var tr *Tracer
	var h *Histogram
	ev := TaskEvent{Kind: KindFactor, K: 1, StartNs: 1, DurNs: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Task(ev)
		tr.Phase(PhaseFactor, 10)
		tr.Emit(Event{})
		_ = tr.Since()
		h.Observe(0.5)
		h.ObserveNs(100)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %v allocs/op, want 0", allocs)
	}
}

// TestEnabledTaskZeroAlloc pins the enabled hot path too: recording a task
// event into a warm ring allocates nothing.
func TestEnabledTaskZeroAlloc(t *testing.T) {
	tr := NewTracer(64)
	ev := TaskEvent{Kind: KindUpdate, K: 1, J: 2, StartNs: 1, DurNs: 1}
	allocs := testing.AllocsPerRun(1000, func() { tr.Task(ev) })
	if allocs != 0 {
		t.Fatalf("enabled Task allocates: %v allocs/op, want 0", allocs)
	}
}
