package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are ROADMAP item 5). Spans of one op share
// Op; Parent is the ID of the span that caused this one, 0 for a root; Kind
// is the matrix (or matrix/mapping) the op ran on, "" where there is one kind.
type span struct {
	Name    string `json:"name"`
	Kind    string `json:"kind,omitempty"`
	ID      int    `json:"id"`
	Op      int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the measured loops are the same code traced or not.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	kinds map[int]string // op -> kind, for ops that named one
}

func newTracer() *tracer { return &tracer{t0: time.Now(), kinds: map[int]string{}} }

// setKind names the kind of op's spans. Span times are aggregated like op
// latencies, per kind first (see classStats), so they can be read against them.
func (t *tracer) setKind(op int, kind string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.kinds[op] = kind
	t.mu.Unlock()
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Kind: t.kinds[op], ID: id, Op: op, Parent: parent, StartNs: time.Since(t.t0).Nanoseconds()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// do records fn as one span.
func (t *tracer) do(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// child adds a span of known duration under parent, starting at offsetNs
// into it: how a duration the callee measured itself (Partition.Times, the
// RequestStats of a reply) becomes a child span. It returns the offset just
// past the new span.
func (t *tracer) child(name string, op, parent int, offsetNs, durNs int64) int64 {
	if t == nil || durNs <= 0 {
		return offsetNs
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent-1].StartNs + offsetNs
	t.spans = append(t.spans, span{Name: name, Kind: t.kinds[op], ID: len(t.spans) + 1, Op: op, Parent: parent, StartNs: start, EndNs: start + durNs})
	return offsetNs + durNs
}

// times returns, per span name and kind, every span's self time (its
// duration minus the part its child spans cover) and full duration, in
// seconds. A span left open by a failed op is skipped.
func (t *tracer) times() (self, dur map[string]map[string][]float64) {
	self, dur = map[string]map[string][]float64{}, map[string]map[string][]float64{}
	if t == nil {
		return self, dur
	}
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		covered[s.Parent] += max(s.EndNs-s.StartNs, 0)
	}
	add := func(m map[string]map[string][]float64, s span, ns int64) {
		if m[s.Name] == nil {
			m[s.Name] = map[string][]float64{}
		}
		m[s.Name][s.Kind] = append(m[s.Name][s.Kind], float64(max(ns, 0))/1e9)
	}
	for _, s := range t.spans {
		if s.EndNs < s.StartNs {
			continue
		}
		add(dur, s, s.EndNs-s.StartNs)
		add(self, s, s.EndNs-s.StartNs-covered[s.ID])
	}
	return self, dur
}

// write stores the spans as benchmark/out/trace.<workload>.json under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace."+workload+".json"), data, 0o644)
}
