// Package obs is the repo's zero-dependency observability layer: counters
// and gauges read at scrape time and fixed-bucket latency histograms,
// collected in a Registry that renders Prometheus text format, plus a
// lock-cheap ring-buffer trace recorder that dumps Chrome trace_event JSON
// timelines.
//
// The paper's whole argument is a performance argument — PT/ET efficiency,
// per-phase cost splits, bounded asynchronous overlap — and this package is
// what makes those quantities visible on the host implementation: the
// analyze and numeric phases report their timings through the Sink
// interface, the host executor emits one span per Factor(k)/Update(k,j)
// with the worker that ran it (so a run renders as a pipeline-overlap
// timeline in chrome://tracing or Perfetto), and the solver service exports
// its counters and request-phase histograms over /metrics.
//
// Everything here is safe on a nil receiver: a nil *Tracer or *Histogram
// turns every method into a pointer check and return, which is what keeps
// the disabled path (the default for the library) at effectively zero cost —
// no allocation, no atomics, no time syscalls.
package obs

// Phase names used across the pipeline. Emitters and dashboards agree on
// these strings; they are part of the root package's Observer contract.
const (
	PhaseOrdering  = "ordering"  // max transversal + fill-reducing ordering
	PhaseSymbolic  = "symbolic"  // George–Ng static symbolic factorization
	PhasePartition = "partition" // 2D L/U supernode partition
	PhaseFactor    = "factor"    // numeric factorization
	PhaseSolve     = "solve"     // triangular solves

	// Sub-phases of the partition stage and the incremental analyze path.
	// Emitted in addition to (not instead of) the phases above; sinks that
	// only know the coarse five keep working by ignoring unknown names.
	PhaseDetect = "partition-detect" // strict supernode detection
	PhaseChoose = "partition-choose" // amalgamation + blocking choice
	PhaseBuild  = "partition-build"  // per-block structure build
	PhasePatch  = "patch"            // incremental symbolic re-analysis
)

// Task kinds of TaskEvent.Kind, matching the paper's notation.
const (
	KindFactor byte = 'F' // Factor(k)
	KindUpdate byte = 'U' // Update(k, j)
)

// TaskEvent is one completed Factor/Update task of the numeric
// factorization. StartNs is an absolute wall-clock stamp (UnixNano) so
// events from one factorization can be placed on any recorder's timeline.
type TaskEvent struct {
	Kind    byte  // KindFactor or KindUpdate
	K, J    int32 // elimination step and target block (J == K for Factor)
	Worker  int32 // executor worker that ran the task
	StartNs int64 // time.Now().UnixNano() at task start
	DurNs   int64 // task duration in nanoseconds
}

// Sink receives pipeline instrumentation. Implementations must be safe for
// concurrent use (task events arrive from every executor worker) and cheap:
// the emitting code sits on the factorization hot path. A nil Sink disables
// instrumentation entirely — emitters nil-check before doing any timing
// work.
type Sink interface {
	// Phase reports a just-finished pipeline phase and its duration.
	Phase(name string, ns int64)
	// Task reports a completed Factor/Update task.
	Task(ev TaskEvent)
}

// MultiSink fans events out to several sinks.
type MultiSink []Sink

// Phase implements Sink.
func (m MultiSink) Phase(name string, ns int64) {
	for _, s := range m {
		s.Phase(name, ns)
	}
}

// Task implements Sink.
func (m MultiSink) Task(ev TaskEvent) {
	for _, s := range m {
		s.Task(ev)
	}
}
