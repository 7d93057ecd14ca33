package sstar

import (
	"io"
	"time"

	"sstar/internal/obs"
)

// Pipeline phase names reported to an Observer. The set and meaning of
// these names is part of the API's stability contract (see Observer).
const (
	// PhaseOrdering covers the maximum transversal and the fill-reducing
	// column ordering.
	PhaseOrdering = obs.PhaseOrdering
	// PhaseSymbolic is the George–Ng static symbolic factorization.
	PhaseSymbolic = obs.PhaseSymbolic
	// PhasePartition is the 2D L/U supernode partitioning.
	PhasePartition = obs.PhasePartition
	// PhaseFactor is the numeric factorization.
	PhaseFactor = obs.PhaseFactor
	// PhaseSolve is the triangular-solve pair of one Solve call.
	PhaseSolve = obs.PhaseSolve

	// Sub-phases of the partition stage (strict supernode detection, the
	// blocking choice, the per-block structure build) and the incremental
	// re-analysis of Analysis.Patch. Reported in addition to the coarse
	// phases above; per the stability contract, implementations ignore
	// names they do not know.
	PhaseDetect = obs.PhaseDetect
	PhaseChoose = obs.PhaseChoose
	PhaseBuild  = obs.PhaseBuild
	PhasePatch  = obs.PhasePatch
)

// Task kinds of TaskEvent.Kind, in the paper's notation.
const (
	TaskFactor byte = obs.KindFactor // 'F': Factor(k)
	TaskUpdate byte = obs.KindUpdate // 'U': Update(k, j)
)

// TaskEvent describes one completed Factor(k)/Update(k,j) task of the
// numeric factorization: which panel(s) it touched, which executor worker
// ran it, and when.
type TaskEvent struct {
	Kind   byte // TaskFactor or TaskUpdate
	K, J   int  // elimination step and target block column (J == K for Factor)
	Worker int  // executor worker id (0 for the sequential driver)
	Start  time.Time
	Dur    time.Duration
}

// Observer receives pipeline timings without the caller importing any
// internal package: set Options.Observer and every analyze phase, the
// numeric factorization, each of its Factor/Update tasks, and every solve
// reports through it.
//
// Stability contract: the five Phase names (PhaseOrdering, PhaseSymbolic,
// PhasePartition, PhaseFactor, PhaseSolve) and the TaskEvent fields are
// stable API; new phase names may be added in future versions, so
// implementations must ignore names they do not know. Implementations must
// be safe for concurrent use — Task events arrive concurrently from every
// executor worker — and cheap, since they run on the factorization hot
// path. Observation never changes numeric results: factors are
// bit-identical with or without an Observer attached.
type Observer interface {
	// Phase reports a just-completed pipeline phase and its duration.
	Phase(name string, d time.Duration)
	// Task reports a completed Factor/Update task of the numeric phase.
	Task(ev TaskEvent)
}

// observerSink adapts a public Observer to the internal obs.Sink the core
// pipeline emits on.
type observerSink struct{ o Observer }

func (s observerSink) Phase(name string, ns int64) { s.o.Phase(name, time.Duration(ns)) }

func (s observerSink) Task(ev obs.TaskEvent) {
	s.o.Task(TaskEvent{
		Kind: ev.Kind, K: int(ev.K), J: int(ev.J), Worker: int(ev.Worker),
		Start: time.Unix(0, ev.StartNs), Dur: time.Duration(ev.DurNs),
	})
}

// sinkFor wraps an Observer for the internal pipeline; nil stays nil so the
// disabled path keeps its zero-cost nil checks.
func sinkFor(o Observer) obs.Sink {
	if o == nil {
		return nil
	}
	return observerSink{o}
}

// Trace is an Observer that records phases and tasks into a bounded
// in-memory ring and renders them as a Chrome trace_event JSON timeline
// (loadable in chrome://tracing or https://ui.perfetto.dev): one lane per
// executor worker, one span per Factor/Update task, so the pipeline overlap
// of the host executor is directly visible.
//
//	tr := sstar.NewTrace(0)
//	opts := sstar.DefaultOptions()
//	opts.HostWorkers = 8
//	opts.Observer = tr
//	f, _ := sstar.Factorize(a, opts)
//	tr.WriteChromeTrace(file)
//
// When the ring fills, the oldest spans are overwritten (Dropped counts
// them), so tracing a huge factorization keeps the most recent window.
type Trace struct{ tr *obs.Tracer }

// NewTrace returns an empty trace recorder holding up to capacity spans
// (a 64k-span default when capacity <= 0).
func NewTrace(capacity int) *Trace { return &Trace{tr: obs.NewTracer(capacity)} }

// Phase implements Observer.
func (t *Trace) Phase(name string, d time.Duration) { t.tr.Phase(name, d.Nanoseconds()) }

// Task implements Observer.
func (t *Trace) Task(ev TaskEvent) {
	t.tr.Task(obs.TaskEvent{
		Kind: ev.Kind, K: int32(ev.K), J: int32(ev.J), Worker: int32(ev.Worker),
		StartNs: ev.Start.UnixNano(), DurNs: ev.Dur.Nanoseconds(),
	})
}

// Len returns the number of spans currently held.
func (t *Trace) Len() int { return t.tr.Len() }

// Dropped returns how many spans were overwritten after the ring filled.
func (t *Trace) Dropped() int64 { return t.tr.Dropped() }

// WriteChromeTrace writes the recorded timeline as Chrome trace_event JSON.
func (t *Trace) WriteChromeTrace(w io.Writer) error { return t.tr.WriteChromeTrace(w) }
