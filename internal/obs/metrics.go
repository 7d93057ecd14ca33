package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for Prometheus semantics; not enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. All methods are no-ops on nil.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefTimeBuckets is the default latency bucket ladder in seconds: 100µs to
// 10s, roughly ×2.5 per step — wide enough to hold both a cached analyze
// (microseconds) and a cold large-matrix factorization (seconds).
var DefTimeBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram with Prometheus cumulative
// semantics: counts[i] tallies observations <= bounds[i], counts[len]
// tallies the +Inf overflow. Observation is lock-free (one atomic add plus
// one CAS loop for the sum) and allocation-free. Nil-safe.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (DefTimeBuckets when none are given).
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefTimeBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value (typically seconds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: the ladders here are ~16 buckets, and a branchy binary
	// search buys nothing at that size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveNs records a duration given in nanoseconds, converted to seconds.
func (h *Histogram) ObserveNs(ns int64) { h.Observe(float64(ns) / 1e9) }

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// metricKind discriminates the registry entry types.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// metric is one named registry entry.
type metric struct {
	name, help string
	kind       metricKind
	c          *Counter
	g          *Gauge
	h          *Histogram
	fn         func() float64
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration order is preserved in the output, which
// keeps /metrics diffs (and the golden-format test) stable.
type Registry struct {
	mu     sync.Mutex
	ms     []*metric
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*metric)} }

func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.ms = append(r.ms, m)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, c: c})
	return c
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, g: g})
	return g
}

// Histogram registers and returns a new histogram (DefTimeBuckets when no
// bounds are given).
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.register(&metric{name: name, help: help, kind: kindHistogram, h: h})
	return h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic quantities owned elsewhere (e.g. a cache's hit
// count).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindCounterFunc, fn: fn})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// for instantaneous quantities owned elsewhere (queue depth, live handles).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&metric{name: name, help: help, kind: kindGaugeFunc, fn: fn})
}

// fmtFloat renders a sample value the way Prometheus clients do: integers
// without a decimal point, everything else in shortest-form %g.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.ms...)
	r.mu.Unlock()
	for _, m := range ms {
		typ := "counter"
		switch m.kind {
		case kindGauge, kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, typ); err != nil {
			return err
		}
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.g.Value())
		case kindCounterFunc, kindGaugeFunc:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, fmtFloat(m.fn()))
		case kindHistogram:
			cum := int64(0)
			for i, b := range m.h.bounds {
				cum += m.h.counts[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", m.name, fmtFloat(b), cum); err != nil {
					return err
				}
			}
			// _count is taken from the same bucket walk as the +Inf sample
			// so the two always agree, even mid-scrape under concurrent
			// observations.
			cum += m.h.counts[len(m.h.bounds)].Load()
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				m.name, cum, m.name, fmtFloat(m.h.Sum()), m.name, cum); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}
