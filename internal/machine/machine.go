// Package machine provides the deterministic virtual-time message-passing
// machine that stands in for the paper's Cray T3D/T3E. Each simulated
// processor runs as a goroutine with a local virtual clock; sends stamp their
// message with an arrival time computed from a latency/bandwidth model, and a
// blocking tagged receive advances the receiver's clock to the arrival time.
// The parallel time of a run is the maximum final clock — a discrete-event
// simulation whose event order (and hence result) is fully determined by the
// communication structure of the algorithm, never by host scheduling.
//
// Numerics still execute for real on the shared block matrix; channel
// (queue) synchronization gives the happens-before edges that make the shared
// accesses race-free, mirroring the data dependences the messages model.
//
// A product added to a clock is rounded first, float64(x*y), so no compiler
// fuses the two: modelled times are the same bits on every architecture.
package machine

import (
	"fmt"
	"math"
	"sync"
)

// Model is the per-machine cost model. Rates are flops/second for the three
// BLAS classes (the paper's measured DGEMM/DGEMV numbers), elements/second
// for row-interchange data movement, and seconds for message latency plus
// bytes/second bandwidth for communication.
type Model struct {
	Name      string
	Blas1Rate float64
	Blas2Rate float64 // DGEMV class
	Blas3Rate float64 // DGEMM class
	SwapRate  float64
	Latency   float64
	Bandwidth float64
	// TaskOverhead is charged once per executed task (scheduling/dispatch).
	TaskOverhead float64
	// HopLatency models the 3D-torus interconnect of the T3D/T3E: each
	// link between the source and destination node coordinates adds this
	// much to a message's flight time. 0 selects a distance-oblivious
	// (fully connected) network.
	HopLatency float64
}

// T3D returns the Cray-T3D model with the constants reported in Section 6:
// DGEMM 103 MFLOPS, DGEMV 85 MFLOPS at block size 25, shmem_put 2.7 µs
// overhead and 126 MB/s bandwidth.
func T3D() Model {
	return Model{
		Name:         "T3D",
		Blas1Rate:    45e6,
		Blas2Rate:    85e6,
		Blas3Rate:    103e6,
		SwapRate:     30e6,
		Latency:      2.7e-6,
		Bandwidth:    126e6,
		HopLatency:   1e-7,
		TaskOverhead: 2e-6,
	}
}

// T3E returns the Cray-T3E model: DGEMM 388 MFLOPS, DGEMV 255 MFLOPS,
// 0.5-2 µs latency and 500 MB/s peak (we use a 400 MB/s effective)
// bandwidth.
func T3E() Model {
	return Model{
		Name:         "T3E",
		Blas1Rate:    130e6,
		Blas2Rate:    255e6,
		Blas3Rate:    388e6,
		SwapRate:     90e6,
		Latency:      1e-6,
		Bandwidth:    400e6,
		HopLatency:   5e-8,
		TaskOverhead: 1e-6,
	}
}

// Unit returns a machine with unit rates, useful in tests where hand-computed
// virtual times must be easy to verify.
func Unit() Model {
	return Model{Name: "unit", Blas1Rate: 1, Blas2Rate: 1, Blas3Rate: 1, SwapRate: 1, Latency: 0, Bandwidth: math.Inf(1)}
}

// WithBlockSize adjusts the dense-kernel rates for the average dense-block
// width the factorization actually achieves. The paper's DGEMM/DGEMV rates
// are measured at block size 25 (Section 6); smaller blocks lose cache reuse
// and loop efficiency, larger ones gain a little until they saturate. This
// models the paper's Section 3.3 observation that amalgamation speeds the
// code up by enlarging supernodes, and its Section 6 remark that overlarge
// blocks only trade away parallelism.
func (m Model) WithBlockSize(bs float64) Model {
	if bs <= 0 {
		return m
	}
	f := (bs / (bs + 12)) * (37.0 / 25.0)
	if f > 1.15 {
		f = 1.15
	}
	m.Blas3Rate *= f
	// BLAS-2 kernels stream the matrix once; they are less cache-sensitive.
	g := (bs / (bs + 6)) * (31.0 / 25.0)
	if g > 1.1 {
		g = 1.1
	}
	m.Blas2Rate *= g
	return m
}

// ComputeSeconds converts flop-class tallies to seconds under the model.
func (m Model) ComputeSeconds(b1, b2, b3, sw int64) float64 {
	return float64(b1)/m.Blas1Rate + float64(b2)/m.Blas2Rate + float64(b3)/m.Blas3Rate + float64(sw)/m.SwapRate
}

// TransferSeconds is the wire time of one message of the given payload size.
func (m Model) TransferSeconds(bytes int) float64 {
	return m.Latency + float64(bytes)/m.Bandwidth
}

// Tag identifies a message stream between two processors. Src is implicit in
// the match (the same tag from two senders is disambiguated by Src).
type Tag struct {
	Src  int
	Kind uint8
	K    int // elimination step / panel
	Aux  int // task- or block-specific discriminator
}

type message struct {
	tag     Tag
	arrival float64
	bytes   int
	payload any
}

// TraceEvent is one recorded execution span on a processor's virtual
// timeline, for Gantt-chart style inspection of real runs.
type TraceEvent struct {
	Label      string
	Start, End float64
}

// Machine is a running virtual machine of P processors.
type Machine struct {
	P     int
	Model Model
	procs []*Proc
	dims  [3]int
	trace bool

	barriers []*Barrier // every barrier NewBarrier made, woken on abort
}

// EnableTracing turns on per-processor span recording (see Proc.TraceSpan).
// Tracing reads clocks only and never perturbs the modeled times.
func (m *Machine) EnableTracing() { m.trace = true }

// Traces returns each processor's recorded spans (valid after Run).
func (m *Machine) Traces() [][]TraceEvent {
	out := make([][]TraceEvent, m.P)
	for i, p := range m.procs {
		out[i] = p.trace
	}
	return out
}

// New creates a machine with p processors arranged (for the torus-distance
// model) in a near-cubic 3D grid.
func New(p int, model Model) *Machine {
	m := &Machine{P: p, Model: model, dims: torusDims(p)}
	m.procs = make([]*Proc, p)
	for i := 0; i < p; i++ {
		m.procs[i] = &Proc{id: i, m: m}
		m.procs[i].cond = sync.NewCond(&m.procs[i].mu)
	}
	return m
}

// torusDims factors p into three near-equal dimensions for the 3D torus
// embedding (largest factors first).
func torusDims(p int) [3]int {
	best := [3]int{p, 1, 1}
	bestScore := p // smaller "spread" (max dim) is better
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			if c < bestScore || (c == bestScore && b < best[1]) {
				best, bestScore = [3]int{c, b, a}, c
			}
		}
	}
	return best
}

// coords returns the 3D torus coordinates of processor id.
func (m *Machine) coords(id int) [3]int {
	d := m.dims
	return [3]int{id % d[0], (id / d[0]) % d[1], id / (d[0] * d[1])}
}

// Hops returns the number of torus links between two processors (sum of the
// per-dimension ring distances).
func (m *Machine) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	a, b := m.coords(src), m.coords(dst)
	h := 0
	for i := 0; i < 3; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if ring := m.dims[i] - d; ring < d {
			d = ring
		}
		h += d
	}
	return h
}

// Proc returns processor i.
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// Run executes body on every processor concurrently and returns the parallel
// time: the maximum final virtual clock. A panic in a body is re-raised once
// every processor has unwound; the one re-raised is the first, not the
// aborts it provokes in processors waiting on the one that panicked.
func (m *Machine) Run(body func(p *Proc)) float64 {
	var wg sync.WaitGroup
	var first sync.Once
	var cause any
	for i := 0; i < m.P; i++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					first.Do(func() {
						cause = r
						// Wake every receiver and barrier so the run
						// unwinds instead of hanging.
						for _, q := range m.procs {
							q.poison()
						}
						for _, b := range m.barriers {
							b.poison()
						}
					})
				}
			}()
			body(p)
		}(m.procs[i])
	}
	wg.Wait()
	if cause != nil {
		panic(cause)
	}
	max := 0.0
	for _, p := range m.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// BufferHighWater returns the largest number of bytes of undelivered messages
// buffered at any single processor during the run — the empirical counterpart
// of the paper's Cbuffer/Rbuffer analysis (Theorem 2).
func (m *Machine) BufferHighWater() int {
	max := 0
	for _, p := range m.procs {
		if p.bufHigh > max {
			max = p.bufHigh
		}
	}
	return max
}

// Proc is one simulated processor.
type Proc struct {
	id    int
	m     *Machine
	clock float64

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []message
	bufBytes int
	bufHigh  int
	poisoned bool

	// Stats.
	SentBytes    int64
	SentMessages int64
	busy         float64

	trace []TraceEvent
}

// TraceSpan records the interval [start, current clock] under the given
// label when tracing is enabled on the machine.
func (p *Proc) TraceSpan(label string, start float64) {
	if p.m.trace {
		p.trace = append(p.trace, TraceEvent{Label: label, Start: start, End: p.clock})
	}
}

// ID returns the processor index.
func (p *Proc) ID() int { return p.id }

// Clock returns the local virtual time.
func (p *Proc) Clock() float64 { return p.clock }

// AdvanceTo moves the local clock forward to at least t.
func (p *Proc) AdvanceTo(t float64) {
	if t > p.clock {
		p.clock = t
	}
}

// Compute charges t seconds of local computation.
func (p *Proc) Compute(t float64) {
	p.clock += t
	p.busy += t
}

// ChargeFlops charges flop-class tallies at the machine model's rates.
func (p *Proc) ChargeFlops(b1, b2, b3, sw int64) {
	p.Compute(p.m.Model.ComputeSeconds(b1, b2, b3, sw))
}

// ChargeTask charges the per-task dispatch overhead.
func (p *Proc) ChargeTask() { p.Compute(p.m.Model.TaskOverhead) }

// BusySeconds returns the total computation time charged to this processor
// (excludes time spent blocked in receives and barriers).
func (p *Proc) BusySeconds() float64 { return p.busy }

// Send transmits payload to processor dst under the given tag. The sender is
// charged the injection overhead (latency); the message arrives at
// clock + latency + bytes/bandwidth.
func (p *Proc) Send(dst int, tag Tag, bytes int, payload any) {
	tag.Src = p.id
	arrival := p.clock + p.m.Model.TransferSeconds(bytes) +
		float64(float64(p.m.Hops(p.id, dst))*p.m.Model.HopLatency)
	p.clock += p.m.Model.Latency
	p.SentBytes += int64(bytes)
	p.SentMessages++
	p.m.procs[dst].deliver(message{tag: tag, arrival: arrival, bytes: bytes, payload: payload})
}

// Multicast sends payload to every destination in dsts (excluding p itself if
// present) using a binomial-tree cost model: destination i receives after
// ceil(log2(i+2)) hop times; the sender is charged one injection per tree
// level.
func (p *Proc) Multicast(dsts []int, tag Tag, bytes int, payload any) {
	tag.Src = p.id
	hop := p.m.Model.TransferSeconds(bytes)
	levels := 0
	sent := 0
	for _, d := range dsts {
		if d == p.id {
			continue
		}
		depth := bitsLen(sent + 1) // 1 for the first, 2 for next two, ...
		arrival := p.clock + float64(float64(depth)*hop) +
			float64(float64(p.m.Hops(p.id, d))*p.m.Model.HopLatency)
		p.m.procs[d].deliver(message{tag: tag, arrival: arrival, bytes: bytes, payload: payload})
		p.SentBytes += int64(bytes)
		p.SentMessages++
		sent++
		if depth > levels {
			levels = depth
		}
	}
	p.clock += float64(float64(levels) * p.m.Model.Latency)
}

// bitsLen returns the number of bits of x (floor(log2 x) + 1 for x >= 1).
func bitsLen(x int) int {
	n := 0
	for x > 0 {
		n++
		x >>= 1
	}
	return n
}

func (p *Proc) deliver(msg message) {
	p.mu.Lock()
	p.pending = append(p.pending, msg)
	p.bufBytes += msg.bytes
	if p.bufBytes > p.bufHigh {
		p.bufHigh = p.bufBytes
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *Proc) poison() {
	p.mu.Lock()
	p.poisoned = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Recv blocks until a message matching tag arrives, advances the local clock
// to its arrival time, and returns the payload.
func (p *Proc) Recv(tag Tag) any {
	p.mu.Lock()
	for {
		for i, msg := range p.pending {
			if msg.tag == tag {
				p.pending = append(p.pending[:i], p.pending[i+1:]...)
				p.bufBytes -= msg.bytes
				p.mu.Unlock()
				p.AdvanceTo(msg.arrival)
				return msg.payload
			}
		}
		if p.poisoned {
			p.mu.Unlock()
			panic(fmt.Sprintf("machine: processor %d aborted while waiting for %+v", p.id, tag))
		}
		p.cond.Wait()
	}
}

// Barrier synchronizes the given barrier object; all participants leave with
// clock = max(entry clocks) + 2*ceil(log2 P)*latency (a tree reduce +
// broadcast).
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	gen     int
	max     float64
	release float64
	lat     float64

	poisoned bool
}

// NewBarrier creates a barrier for the whole machine. Make it before Run, so
// that a processor's panic can wake the others waiting on it.
func (m *Machine) NewBarrier() *Barrier {
	b := &Barrier{parties: m.P, lat: m.Model.Latency}
	b.cond = sync.NewCond(&b.mu)
	m.barriers = append(m.barriers, b)
	return b
}

func (b *Barrier) poison() {
	b.mu.Lock()
	b.poisoned = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Wait enters the barrier.
func (b *Barrier) Wait(p *Proc) {
	b.mu.Lock()
	gen := b.gen
	if p.clock > b.max {
		b.max = p.clock
	}
	b.count++
	if b.count == b.parties {
		depth := 0
		for 1<<depth < b.parties {
			depth++
		}
		b.release = b.max + float64(2*float64(depth)*b.lat)
		b.count = 0
		b.max = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			if b.poisoned {
				b.mu.Unlock()
				panic(fmt.Sprintf("machine: processor %d aborted at a barrier", p.id))
			}
			b.cond.Wait()
		}
	}
	release := b.release
	b.mu.Unlock()
	p.AdvanceTo(release)
}
