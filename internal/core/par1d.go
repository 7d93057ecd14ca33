package core

import (
	"fmt"

	"sstar/internal/machine"
	"sstar/internal/sched"
	"sstar/internal/sparse"
	"sstar/internal/supernode"
	"sstar/internal/taskgraph"
)

// Message tag kinds used by the parallel codes.
const (
	tagPanel1D uint8 = iota + 1
	tagPanelRow2D
	tagPanelCol2D
	tagPivCand2D
	tagPivBcast2D
	tagSwap2D
)

// ParResult is the outcome of a parallel factorization run: the factors, the
// modeled parallel time and communication statistics.
type ParResult struct {
	Fact         *Factorization
	ParallelTime float64
	SentBytes    int64
	SentMessages int64
	BufferHigh   int
	LoadBalance  float64
	// BusySeconds is each processor's charged compute time (excluding
	// blocked waits) — busy/parallel time is the utilization.
	BusySeconds []float64
	// Traces holds per-processor execution spans when tracing was
	// requested (see WithTracing).
	Traces [][]machine.TraceEvent
}

// RunOption tweaks a parallel run.
type RunOption func(*runConfig)

type runConfig struct{ trace bool }

// WithTracing records per-task execution spans on every simulated processor;
// the result's Traces field then holds a Gantt-chart-ready timeline.
func WithTracing() RunOption { return func(c *runConfig) { c.trace = true } }

func applyRunOptions(opts []RunOption) runConfig {
	var c runConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// singularErr carries a singular-pivot failure out of a machine run.
type singularErr struct{ err error }

func runMachine(m *machine.Machine, body func(p *machine.Proc)) (pt float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if se, ok := r.(singularErr); ok {
				err = se.err
				return
			}
			panic(r)
		}
	}()
	pt = m.Run(body)
	return pt, nil
}

// chargeDelta charges the difference of a workspace's flop tally since prev
// to the processor and returns the new tally.
func chargeDelta(p *machine.Proc, ws *Workspace, prev Flops) Flops {
	cur := ws.Fl
	p.ChargeFlops(cur.B1-prev.B1, cur.B2-prev.B2, cur.B3-prev.B3, cur.Sw-prev.Sw)
	return cur
}

// panelBytes is the broadcast payload of Factor(k): pivot sequence, diagonal
// block and the L blocks of column k.
func panelBytes(p *supernode.Partition, k int) int {
	s := p.Size(k)
	return 8 * (s + s*s + len(p.LRows[k])*s)
}

// Factorize1D runs a 1D-mapped parallel factorization on nproc simulated
// processors, following the given schedule (compute-ahead or graph-scheduled;
// see package sched). Every processor executes its task list in order; panel
// broadcasts are the only communication, exactly as in the paper's 1D codes.
func Factorize1D(a *sparse.CSR, sym *Symbolic, model machine.Model, s *sched.Schedule, opts ...RunOption) (*ParResult, error) {
	cfg := applyRunOptions(opts)
	bm, asm, err := assemble(a, sym)
	if err != nil {
		return nil, err
	}
	p := sym.Partition
	g := sym.TaskGraph()
	piv := make([]int32, sym.N)
	mach := machine.New(s.P, model)
	if cfg.trace {
		mach.EnableTracing()
	}

	// Destination processors of each Factor(k) broadcast: owners of any
	// Update(k, j), excluding the panel owner itself.
	dests := make([][]int, p.NB)
	for k := 0; k < p.NB; k++ {
		seen := make(map[int]bool)
		for _, jb := range p.UBlocks[k] {
			o := s.Owner[int(jb)]
			if o != s.Owner[k] && !seen[o] {
				seen[o] = true
				dests[k] = append(dests[k], o)
			}
		}
		sortInts(dests[k])
	}

	workspaces := make([]Workspace, s.P)

	pt, err := runMachine(mach, func(proc *machine.Proc) {
		ws := &workspaces[proc.ID()]
		var prev Flops
		received := make([]bool, p.NB)
		for _, id := range s.Order[proc.ID()] {
			t := g.Tasks[id]
			proc.ChargeTask()
			start := proc.Clock()
			switch t.Kind {
			case taskgraph.KindFactor:
				if err := FactorPanel(bm, t.K, piv, ws); err != nil {
					panic(singularErr{err})
				}
				prev = chargeDelta(proc, ws, prev)
				if len(dests[t.K]) > 0 {
					proc.Multicast(dests[t.K], machine.Tag{Kind: tagPanel1D, K: t.K}, panelBytes(p, t.K), nil)
				}
			case taskgraph.KindUpdate:
				if s.Owner[t.K] != proc.ID() && !received[t.K] {
					proc.Recv(machine.Tag{Src: s.Owner[t.K], Kind: tagPanel1D, K: t.K})
					received[t.K] = true
				}
				UpdatePanelPair(bm, t.K, t.J, piv, ws)
				prev = chargeDelta(proc, ws, prev)
			}
			if cfg.trace {
				proc.TraceSpan(t.Label(), start)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var fl Flops
	var bytes, msgs int64
	for i := 0; i < s.P; i++ {
		fl.Add(workspaces[i].Fl)
		bytes += mach.Proc(i).SentBytes
		msgs += mach.Proc(i).SentMessages
	}
	w := g.Weights(model.Blas1Rate, model.Blas2Rate, model.Blas3Rate, model.SwapRate, model.TaskOverhead)
	lb := sched.LoadBalance(g, w, func(t *taskgraph.Task) int { return s.Owner[t.J] }, s.P)
	busy := make([]float64, s.P)
	for i := range busy {
		busy[i] = mach.Proc(i).BusySeconds()
	}
	res := &ParResult{
		Fact:         &Factorization{Sym: sym, BM: bm, Piv: piv, Fl: fl, asm: asm},
		ParallelTime: pt,
		SentBytes:    bytes,
		SentMessages: msgs,
		BufferHigh:   mach.BufferHighWater(),
		LoadBalance:  lb,
		BusySeconds:  busy,
	}
	if cfg.trace {
		res.Traces = mach.Traces()
	}
	return res, nil
}

// ScheduleCA builds the compute-ahead schedule for a symbolic factorization.
func ScheduleCA(sym *Symbolic, nproc int) *sched.Schedule {
	return sched.ComputeAhead(sym.TaskGraph(), nproc)
}

// ScheduleRAPID builds the graph schedule for a symbolic factorization under
// a machine model: it generates both a communication-aware critical-path list
// schedule (ETF) and a load-balance-first LPT schedule with bottom-level task
// ordering, simulates both with blocking semantics, and keeps the faster —
// mirroring how the RAPID system executes the best schedule its scheduler
// finds. The schedulers only read the analysis' shared task graph.
func ScheduleRAPID(sym *Symbolic, nproc int, model machine.Model) *sched.Schedule {
	g := sym.TaskGraph()
	w := g.Weights(model.Blas1Rate, model.Blas2Rate, model.Blas3Rate, model.SwapRate, model.TaskOverhead)
	etf := sched.ListSchedule(g, nproc, w, model.TransferSeconds)
	lpt := sched.LPTSchedule(g, nproc, w)
	return sched.Best(g, w, model.TransferSeconds, etf, lpt)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// errNB guards against empty partitions in parallel drivers.
func errNB(p *supernode.Partition) error {
	if p.NB == 0 {
		return fmt.Errorf("core: empty partition")
	}
	return nil
}
