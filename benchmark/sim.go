package main

import (
	"fmt"
	"time"

	"sstar"
	"sstar/internal/core"
	"sstar/internal/machine"
	"sstar/internal/sched"
	"sstar/internal/supernode"
)

// sim-t3e reproduces the paper's distributed-memory runs on the virtual-time
// machine. The modelled numbers are exact functions of the inputs, so every
// round must reproduce round 1 bit for bit; what varies is the host wall time
// of the simulator itself.

const simProcs = 16

// modelled is what one simulated run reports; compared with == across rounds.
type modelled struct {
	FactorTime, MFLOPS, UtilMean, SolveTime float64
	Msgs, Bytes                             int64
}

// simRun is one op's outcome. LoadBalance stays outside modelled: the 2D
// codes sum it in no fixed order and its last bit differs from run to run, so
// it is reported but not compared.
type simRun struct {
	modelled
	LoadBalance  float64
	total, solve time.Duration
}

type simMatrix struct {
	name string
	a    *sstar.Matrix
	b    []float64
	ref  map[string]simRun // by mapping, from the set-up round
	sym  *core.Symbolic    // stepwise analysis (traced runs)
}

type simWorkload struct {
	mats []*simMatrix
}

func setupSim(r *run) (instance, error) {
	w := &simWorkload{}
	for _, name := range []string{"sherman5", "lnsp3937", "orsreg1", "saylr4"} {
		m := &simMatrix{name: name, a: suiteMatrix(name, 0.5*r.cfg.scale), ref: map[string]simRun{}}
		r.in.noteMatrix(m.a, sstar.PaperOptions())
		m.b = r.in.rhs("rhs/"+name, m.a.N, 1, 1)[0]
		// Round 1: the reference every timed round must reproduce exactly.
		for _, mp := range mappings {
			got, err := simulate(m, mp)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, mp, err)
			}
			m.ref[mp] = got
		}
		if r.tr != nil {
			m.sym = core.Analyze(m.a, core.AnalyzeOptions{Supernode: supernode.Options{MaxBlock: 25, Amalgamate: 4}})
		}
		w.mats = append(w.mats, m)
	}
	return w, nil
}

// simulate is one op: factorize on the virtual machine (the paper's 25/4
// blocking, 16 T3E processors) and solve on it.
func simulate(m *simMatrix, mapping string) (simRun, error) {
	o := sstar.PaperOptions()
	o.Procs, o.Machine, o.Mapping = simProcs, sstar.T3E, sstar.Mapping(mapping)
	t0 := time.Now()
	f, err := sstar.Factorize(m.a, o)
	if err != nil {
		return simRun{}, err
	}
	t1 := time.Now()
	x, ss, err := f.SolveDistributed(m.b)
	t2 := time.Now()
	if err != nil {
		return simRun{}, err
	}
	if res := sstar.Residual(m.a, x, m.b); !(res <= residualTol) {
		return simRun{}, fmt.Errorf("residual %g > %g", res, residualTol)
	}
	rs := f.RunStats()
	util := 0.0
	for _, u := range rs.Utilization {
		util += u / float64(len(rs.Utilization))
	}
	return simRun{
		modelled: modelled{
			FactorTime: rs.ParallelTime, MFLOPS: rs.MFLOPS, UtilMean: util, SolveTime: ss.ParallelTime,
			Msgs: rs.SentMessages + ss.SentMessages, Bytes: rs.SentBytes + ss.SentBytes,
		},
		LoadBalance: rs.LoadBalance, total: t2.Sub(t0), solve: t2.Sub(t1),
	}, nil
}

func (w *simWorkload) close() {}

func (w *simWorkload) measure(r *run) {
	t0 := time.Now()
	deadline := t0.Add(r.cfg.duration())
	for round := 0; round < minBlocks || time.Now().Before(deadline); round++ {
		// Every other round of a traced run records no spans: the reference
		// trace_overhead_frac is taken against.
		tr := r.tr
		if round%2 == 1 {
			tr = nil
		}
		start := time.Now()
		for _, m := range w.mats {
			for _, mp := range mappings {
				kind := m.name + "/" + mp
				op := r.nextOp(kind)
				r.rec.ops++
				id := tr.begin("machine.run", op, 0)
				got, err := simulate(m, mp)
				tr.end(id)
				switch {
				case err != nil:
					r.rec.fail("%s: %v", kind, err)
					continue
				case got.modelled != m.ref[mp].modelled:
					r.rec.fail("%s: modelled numbers %+v differ from round 1 %+v", kind, got.modelled, m.ref[mp].modelled)
				}
				r.rec.add("run", kind, got.total)
				r.rec.add("solve", kind, got.solve)
				if tr != nil {
					r.rec.add("traced", kind, got.total)
				} else if r.tr != nil {
					r.rec.add("plain", kind, got.total)
				}
			}
			if r.tr != nil && round%extrasEvery == 0 {
				w.stepwise(r, m)
			}
		}
		r.rec.block(len(w.mats)*len(mappings), time.Since(start))
	}
	r.rate = r.rec.throughput(time.Since(t0))
	if r.tr != nil {
		w.layers(r)
	}
}

// stepwise times the two schedulers alone and runs the 1D code on their
// schedules from the layers' own functions; the modelled time must be the
// facade's.
func (w *simWorkload) stepwise(r *run, m *simMatrix) {
	op := r.nextOp(m.name)
	model := machine.T3E().WithBlockSize(m.sym.Partition.FlopWeightedWidth())
	var s *sched.Schedule
	check := func(mapping string) {
		res, err := core.Factorize1D(m.a, m.sym, model, s)
		if err != nil || res.ParallelTime != m.ref[mapping].FactorTime {
			r.rec.fail("%s/%s: stepwise simulation differs from sstar.Factorize (err %v)", m.name, mapping, err)
		}
	}
	r.tr.do("sched.ca", op, 0, func() { s = core.ScheduleCA(m.sym, simProcs) })
	check("1d-ca")
	r.tr.do("sched.rapid", op, 0, func() { s = core.ScheduleRAPID(m.sym, simProcs, model) })
	check("1d-rapid")
}

func (w *simWorkload) layers(r *run) {
	l := r.layer
	n := float64(len(w.mats))
	var mflops []float64
	model := map[string]float64{}
	for _, mp := range mappings {
		var t simRun
		var walls []float64
		for _, m := range w.mats {
			g := m.ref[mp]
			t.FactorTime += g.FactorTime
			t.SolveTime += g.SolveTime
			t.Msgs += g.Msgs
			t.Bytes += g.Bytes
			t.LoadBalance += g.LoadBalance / n
			t.UtilMean += g.UtilMean / n
			mflops = append(mflops, g.MFLOPS)
			walls = append(walls, median(r.rec.samples["run"][m.name+"/"+mp]))
		}
		model[mp] = t.FactorTime
		l.set("machine.model_time_s."+mp, t.FactorTime)
		l.set("machine.solve_model_time_s."+mp, t.SolveTime)
		l.set("machine.sent_msgs."+mp, float64(t.Msgs))
		l.set("machine.sent_bytes."+mp, float64(t.Bytes))
		l.set("machine.load_balance."+mp, t.LoadBalance)
		l.set("machine.util_mean."+mp, t.UtilMean)
		l.set("machine.wall_ms."+mp, ms(geomean(walls)))
	}
	l.set("machine.async_gain", model["2d-sync"]/model["2d"])
	l.set("machine.model_mflops", geomean(mflops))
}
