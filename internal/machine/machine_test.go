package machine

import (
	"math"
	"sync/atomic"
	"testing"
)

func TestComputeChargesClock(t *testing.T) {
	m := New(2, Model{Name: "m", Blas1Rate: 10, Blas2Rate: 20, Blas3Rate: 40, SwapRate: 5, Latency: 0.5, Bandwidth: 100})
	pt := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.ChargeFlops(10, 20, 40, 5) // 1 + 1 + 1 + 1 = 4 seconds
		}
	})
	if pt != 4 {
		t.Fatalf("parallel time %v, want 4", pt)
	}
}

func TestSendRecvTiming(t *testing.T) {
	m := New(2, Model{Name: "m", Blas1Rate: 1, Blas2Rate: 1, Blas3Rate: 1, SwapRate: 1, Latency: 1, Bandwidth: 8})
	tag := Tag{Kind: 1, K: 0}
	pt := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(2)
			p.Send(1, tag, 16, "hello") // arrival = 2 + 1 + 16/8 = 5
		} else {
			got := p.Recv(Tag{Src: 0, Kind: 1, K: 0})
			if got.(string) != "hello" {
				t.Errorf("payload = %v", got)
			}
			if p.Clock() != 5 {
				t.Errorf("receiver clock %v, want 5", p.Clock())
			}
		}
	})
	// Sender: 2 compute + 1 latency = 3; receiver 5.
	if pt != 5 {
		t.Fatalf("parallel time %v, want 5", pt)
	}
}

func TestRecvDoesNotRewindClock(t *testing.T) {
	m := New(2, Model{Name: "m", Blas1Rate: 1, Blas2Rate: 1, Blas3Rate: 1, SwapRate: 1, Latency: 1, Bandwidth: math.Inf(1)})
	pt := m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, Tag{Kind: 2}, 8, nil) // arrival at 1
		} else {
			p.Compute(10)
			p.Recv(Tag{Src: 0, Kind: 2})
			if p.Clock() != 10 {
				t.Errorf("clock %v, want 10 (late receiver keeps its time)", p.Clock())
			}
		}
	})
	if pt != 10 {
		t.Fatalf("parallel time %v", pt)
	}
}

func TestRecvOutOfOrderTags(t *testing.T) {
	m := New(2, Unit())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, Tag{Kind: 1}, 0, "first")
			p.Send(1, Tag{Kind: 2}, 0, "second")
		} else {
			// Receive in reverse order; matching is by tag.
			if got := p.Recv(Tag{Src: 0, Kind: 2}); got.(string) != "second" {
				t.Errorf("tag 2 payload %v", got)
			}
			if got := p.Recv(Tag{Src: 0, Kind: 1}); got.(string) != "first" {
				t.Errorf("tag 1 payload %v", got)
			}
		}
	})
}

func TestMulticastTreeDepth(t *testing.T) {
	m := New(8, Model{Name: "m", Blas1Rate: 1, Blas2Rate: 1, Blas3Rate: 1, SwapRate: 1, Latency: 1, Bandwidth: math.Inf(1)})
	var maxArrival atomic.Uint64
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			dsts := []int{1, 2, 3, 4, 5, 6, 7}
			p.Multicast(dsts, Tag{Kind: 3}, 0, nil)
		} else {
			p.Recv(Tag{Src: 0, Kind: 3})
			// Arrival depths: dst1 at 1 hop, dst2-3 at 2, dst4-7 at 3.
			v := uint64(p.Clock())
			for {
				old := maxArrival.Load()
				if v <= old || maxArrival.CompareAndSwap(old, v) {
					break
				}
			}
		}
	})
	if maxArrival.Load() != 3 {
		t.Fatalf("max multicast arrival %d hops, want 3", maxArrival.Load())
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := New(4, Model{Name: "m", Blas1Rate: 1, Blas2Rate: 1, Blas3Rate: 1, SwapRate: 1, Latency: 0.25, Bandwidth: math.Inf(1)})
	b := m.NewBarrier()
	m.Run(func(p *Proc) {
		p.Compute(float64(p.ID())) // clocks 0,1,2,3
		b.Wait(p)
		// Release = 3 + 2*log2(4)*0.25 = 3 + 1 = 4.
		if p.Clock() != 4 {
			t.Errorf("proc %d clock %v, want 4", p.ID(), p.Clock())
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	m := New(3, Unit())
	b := m.NewBarrier()
	pt := m.Run(func(p *Proc) {
		for round := 0; round < 5; round++ {
			p.Compute(1)
			b.Wait(p)
		}
	})
	if pt != 5 {
		t.Fatalf("parallel time %v, want 5", pt)
	}
}

func TestBufferHighWater(t *testing.T) {
	m := New(2, Unit())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(1, Tag{Kind: 1}, 100, nil)
			p.Send(1, Tag{Kind: 2}, 50, nil)
		} else {
			// Let both messages queue up before draining. Real-time sleep
			// is not needed: Recv of the later tag forces buffering of
			// whatever arrived first.
			p.Recv(Tag{Src: 0, Kind: 2})
			p.Recv(Tag{Src: 0, Kind: 1})
		}
	})
	if hw := m.BufferHighWater(); hw < 100 {
		t.Fatalf("buffer high water %d, want >= 100", hw)
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	run := func() float64 {
		m := New(4, T3E())
		return m.Run(func(p *Proc) {
			// A little all-pairs exchange with compute jitter by id.
			for d := 0; d < 4; d++ {
				if d != p.ID() {
					p.Send(d, Tag{Kind: 9, K: p.ID()}, 1024, nil)
				}
			}
			p.Compute(float64(p.ID()) * 1e-6)
			for s := 0; s < 4; s++ {
				if s != p.ID() {
					p.Recv(Tag{Src: s, Kind: 9, K: s})
				}
			}
		})
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("virtual time not deterministic: %v vs %v", got, first)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	m := New(2, Unit())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			panic("boom")
		}
		// The other processor blocks forever; poisoning must unblock it.
		p.Recv(Tag{Src: 0, Kind: 42})
	})
}

// TestRunPropagatesFirstPanic: the panic re-raised is the one that aborted
// the run, not the abort it provokes in a lower-numbered processor waiting
// for a message, nor the one of a processor waiting at a barrier.
func TestRunPropagatesFirstPanic(t *testing.T) {
	for _, wait := range []string{"recv", "barrier"} {
		m := New(4, Unit())
		b := m.NewBarrier()
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("%s: re-raised %v, want boom", wait, r)
				}
			}()
			m.Run(func(p *Proc) {
				switch {
				case p.ID() == 3:
					panic("boom")
				case wait == "recv":
					p.Recv(Tag{Src: 3, Kind: 42})
				default:
					b.Wait(p)
				}
			})
		}()
	}
}

func TestModelRatesSane(t *testing.T) {
	for _, model := range []Model{T3D(), T3E()} {
		if model.Blas3Rate <= model.Blas2Rate {
			t.Fatalf("%s: DGEMM must outrate DGEMV", model.Name)
		}
		if model.TransferSeconds(0) != model.Latency {
			t.Fatalf("%s: zero-byte transfer should cost latency", model.Name)
		}
	}
	// The paper's T3E DGEMM is ~3.7x the T3D's.
	ratio := T3E().Blas3Rate / T3D().Blas3Rate
	if ratio < 3.5 || ratio > 4.0 {
		t.Fatalf("T3E/T3D DGEMM ratio %v, want ~3.77", ratio)
	}
}

func TestWithBlockSize(t *testing.T) {
	m := T3E()
	small := m.WithBlockSize(4)
	ref := m.WithBlockSize(25)
	big := m.WithBlockSize(200)
	if !(small.Blas3Rate < ref.Blas3Rate && ref.Blas3Rate <= big.Blas3Rate) {
		t.Fatalf("DGEMM rate not monotone in block size: %v %v %v",
			small.Blas3Rate, ref.Blas3Rate, big.Blas3Rate)
	}
	// Calibration point: width 25 reproduces the paper's measured rates.
	if d := ref.Blas3Rate/m.Blas3Rate - 1; d > 1e-12 || d < -1e-12 {
		t.Fatalf("width-25 model must equal the measured rate, off by %v", d)
	}
	// The uplift saturates.
	if big.Blas3Rate > 1.2*m.Blas3Rate {
		t.Fatalf("asymptotic uplift too large: %v", big.Blas3Rate/m.Blas3Rate)
	}
	if m.WithBlockSize(0).Blas3Rate != m.Blas3Rate {
		t.Fatal("zero width must be a no-op")
	}
}

func TestMulticastSkipsSelf(t *testing.T) {
	m := New(3, Unit())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Multicast([]int{0, 1, 2}, Tag{Kind: 5}, 8, "x")
			if p.SentMessages != 2 {
				t.Errorf("self included in multicast: %d messages", p.SentMessages)
			}
		} else {
			p.Recv(Tag{Src: 0, Kind: 5})
		}
	})
}

func TestBusySecondsExcludesWaits(t *testing.T) {
	m := New(2, Unit())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Compute(5)
			p.Send(1, Tag{Kind: 6}, 0, nil)
		} else {
			p.Recv(Tag{Src: 0, Kind: 6}) // waits 5 virtual seconds
			p.Compute(1)
		}
	})
	if b := m.Proc(1).BusySeconds(); b != 1 {
		t.Fatalf("busy = %v, want 1 (wait excluded)", b)
	}
	if m.Proc(1).Clock() < 5 {
		t.Fatalf("receiver clock %v should include the wait", m.Proc(1).Clock())
	}
}

func TestTorusDims(t *testing.T) {
	cases := map[int][3]int{
		1:   {1, 1, 1},
		8:   {2, 2, 2},
		64:  {4, 4, 4},
		128: {8, 4, 4},
		12:  {3, 2, 2},
		7:   {7, 1, 1},
	}
	for p, want := range cases {
		got := torusDims(p)
		if got != want {
			t.Errorf("torusDims(%d) = %v, want %v", p, got, want)
		}
		if got[0]*got[1]*got[2] != p {
			t.Errorf("torusDims(%d) does not multiply out", p)
		}
	}
}

func TestHopsRingDistance(t *testing.T) {
	m := New(8, T3E()) // 2x2x2 torus
	if h := m.Hops(0, 0); h != 0 {
		t.Fatalf("self distance %d", h)
	}
	// Opposite corner of a 2x2x2 cube: 3 hops.
	if h := m.Hops(0, 7); h != 3 {
		t.Fatalf("corner distance %d, want 3", h)
	}
	// Symmetry.
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			if m.Hops(a, b) != m.Hops(b, a) {
				t.Fatalf("asymmetric hops (%d,%d)", a, b)
			}
		}
	}
	// Ring wraparound: on an 8x1x1 ring, 0 -> 7 is 1 hop.
	ring := New(8, Model{})
	ring.dims = [3]int{8, 1, 1}
	if h := ring.Hops(0, 7); h != 1 {
		t.Fatalf("ring wraparound distance %d, want 1", h)
	}
}

func TestHopLatencyCharged(t *testing.T) {
	model := Unit()
	model.HopLatency = 1
	m := New(8, model) // 2x2x2
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Send(7, Tag{Kind: 7}, 0, nil) // 3 hops
		} else if p.ID() == 7 {
			p.Recv(Tag{Src: 0, Kind: 7})
			if p.Clock() != 3 {
				t.Errorf("clock %v, want 3 (hop latency)", p.Clock())
			}
		}
	})
}

func TestMulticastEmptyAndSingle(t *testing.T) {
	m := New(4, Unit())
	m.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Multicast(nil, Tag{Kind: 11}, 8, nil) // no-op
			if p.SentMessages != 0 {
				t.Errorf("empty multicast sent %d messages", p.SentMessages)
			}
			p.Multicast([]int{2}, Tag{Kind: 12}, 8, "one")
		} else if p.ID() == 2 {
			if got := p.Recv(Tag{Src: 0, Kind: 12}); got.(string) != "one" {
				t.Errorf("single-dest multicast payload %v", got)
			}
		}
	})
}

func TestTagDisambiguatesBySource(t *testing.T) {
	m := New(3, Unit())
	m.Run(func(p *Proc) {
		switch p.ID() {
		case 0:
			p.Send(2, Tag{Kind: 13, K: 5}, 0, "from0")
		case 1:
			p.Send(2, Tag{Kind: 13, K: 5}, 0, "from1")
		case 2:
			// Same Kind/K from two senders: Src must disambiguate.
			if got := p.Recv(Tag{Src: 1, Kind: 13, K: 5}); got.(string) != "from1" {
				t.Errorf("src-1 payload %v", got)
			}
			if got := p.Recv(Tag{Src: 0, Kind: 13, K: 5}); got.(string) != "from0" {
				t.Errorf("src-0 payload %v", got)
			}
		}
	})
}

func TestTraceDisabledByDefault(t *testing.T) {
	m := New(1, Unit())
	m.Run(func(p *Proc) {
		p.Compute(1)
		p.TraceSpan("x", 0)
	})
	if tr := m.Traces(); len(tr[0]) != 0 {
		t.Fatalf("tracing recorded %d spans while disabled", len(tr[0]))
	}
	m2 := New(1, Unit())
	m2.EnableTracing()
	m2.Run(func(p *Proc) {
		start := p.Clock()
		p.Compute(2)
		p.TraceSpan("work", start)
	})
	tr := m2.Traces()
	if len(tr[0]) != 1 || tr[0][0].End-tr[0][0].Start != 2 {
		t.Fatalf("trace span wrong: %+v", tr[0])
	}
}
