package server

import (
	"fmt"
	"runtime/debug"
	"time"

	"sstar"
)

// Solve coalescing: concurrent plain solves against one handle are merged
// into a single SolveMany, whose every column is bitwise identical to a lone
// Solve of that column — coalescing is invisible to clients except in
// throughput: from four columns up the factor blocks stream through memory
// once per batch instead of once per request. Each member keeps its own
// response (scatter), its own queue-wait accounting, and its own deadline
// check.

// collectRiders gathers ride-along solves for a dequeued lead: everything
// already queued against the same handle (opportunistic, no added latency),
// then — if a batch window is configured and the batch has room — one
// bounded wait for more. Ride-alongs leave the queue exactly as if a worker
// had dequeued them, freeing their admission slots here.
func (s *Server) collectRiders(lead *job) []*job {
	room := s.cfg.CoalesceWidth - 1
	riders := s.sched.takeSolves(lead.req.Handle, room)
	if len(riders) < room && s.cfg.CoalesceWindow > 0 {
		t := time.NewTimer(s.cfg.CoalesceWindow)
		select {
		case <-t.C:
		case <-s.quit:
			t.Stop()
		}
		riders = append(riders, s.sched.takeSolves(lead.req.Handle, room-len(riders))...)
	}
	for range riders {
		<-s.slots
	}
	return riders
}

// runSolveBatch executes the lead and its riders as one batched solve,
// scattering a per-member response. Each member is individually shed on an
// expired deadline, individually routed in cluster mode, and individually
// validated — one bad member never fails its companions — and each member's
// counters and histogram observations match what the single-job path would
// have recorded for it. A panic anywhere below answers every unanswered
// member, mirroring process()'s recover.
func (s *Server) runSolveBatch(id int, lead *job, riders []*job) {
	batch := append([]*job{lead}, riders...)
	answered := make([]bool, len(batch))
	// finish counts and answers member i the way run() would have:
	// requests/errors counters, the observation, then the response.
	finish := func(i int, resp *Response, queueNs, processNs int64) {
		j := batch[i]
		resp.Stats.QueueNs = queueNs
		resp.Stats.Workers = s.cfg.Workers
		s.requests.Add(1)
		if resp.Err != "" {
			s.errors.Add(1)
			s.logf("server: %s failed (%s): %s", j.req.Op, resp.Code, resp.Err)
		}
		s.met.observe(OpSolve, id, queueNs, processNs, resp.Stats)
		answered[i] = true
		j.done <- resp
	}
	defer func() {
		if p := recover(); p != nil {
			s.met.panics.Inc()
			s.logf("server: panic in coalesced solve: %v\n%s", p, debug.Stack())
			for i, j := range batch {
				if !answered[i] {
					resp := errResponse(fmt.Errorf("%w: recovered panic: %v", sstar.ErrInternal, p))
					finish(i, resp, time.Since(j.enqueued).Nanoseconds(), 0)
				}
			}
		}
	}()

	// Per-member admission gates, in the order the single-job path applies
	// them: dequeue-side deadline shed, cluster routing, handle lookup,
	// length validation. Gate failures answer just that member.
	var live []*job
	var liveIdx []int
	hk := s.cfg.Cluster
	h, herr := s.reg.get(lead.req.Handle)
	for i, j := range batch {
		queueNs := time.Since(j.enqueued).Nanoseconds()
		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			// shed() maintains the shed/request/error counters itself, and
			// shed jobs are not observed on the histograms — same as run().
			resp := s.shed(j.req, j.tenant, queueNs, fmt.Sprintf("queue wait %v exceeded the request deadline", time.Duration(queueNs)))
			answered[i] = true
			j.done <- resp
			continue
		}
		if hk != nil {
			if r := hk.Route(j.req); r != nil {
				// Routing short-circuits before the op runs (no solve
				// counted), exactly like process().
				finish(i, r, queueNs, 0)
				continue
			}
		}
		s.solves.Add(1)
		if herr != nil {
			finish(i, errResponse(herr), queueNs, 0)
			continue
		}
		if len(j.req.B) != h.n {
			finish(i, errResponse(fmt.Errorf("sstar: rhs length %d, want %d", len(j.req.B), h.n)), queueNs, 0)
			continue
		}
		live = append(live, j)
		liveIdx = append(liveIdx, i)
	}
	if len(live) == 0 {
		return
	}

	w := len(live)
	t0 := time.Now()
	bb := live[0].req.B
	if w > 1 {
		bb = make([]float64, h.n*w)
		for q, j := range live {
			copy(bb[q*h.n:(q+1)*h.n], j.req.B)
		}
		s.solveBatches.Add(1)
		s.coalescedSolves.Add(int64(w))
		s.met.solveBatchWidth.Observe(float64(w))
	}
	h.mu.RLock()
	x, serr := h.f.SolveMany(bb, w)
	h.mu.RUnlock()
	solveNs := time.Since(t0).Nanoseconds()

	for q, j := range live {
		queueNs := t0.Sub(j.enqueued).Nanoseconds()
		var resp *Response
		if serr != nil {
			resp = errResponse(serr)
		} else {
			resp = &Response{Handle: j.req.Handle, X: x[q*h.n : (q+1)*h.n : (q+1)*h.n]}
		}
		resp.Stats.SolveNs = solveNs
		resp.Stats.BatchWidth = w
		finish(liveIdx[q], resp, queueNs, solveNs)
	}
}
