package server

import "time"

// Solve coalescing: the solves queued on one handle — plain solves and
// multi-RHS panels alike — run as one SolveMany over their concatenated
// columns, each of which is bitwise a lone Solve of that column. Coalescing
// is invisible to clients except in throughput: from four columns up the
// factor blocks stream through memory once per batch instead of once per
// request. Each member keeps its own gates, accounting and response (run).

// batchColumns is the column budget of one solve batch: the lead plus the
// riders whose right-hand sides fit. A lead wider than the budget runs
// alone.
const batchColumns = 32

// isSolve reports whether op runs through the batched solve.
func isSolve(op Op) bool { return op == OpSolve || op == OpSolveMany }

// columns is the number of right-hand sides a solve request carries: its
// share of the batch's column budget (an invalid NRHS counts as one; the
// length check answers it alone).
func (r *Request) columns() int {
	if r.Op == OpSolveMany {
		return max(r.NRHS, 1)
	}
	return 1
}

// collectRiders extends batch, which holds a dequeued solve, with the solves
// already queued on the same handle that fit the column budget. It never
// waits for more: a window that waited gathered no rider in closed-loop load
// and only added its length to every solve (results/knob-audit.txt). Riders
// leave the queue exactly as if a worker had dequeued them, freeing their
// admission slots here.
func (s *Server) collectRiders(batch []*job) []*job {
	batch = s.sched.takeSolves(batch, batch[0].req.Handle, batchColumns-batch[0].req.columns())
	for range batch[1:] {
		<-s.slots
	}
	return batch
}

// solveBatch runs the live (unanswered) members of batch, live of them, as
// one SolveMany on h and answers each with its own columns of X. A lone
// member solves its own B, uncopied.
func (s *Server) solveBatch(id int, batch []*job, h *handle, live int, now time.Time) {
	var b []float64
	cols := 0
	for _, j := range batch {
		if !j.answered {
			b = j.req.B
			cols += j.req.columns()
		}
	}
	if live > 1 {
		b = make([]float64, 0, h.n*cols)
		for _, j := range batch {
			if !j.answered {
				b = append(b, j.req.B...)
			}
		}
		s.solveBatches.Add(1)
		s.coalescedSolves.Add(int64(live))
		s.met.solveBatchWidth.Observe(float64(live))
	}
	t0 := time.Now()
	x, epoch, err := h.solveMany(b, cols)
	solveNs := time.Since(t0).Nanoseconds()

	off := 0
	for _, j := range batch {
		if j.answered {
			continue
		}
		var resp *Response
		if err != nil {
			resp = errResponse(err)
		} else {
			end := off + len(j.req.B)
			resp = &Response{Handle: j.req.Handle, X: x[off:end:end], ValEpoch: epoch}
			off = end
		}
		resp.Stats.SolveNs = solveNs
		resp.Stats.BatchWidth = live
		s.finish(id, j, resp, now.Sub(j.enqueued).Nanoseconds(), solveNs)
	}
}
