package server

import "sync"

// maxTenantQueues bounds the scheduler's tenant fan-out: a client inventing
// unbounded tenant names cannot grow server state without limit. Tenants past
// the bound share one spillover queue (and its fair share) under
// spillTenant.
const (
	maxTenantQueues = 1024
	spillTenant     = "~other"
)

// tenantQueue is one tenant's FIFO backlog plus its weighted-round-robin
// state.
type tenantQueue struct {
	name   string
	jobs   []*job
	weight int
	// credit is the tenant's remaining dequeues in the current round-robin
	// visit: replenished to weight when the pointer arrives, decremented
	// per dequeue, the pointer moves on at zero. A tenant with weight w
	// therefore gets up to w consecutive dequeues per visit — w shares per
	// round when every queue is backlogged.
	credit int
}

// qosched is the per-tenant weighted fair scheduler that replaced the single
// jobs channel: one FIFO per tenant, served weighted round-robin, so one
// tenant's burst (a factorize storm) queues behind its own share instead of
// ahead of everyone else's solves. Capacity is bounded by the caller (the
// server's admission slots), not here.
type qosched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string]*tenantQueue
	active  []*tenantQueue // queues with a backlog, in round-robin order
	rrpos   int
	queued  int
	weights map[string]int // configured weights; unlisted tenants get 1
	stopped bool
}

func newQosched(weights map[string]int) *qosched {
	q := &qosched{
		queues:  make(map[string]*tenantQueue),
		weights: weights,
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// weightOf returns the configured weight for a tenant, floored at 1.
func (q *qosched) weightOf(tenant string) int {
	if w := q.weights[tenant]; w > 0 {
		return w
	}
	return 1
}

// enqueue appends j to its tenant's queue (creating it on first use) and
// wakes one worker. The tenant fan-out is bounded: past maxTenantQueues new
// names share the spillover queue.
func (q *qosched) enqueue(j *job) {
	q.mu.Lock()
	tq := q.queues[j.tenant]
	if tq == nil {
		name := j.tenant
		if len(q.queues) >= maxTenantQueues && name != spillTenant {
			name = spillTenant
			tq = q.queues[name]
		}
		if tq == nil {
			tq = &tenantQueue{name: name, weight: q.weightOf(name)}
			q.queues[name] = tq
		}
	}
	if len(tq.jobs) == 0 {
		tq.credit = tq.weight
		q.active = append(q.active, tq)
	}
	tq.jobs = append(tq.jobs, j)
	q.queued++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a job is available and returns the weighted-round-robin
// choice. After stop it keeps returning queued jobs until the backlog is
// drained, then reports ok=false — the worker-exit signal.
func (q *qosched) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.queued == 0 {
		if q.stopped {
			return nil, false
		}
		q.cond.Wait()
	}
	// Serve the queue under the round-robin pointer; a queue out of credit
	// passes the turn and replenishes for its next visit.
	for {
		tq := q.active[q.rrpos]
		if tq.credit <= 0 {
			tq.credit = tq.weight
			q.rrpos = (q.rrpos + 1) % len(q.active)
			continue
		}
		tq.credit--
		j := tq.jobs[0]
		tq.jobs = tq.jobs[1:]
		q.queued--
		if len(tq.jobs) == 0 {
			q.removeActive(q.rrpos)
		} else if tq.credit == 0 {
			q.rrpos = (q.rrpos + 1) % len(q.active)
		}
		return j, true
	}
}

// removeActive drops the queue at index i from the round-robin ring, keeping
// the pointer on the next queue in order.
func (q *qosched) removeActive(i int) {
	q.active = append(q.active[:i], q.active[i+1:]...)
	if len(q.active) == 0 {
		q.rrpos = 0
	} else if q.rrpos >= len(q.active) {
		q.rrpos = 0
	}
}

// takeSolves appends to batch the queued solves (OpSolve and OpSolveMany)
// against the given handle whose columns fit in room — the coalescer's
// ride-along collection — and returns the extended batch and the room left.
// Jobs are taken in FIFO order within each tenant queue, across every tenant
// (a ride-along costs its tenant nothing: it shares the leader's worker
// slot); one too wide for the room left stays queued. Taken jobs disappear
// from the backlog exactly as if a worker had dequeued them.
func (q *qosched) takeSolves(batch []*job, handle uint64, room int) ([]*job, int) {
	if room <= 0 {
		return batch, room
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for ai := 0; ai < len(q.active) && room > 0; {
		tq := q.active[ai]
		kept := tq.jobs[:0]
		for _, j := range tq.jobs {
			if isSolve(j.req.Op) && j.req.Handle == handle && j.req.columns() <= room {
				batch = append(batch, j)
				room -= j.req.columns()
				q.queued--
			} else {
				kept = append(kept, j)
			}
		}
		// Zero the vacated tail so taken jobs are not pinned by the
		// backing array.
		clear(tq.jobs[len(kept):])
		tq.jobs = kept
		if len(tq.jobs) == 0 {
			q.removeActive(ai)
		} else {
			ai++
		}
	}
	return batch, room
}

// depth returns the total backlog.
func (q *qosched) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// depths snapshots the per-tenant backlog.
func (q *qosched) depths() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int, len(q.queues))
	for name, tq := range q.queues {
		if len(tq.jobs) > 0 {
			out[name] = len(tq.jobs)
		}
	}
	return out
}

// stop makes pop return ok=false once the backlog is drained, and wakes every
// blocked worker.
func (q *qosched) stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
