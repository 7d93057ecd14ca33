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

// tenantQueue is one tenant's FIFO backlog.
type tenantQueue struct {
	jobs []*job
}

// qosched is the per-tenant fair scheduler: one FIFO per tenant, served
// round-robin one job per turn, so one tenant's burst (a factorize storm)
// queues behind its own share instead of ahead of everyone else's solves.
// Capacity is bounded by the caller (the server's admission slots), not
// here.
type qosched struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string]*tenantQueue
	active  []*tenantQueue // queues with a backlog, in round-robin order
	rrpos   int            // index in active of the queue whose turn it is
	queued  int
	stopped bool
}

func newQosched() *qosched {
	q := &qosched{queues: make(map[string]*tenantQueue)}
	q.cond = sync.NewCond(&q.mu)
	return q
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
			tq = new(tenantQueue)
			q.queues[name] = tq
		}
	}
	if len(tq.jobs) == 0 {
		q.active = append(q.active, tq)
	}
	tq.jobs = append(tq.jobs, j)
	q.queued++
	q.mu.Unlock()
	q.cond.Signal()
}

// pop blocks until a job is available and returns the head of the queue
// whose turn it is, passing the turn on. After stop it keeps returning
// queued jobs until the backlog is drained, then reports ok=false — the
// worker-exit signal.
func (q *qosched) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.queued == 0 {
		if q.stopped {
			return nil, false
		}
		q.cond.Wait()
	}
	tq := q.active[q.rrpos]
	j := tq.jobs[0]
	tq.jobs = tq.jobs[1:]
	q.queued--
	if len(tq.jobs) == 0 {
		q.removeActive(q.rrpos)
	} else {
		q.rrpos = (q.rrpos + 1) % len(q.active)
	}
	return j, true
}

// removeActive drops the queue at index i from the round-robin ring, keeping
// the turn with the queue that held it (the next one in order when i held
// it).
func (q *qosched) removeActive(i int) {
	q.active = append(q.active[:i], q.active[i+1:]...)
	if i < q.rrpos {
		q.rrpos--
	}
	if q.rrpos >= len(q.active) {
		q.rrpos = 0
	}
}

// takeSolves appends to batch the queued solves (OpSolve and OpSolveMany)
// against the given handle whose columns fit in room — the coalescer's
// ride-along collection — and returns the extended batch.
// Jobs are taken in FIFO order within each tenant queue, across every tenant
// (a ride-along costs its tenant nothing: it shares the leader's worker
// slot); one too wide for the room left stays queued. Taken jobs disappear
// from the backlog exactly as if a worker had dequeued them.
func (q *qosched) takeSolves(batch []*job, handle uint64, room int) []*job {
	if room <= 0 {
		return batch
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
	return batch
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
