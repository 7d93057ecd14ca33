package server

import (
	"container/list"
	cryptorand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"sstar"
)

// handle is a live factorization owned by the registry. The RWMutex
// serializes refactorizations (which swap the numeric factors) against
// concurrent solves on the same handle.
type handle struct {
	mu     sync.RWMutex
	f      *sstar.Factorization
	n      int
	rowPtr []int // pattern of the originally submitted matrix, kept for
	colInd []int // the values-only refactorize fast path
	// key is the structure key of the handle's matrix, retained so cluster
	// shards can re-replicate after a refactorize without re-hashing.
	key uint64
	// opts are the normalized options the handle was analyzed with; a
	// replication push carries them so the receiver can file the handle's
	// structure in its analysis cache.
	opts sstar.Options
	// valEpoch is the values-epoch of the installed factors: 1 at
	// factorize, incremented under mu on every refactorize, carried by
	// replication pushes so a stale (delayed) push can never roll newer
	// factors back.
	valEpoch uint64
}

// solveMany solves nrhs column-major right-hand sides under the read lock
// and reports the values-epoch of the factors that produced x, read under
// the same lock.
func (h *handle) solveMany(b []float64, nrhs int) (x []float64, valEpoch uint64, err error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	x, err = h.f.SolveMany(b, nrhs)
	return x, h.valEpoch, err
}

// bytes estimates the memory the handle pins: the block factor storage
// (values plus roughly one index word per entry) and the retained CSR
// pattern. An estimate is enough — the budget is a shedding threshold, not an
// allocator.
func (h *handle) bytes() int64 {
	return h.f.FillIn()*12 + int64(len(h.rowPtr)+len(h.colInd))*8
}

// maxTombstones bounds the evicted-id memory. Ids are monotone and never
// reused, so a tombstone only exists to answer "evicted" instead of "unknown"
// — beyond the bound the oldest evictions degrade to ErrBadHandle, which is
// still a correct (if less precise) refusal.
const maxTombstones = 4096

// registry owns the live factorization handles and enforces the server's
// retention policy:
//
//   - a memory budget (bytes, estimated per handle): inserting a handle that
//     pushes the total over budget evicts least-recently-used handles first;
//   - an idle TTL: handles untouched for the TTL are evicted by the server's
//     sweeper.
//
// Eviction only unlinks the handle from the registry — an in-flight solve
// holding the handle's lock finishes on its own reference and the garbage
// collector reclaims the factors afterwards, so eviction never blocks behind
// a running request. Evicted ids are remembered as tombstones (bounded) so
// later operations on them fail with ErrHandleEvicted rather than the less
// actionable ErrBadHandle.
type registry struct {
	mu     sync.Mutex
	budget int64         // max estimated bytes; 0 = unlimited
	ttl    time.Duration // idle eviction age; 0 = no TTL

	next  uint64
	live  map[uint64]*list.Element
	ll    *list.List // front = most recently used
	bytes int64

	evictions int64
	tombs     map[uint64]struct{}
	tombQ     []uint64 // FIFO of tombstone ids for bounding

	clock func() time.Time // injectable for tests
}

// regEntry is one live handle on the LRU list.
type regEntry struct {
	id       uint64
	h        *handle
	bytes    int64
	lastUsed time.Time
}

func newRegistry(budget int64, ttl time.Duration) *registry {
	r := &registry{
		budget: budget,
		ttl:    ttl,
		live:   make(map[uint64]*list.Element),
		ll:     list.New(),
		tombs:  make(map[uint64]struct{}),
		clock:  time.Now,
	}
	// Ids start at a random per-instance base (monotone from there). If they
	// started at 1, a server restart would hand out the same ids again and a
	// client still holding handles from the previous instance could silently
	// solve against the wrong factors; with a random base a stale handle
	// fails typed (ErrBadHandle) instead.
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err == nil {
		r.next = binary.BigEndian.Uint64(b[:]) >> 2 // headroom: ids stay monotone
	}
	return r
}

// add registers h and returns its new id, evicting LRU handles if the budget
// is now exceeded. The inserted handle itself is never evicted by its own
// insertion — a single system larger than the whole budget still factorizes;
// it just evicts everything idle around it.
func (r *registry) add(h *handle) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	id := r.next
	el := r.ll.PushFront(&regEntry{id: id, h: h, bytes: h.bytes(), lastUsed: r.clock()})
	r.live[id] = el
	r.bytes += el.Value.(*regEntry).bytes
	if r.budget > 0 {
		for r.bytes > r.budget && r.ll.Len() > 1 {
			r.evict(r.ll.Back())
		}
	}
	return id
}

// put installs h under a caller-chosen id — the replication path: a replica
// carries the id its owner shard allocated, so a failover solve addresses the
// same handle on the successor. Re-installing an existing id replaces the
// factors in place (re-replication after a refactorize) and untombstones it:
// a fresh replication push supersedes an earlier eviction. Eviction policy
// applies exactly as in add.
func (r *registry) put(id uint64, h *handle) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.live[id]; ok {
		e := el.Value.(*regEntry)
		// Values-epoch guard inside the registry lock: the caller's
		// staleness check races with concurrent installs, so the
		// authoritative comparison happens here — an older push never
		// replaces newer factors.
		e.h.mu.RLock()
		newer := e.h.valEpoch > h.valEpoch
		e.h.mu.RUnlock()
		if newer {
			return
		}
		r.bytes -= e.bytes
		e.h, e.bytes, e.lastUsed = h, h.bytes(), r.clock()
		r.bytes += e.bytes
		r.ll.MoveToFront(el)
		return
	}
	delete(r.tombs, id)
	el := r.ll.PushFront(&regEntry{id: id, h: h, bytes: h.bytes(), lastUsed: r.clock()})
	r.live[id] = el
	r.bytes += el.Value.(*regEntry).bytes
	if r.budget > 0 {
		for r.bytes > r.budget && r.ll.Len() > 1 {
			r.evict(r.ll.Back())
		}
	}
}

// contains reports whether id is live, without touching the LRU order.
func (r *registry) contains(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.live[id]
	return ok
}

// manifest snapshots every live handle's placement identity (id, structure
// key, values-epoch) without touching the LRU order — the
// repair sweep must not keep strays artificially warm.
func (r *registry) manifest() []ManifestEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ManifestEntry, 0, len(r.live))
	for id, el := range r.live {
		h := el.Value.(*regEntry).h
		h.mu.RLock()
		out = append(out, ManifestEntry{Handle: id, Key: h.key, ValEpoch: h.valEpoch})
		h.mu.RUnlock()
	}
	return out
}

// valEpochOf returns the live handle's values-epoch (0, false when id is not
// live). Used to refuse stale replication pushes.
func (r *registry) valEpochOf(id uint64) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.live[id]
	if !ok {
		return 0, false
	}
	h := el.Value.(*regEntry).h
	h.mu.RLock()
	e := h.valEpoch
	h.mu.RUnlock()
	return e, true
}

// drop removes a live handle without a tombstone and without an error — the
// repair sweep releasing a stray whose copies are confirmed elsewhere. A
// later operation on the id redirects by placement (the shard layer) or fails
// ErrBadHandle, both truthful.
func (r *registry) drop(id uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.live[id]
	if !ok {
		return false
	}
	e := el.Value.(*regEntry)
	r.ll.Remove(el)
	delete(r.live, id)
	r.bytes -= e.bytes
	return true
}

// get returns the handle for id, marking it most recently used. A missing id
// is classified: evicted ids (while tombstoned) fail with ErrHandleEvicted,
// everything else with ErrBadHandle.
func (r *registry) get(id uint64) (*handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.live[id]; ok {
		e := el.Value.(*regEntry)
		e.lastUsed = r.clock()
		r.ll.MoveToFront(el)
		return e.h, nil
	}
	if _, ok := r.tombs[id]; ok {
		return nil, fmt.Errorf("%w (handle %d)", sstar.ErrHandleEvicted, id)
	}
	return nil, fmt.Errorf("%w %d", sstar.ErrBadHandle, id)
}

// free removes id on the owner's request. No tombstone is left — a freed
// handle is gone by design, and later use is a caller bug (ErrBadHandle).
func (r *registry) free(id uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.live[id]
	if !ok {
		if _, t := r.tombs[id]; t {
			return fmt.Errorf("%w (handle %d)", sstar.ErrHandleEvicted, id)
		}
		return fmt.Errorf("%w %d", sstar.ErrBadHandle, id)
	}
	e := el.Value.(*regEntry)
	r.ll.Remove(el)
	delete(r.live, id)
	r.bytes -= e.bytes
	return nil
}

// sweep evicts every handle idle past the TTL. Called periodically by the
// server's sweeper goroutine; a no-op when no TTL is configured.
func (r *registry) sweep() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ttl <= 0 {
		return 0
	}
	cutoff := r.clock().Add(-r.ttl)
	n := 0
	for el := r.ll.Back(); el != nil; {
		e := el.Value.(*regEntry)
		if e.lastUsed.After(cutoff) {
			break // list is LRU-ordered: everything further front is younger
		}
		prev := el.Prev()
		r.evict(el)
		n++
		el = prev
	}
	return n
}

// evict unlinks el and tombstones its id. Caller holds r.mu.
func (r *registry) evict(el *list.Element) {
	e := el.Value.(*regEntry)
	r.ll.Remove(el)
	delete(r.live, e.id)
	r.bytes -= e.bytes
	r.evictions++
	r.tombs[e.id] = struct{}{}
	r.tombQ = append(r.tombQ, e.id)
	for len(r.tombQ) > maxTombstones {
		delete(r.tombs, r.tombQ[0])
		r.tombQ = r.tombQ[1:]
	}
}

// stats returns (live handles, estimated bytes, evictions so far).
func (r *registry) stats() (n int, bytes, evictions int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len(), r.bytes, r.evictions
}
