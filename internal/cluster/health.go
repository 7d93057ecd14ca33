package cluster

import (
	"context"
	"sync"
	"time"

	"sstar/internal/chaos"
	"sstar/internal/server"
)

// Peer liveness states reported by the failure detector.
type peerState int

const (
	stateAlive peerState = iota
	stateSuspect
	stateDead
)

func (s peerState) String() string {
	switch s {
	case stateAlive:
		return "alive"
	case stateSuspect:
		return "suspect"
	case stateDead:
		return "dead"
	}
	return "unknown"
}

// Detector thresholds: phi is the time since the last ack divided by the
// smoothed inter-ack interval — a dimensionless "how many expected heartbeat
// periods of silence" (a simplified phi-accrual detector: the EWMA plays the
// role of the inter-arrival distribution's mean). A peer above
// suspectThreshold is suspect (still routed to, noted in logs); above
// deadThreshold it is declared dead and removed from the ring. Both are
// deliberately generous — a false positive costs a full re-replication
// round-trip cycle, a true positive only delays the new owner's takeover by seconds.
const (
	suspectThreshold = 4.0
	deadThreshold    = 8.0
)

// detector is the per-shard failure detector: it smooths the inter-ack
// interval of every probed peer and converts silence into a phi score.
// Deterministic under test: all timing flows through an injectable
// chaos.Clock, and acks are fed explicitly.
type detector struct {
	clock   chaos.Clock
	minEwma time.Duration // floor on the smoothed interval, so phi cannot explode on back-to-back acks
	maxIdle time.Duration // cap on the smoothed interval, so one long outage does not blind the detector afterwards
	mu      sync.Mutex
	tracked map[string]*peerHealth
}

// peerHealth is one probed peer's timing state.
type peerHealth struct {
	lastAck time.Time
	ewmaNs  float64 // smoothed inter-ack interval
}

func newDetector(clock chaos.Clock, interval time.Duration) *detector {
	if clock == nil {
		clock = chaos.RealClock{}
	}
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	return &detector{
		clock:   clock,
		minEwma: interval / 2,
		maxIdle: 10 * interval,
		tracked: make(map[string]*peerHealth),
	}
}

// track registers addr (idempotent), granting it a fresh ack so a
// just-learned peer is not instantly suspect.
func (d *detector) track(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.tracked[addr]; !ok {
		d.tracked[addr] = &peerHealth{lastAck: d.clock.Now(), ewmaNs: float64(d.minEwma * 2)}
	}
}

// ack records a successful exchange with addr.
func (d *detector) ack(addr string) {
	now := d.clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.tracked[addr]
	if !ok {
		d.tracked[addr] = &peerHealth{lastAck: now, ewmaNs: float64(d.minEwma * 2)}
		return
	}
	dt := float64(now.Sub(p.lastAck))
	if dt > 0 {
		if ceil := float64(d.maxIdle); dt > ceil {
			dt = ceil
		}
		const alpha = 0.2
		p.ewmaNs = float64((1-alpha)*p.ewmaNs) + float64(alpha*dt)
		if p.ewmaNs < float64(d.minEwma) {
			p.ewmaNs = float64(d.minEwma)
		}
	}
	p.lastAck = now
}

// phi returns the accrual score of addr: time since the last ack in units of
// the smoothed inter-ack interval. Unknown peers score 0 (never probed, no
// opinion).
func (d *detector) phi(addr string) float64 {
	now := d.clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.tracked[addr]
	if !ok {
		return 0
	}
	ewma := p.ewmaNs
	if ewma < float64(d.minEwma) {
		ewma = float64(d.minEwma)
	}
	return float64(now.Sub(p.lastAck)) / ewma
}

// state classifies addr against the thresholds.
func (d *detector) state(addr string) peerState {
	phi := d.phi(addr)
	switch {
	case phi >= deadThreshold:
		return stateDead
	case phi >= suspectThreshold:
		return stateSuspect
	}
	return stateAlive
}

// membership owns the shard's view of who is in the cluster: the ring (the
// authoritative member set + epoch), the set of every address ever seen
// (dead members keep being probed — that is how a restart is noticed), and
// the set of members this shard itself declared dead (subtracted from
// equal-epoch union merges so a dead peer cannot be resurrected by a peer
// that has not noticed yet).
//
// Epoch semantics: every membership change bumps the epoch. A view with a
// higher epoch wins a merge outright; equal epochs with different member
// sets merge as union-minus-locally-dead with a bump (two concurrent changes
// racing to the same epoch converge in one extra round); lower epochs lose.
// Join/Leave are explicit intents rather than view merges — a fresh joiner's
// epoch-0 view must not need to win a comparison to enter the ring.
type membership struct {
	self string
	ring *Ring

	mu    sync.Mutex
	known map[string]struct{}
	dead  map[string]struct{}
}

func newMembership(self string, ring *Ring) *membership {
	return &membership{
		self:  self,
		ring:  ring,
		known: make(map[string]struct{}),
		dead:  make(map[string]struct{}),
	}
}

// noteKnown records addresses worth probing (idempotent; self is ignored).
func (m *membership) noteKnown(addrs ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range addrs {
		if a != "" && a != m.self {
			m.known[a] = struct{}{}
		}
	}
}

// probeTargets returns every known peer address (members and ex-members
// alike), sorted via the map-free path the caller needs not care about.
func (m *membership) probeTargets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.known))
	for a := range m.known {
		out = append(out, a)
	}
	return out
}

// isDead reports whether this shard currently considers addr dead.
func (m *membership) isDead(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.dead[addr]
	return ok
}

// revive clears addr's locally-dead marker — called on every ack, so a
// restarted or healed peer is immediately eligible for union merges again.
func (m *membership) revive(addr string) {
	m.mu.Lock()
	delete(m.dead, addr)
	m.mu.Unlock()
}

// applyJoin adds addr to the ring with an epoch bump. Returns whether the
// view changed.
func (m *membership) applyJoin(addr string) bool {
	if addr == "" {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr != m.self {
		m.known[addr] = struct{}{}
	}
	delete(m.dead, addr)
	epoch, members := m.ring.View()
	for _, x := range members {
		if x == addr {
			return false
		}
	}
	m.ring.Replace(append(members, addr), epoch+1)
	return true
}

// applyLeave removes addr from the ring with an epoch bump. Returns whether
// the view changed.
func (m *membership) applyLeave(addr string) bool {
	if addr == "" {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	epoch, members := m.ring.View()
	kept := members[:0]
	for _, x := range members {
		if x != addr {
			kept = append(kept, x)
		}
	}
	if len(kept) == len(members) {
		return false
	}
	m.ring.Replace(kept, epoch+1)
	return true
}

// declareDead removes addr from the ring (epoch bump) and marks it locally
// dead, so equal-epoch merges cannot resurrect it until it acks again. The
// address stays known — probing continues, which is how its restart is
// noticed. Returns whether the view changed.
func (m *membership) declareDead(addr string) bool {
	if addr == "" || addr == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	epoch, members := m.ring.View()
	kept := members[:0]
	for _, x := range members {
		if x != addr {
			kept = append(kept, x)
		}
	}
	if len(kept) == len(members) {
		return false
	}
	m.dead[addr] = struct{}{}
	m.ring.Replace(kept, epoch+1)
	return true
}

// mergeView merges a peer's (epoch, members) into the local view:
//
//   - higher epoch wins verbatim (even if it lacks self — the health loop
//     notices and escalates to a Join);
//   - equal epoch with a different set merges as union minus locally-dead,
//     with a bump, so two concurrent changes racing to one epoch converge;
//   - lower epochs carry no information.
//
// Returns whether the local view changed.
func (m *membership) mergeView(epoch uint64, members []string) bool {
	if len(members) == 0 && epoch == 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range members {
		if a != "" && a != m.self {
			m.known[a] = struct{}{}
		}
	}
	local, have := m.ring.View()
	switch {
	case epoch > local:
		m.ring.Replace(members, epoch)
		return !sameMembers(have, members)
	case epoch == local:
		if sameMembers(have, members) {
			return false
		}
		union := make(map[string]struct{}, len(have)+len(members))
		for _, a := range have {
			union[a] = struct{}{}
		}
		for _, a := range members {
			union[a] = struct{}{}
		}
		for a := range m.dead {
			delete(union, a)
		}
		merged := make([]string, 0, len(union))
		for a := range union {
			merged = append(merged, a)
		}
		m.ring.Replace(merged, local+1)
		return true
	}
	return false
}

// sameMembers reports set equality of two member lists (nearly always
// sorted and identical, so the fast path is the linear compare).
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	eq := true
	for i := range a {
		if a[i] != b[i] {
			eq = false
			break
		}
	}
	if eq {
		return true
	}
	set := make(map[string]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	for _, x := range b {
		if _, ok := set[x]; !ok {
			return false
		}
	}
	return true
}

// handleMembership answers one OpMembership exchange on the receiving shard:
// apply the intent (Join/Leave) or merge the view, ack the sender, and
// answer with the merged view. Route calls this inline — all work is cheap
// map/ring surgery; re-replication of moved keys happens on the rebalance
// goroutine the kick wakes.
func (sh *Shard) handleMembership(req *server.Request) *server.Response {
	changed := false
	switch {
	case req.Join:
		changed = sh.mem.applyJoin(req.Addr)
	case req.Leave:
		changed = sh.mem.applyLeave(req.Addr)
	default:
		changed = sh.mem.mergeView(req.Epoch, req.Members)
	}
	if req.Addr != "" && req.Addr != sh.cfg.Self {
		sh.mem.noteKnown(req.Addr)
		sh.det.track(req.Addr)
		sh.det.ack(req.Addr)
		sh.mem.revive(req.Addr)
	}
	if changed {
		sh.membershipChanges.Add(1)
		sh.logf("cluster: %s: membership now epoch %d %v (from %s join=%v leave=%v)",
			sh.cfg.Self, sh.ring.Epoch(), sh.ring.Members(), req.Addr, req.Join, req.Leave)
		sh.kickRebalance()
	}
	epoch, members := sh.ring.View()
	return &server.Response{Epoch: epoch, Members: members}
}

// heartbeatTimeout bounds one peer's exchange in a probe round. A link that
// swallows part of a frame would otherwise hold the whole round, and every
// peer's detector with it, for the pool's call timeout (a minute). A probe
// that misses the bound is a missed ack.
const heartbeatTimeout = time.Second

// healthLoop is the shard's heartbeat driver: probe every known peer each
// interval, merge the views that come back, escalate to a Join when the
// cluster's view lacks this shard (fresh join, restart, healed partition),
// and declare peers dead past the phi threshold.
func (sh *Shard) healthLoop() {
	defer close(sh.healthDone)
	t := time.NewTicker(sh.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-sh.stop:
			return
		case <-t.C:
			sh.heartbeat()
		}
	}
}

// heartbeat runs one probe round. Exported to tests via heartbeat() calls on
// a shard with the loop disabled, which makes churn sequences deterministic.
func (sh *Shard) heartbeat() {
	epoch, members := sh.ring.View()
	targets := sh.mem.probeTargets()
	if len(targets) == 0 && sh.cfg.Join != "" {
		targets = []string{sh.cfg.Join}
		sh.mem.noteKnown(sh.cfg.Join)
	}
	// Join is needed when the authoritative view excludes us: a fresh
	// joiner still alone in its own ring, or a shard whose peers declared
	// it dead (restart, partition) — the merge that adopted their view
	// dropped self, and this is the escalation that gets it back in.
	joinNeeded := !sh.ring.Contains(sh.cfg.Self) ||
		(sh.cfg.Join != "" && sh.ring.Size() <= 1)
	for _, addr := range targets {
		sh.det.track(addr)
		req := &server.Request{Op: server.OpMembership, Epoch: epoch, Members: members, Addr: sh.cfg.Self}
		if joinNeeded {
			req.Join = true
		}
		ctx, cancel := context.WithTimeout(context.Background(), heartbeatTimeout)
		resp, _, err := sh.peers.Exchange(ctx, addr, req)
		cancel()
		if err != nil || resp.Err != "" {
			continue // no ack: phi keeps growing
		}
		sh.det.ack(addr)
		sh.mem.revive(addr)
		if sh.mem.mergeView(resp.Epoch, resp.Members) {
			sh.membershipChanges.Add(1)
			sh.logf("cluster: %s: adopted membership epoch %d %v from %s",
				sh.cfg.Self, resp.Epoch, resp.Members, addr)
			sh.kickRebalance()
		}
		if joinNeeded && sh.ring.Contains(sh.cfg.Self) {
			joinNeeded = false
			epoch, members = sh.ring.View()
		}
	}
	// Death detection after the probe round, so a slow-but-alive peer's ack
	// from this very round counts.
	for _, addr := range targets {
		if sh.mem.isDead(addr) || !sh.ring.Contains(addr) {
			continue
		}
		switch sh.det.state(addr) {
		case stateDead:
			if sh.mem.declareDead(addr) {
				sh.membershipChanges.Add(1)
				sh.deaths.Add(1)
				sh.logf("cluster: %s: declared %s dead (phi %.1f >= %.1f), membership now epoch %d %v",
					sh.cfg.Self, addr, sh.det.phi(addr), deadThreshold, sh.ring.Epoch(), sh.ring.Members())
				sh.kickRebalance()
			}
		case stateSuspect:
			sh.logf("cluster: %s: suspects %s (phi %.1f)", sh.cfg.Self, addr, sh.det.phi(addr))
		}
	}
}
