package cluster

import (
	"context"
	"fmt"
	"time"

	"sstar/internal/server"
)

// Default cadences of the self-healing loops. Heartbeats are cheap (one
// small gob exchange per peer); the repair sweep costs one manifest exchange
// per peer plus a local diff, so it runs an order of magnitude slower.
const (
	defaultHeartbeatInterval = 250 * time.Millisecond
	defaultRepairInterval    = 2 * time.Second
)

// kickRebalance wakes the repair goroutine for an immediate push-only sweep
// — the membership just changed, and the moved keys should re-replicate now
// rather than at the next periodic tick. Non-blocking: a kick during a
// running sweep coalesces into one more round.
func (sh *Shard) kickRebalance() {
	select {
	case sh.rebalance <- struct{}{}:
	default:
	}
}

// repairLoop alternates between kicked rebalances (membership changes:
// promote + push the moved keys, never drop — the view may still be
// converging) and periodic full sweeps (push and, with two-sweep
// confirmation, drop strays).
func (sh *Shard) repairLoop() {
	defer close(sh.repairDone)
	var tick <-chan time.Time
	if sh.cfg.RepairInterval > 0 {
		t := time.NewTicker(sh.cfg.RepairInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-sh.stop:
			return
		case <-sh.rebalance:
			sh.sweep(false)
		case <-tick:
			sh.sweep(true)
		}
	}
}

// sweep is one anti-entropy round: diff this shard's manifest against ring
// placement and the responsible peers' manifests, then
//
//   - promote replica entries whose key this shard now owns (and push any
//     successor that is missing or stale — restoring R copies after a
//     promotion is what closes the "promoted replica is singly-homed" gap);
//   - demote owned entries whose key moved away, once the new owner is
//     confirmed to hold factors at least as new (the rejoin-reversal path:
//     push first, demote after);
//   - push strays (entries on no responsible position) to every responsible
//     shard that lacks them, and — only with allowDrop, and only after the
//     copies were confirmed on two consecutive sweeps — release them.
//
// The sweep never drops anything it cannot prove is held elsewhere, and the
// push direction is always toward ring placement, so repeated sweeps
// monotonically converge the fleet to "every key on exactly its R
// responsible shards" (see DESIGN.md, "Self-healing membership").
func (sh *Shard) sweep(allowDrop bool) {
	s := sh.srv.Load()
	if s == nil {
		return
	}
	manifest := s.Manifest()
	_, members := sh.ring.View()

	// One manifest exchange per peer per sweep, not per key. A nil map
	// means the peer was unreachable: nothing can be confirmed against it
	// this round (pushes to it would fail anyway, drops must wait).
	peerMan := make(map[string]map[uint64]server.ManifestEntry, len(members))
	for _, m := range members {
		if m == sh.cfg.Self {
			continue
		}
		resp, _, err := sh.peers.Exchange(context.Background(), m, &server.Request{Op: server.OpManifest})
		if err != nil || resp.Err != "" {
			peerMan[m] = nil
			continue
		}
		mm := make(map[uint64]server.ManifestEntry, len(resp.Manifest))
		for _, e := range resp.Manifest {
			mm[e.Handle] = e
		}
		peerMan[m] = mm
	}

	confirmed := make(map[uint64]struct{})
	for _, e := range manifest {
		reps := sh.ring.Replicas(e.Key, replicas)
		pos := -1
		for i, m := range reps {
			if m == sh.cfg.Self {
				pos = i
				break
			}
		}
		switch {
		case pos == 0: // this shard owns the key
			if e.Replica && s.SetHandleRole(e.Handle, false) {
				sh.promotions.Add(1)
				sh.logf("cluster: %s: promoted handle %d (key %#x) to owner", sh.cfg.Self, e.Handle, e.Key)
			}
			for _, m := range reps[1:] {
				pm := peerMan[m]
				if pm == nil {
					continue
				}
				if pe, ok := pm[e.Handle]; !ok || pe.ValEpoch < e.ValEpoch {
					sh.pushCopy(s, e.Handle, m)
				}
			}
		case pos > 0: // this shard is a replica position
			owner := reps[0]
			pm := peerMan[owner]
			if pm == nil {
				break // owner unreachable: hold everything as-is
			}
			if oe, ok := pm[e.Handle]; ok && oe.ValEpoch >= e.ValEpoch {
				// The owner holds current factors — this copy is the
				// replica it should be. (The previous owner rejoining and
				// receiving its range back lands here: demotion closes the
				// handover its pushes started.)
				if !e.Replica && s.SetHandleRole(e.Handle, true) {
					sh.demotions.Add(1)
					sh.logf("cluster: %s: demoted handle %d (key %#x) to replica of %s", sh.cfg.Self, e.Handle, e.Key, owner)
				}
			} else {
				// Owner missing or stale: restore it. Deliberately the
				// resurrection-safe direction — a replica never decides a
				// missing owner copy means "freed", because the other
				// explanation (the owner restarted empty) would turn a drop
				// into permanent data loss.
				sh.pushCopy(s, e.Handle, owner)
			}
		default: // stray: this shard holds a key it is not responsible for
			held := true
			for _, m := range reps {
				pm := peerMan[m]
				if pm == nil {
					held = false
					continue
				}
				if pe, ok := pm[e.Handle]; !ok || pe.ValEpoch < e.ValEpoch {
					sh.pushCopy(s, e.Handle, m)
					held = false
				}
			}
			if held && len(reps) > 0 {
				confirmed[e.Handle] = struct{}{}
			}
		}
	}

	// Two-sweep drop rule: a stray is released only when every responsible
	// shard held a current copy on this sweep AND the previous one — one
	// confirmation could race a concurrent eviction or a view still
	// converging; two consecutive confirmations spaced a repair interval
	// apart make the copies durable observations, not luck.
	sh.strayMu.Lock()
	if allowDrop {
		for id := range confirmed {
			if _, seen := sh.strayCand[id]; seen {
				if s.DropHandle(id) {
					sh.repairDrops.Add(1)
					sh.logf("cluster: %s: dropped stray handle %d (copies confirmed twice)", sh.cfg.Self, id)
				}
				delete(confirmed, id)
			}
		}
	}
	sh.strayCand = confirmed
	sh.strayMu.Unlock()
}

// pushCopy enqueues a repair push of a live handle's factors to addr,
// re-serializing them bit-exactly (Save/Load round-trips the pivot
// sequence, so the receiver's solves stay bit-identical).
func (sh *Shard) pushCopy(s *server.Server, id uint64, addr string) {
	ev, ok := s.ExportHandle(id)
	if !ok {
		return
	}
	sh.repairPushes.Add(1)
	sh.enqueue(replJob{addr: addr, req: ev.ReplicateRequest()})
}

// PlacementViolations diffs a fleet's manifests against the ring placement
// of the first shard and returns one human-readable line per violation: a
// key with the wrong copy count, a copy on a shard outside its replica set,
// an owner position marked replica, or a copy older than the newest values-
// epoch. Empty means converged: every key has exactly min(R, fleet) copies,
// each on its responsible shard, owner marked owned. Exported for the churn
// property test, the chaos e2e, and sstar-load's availability bench — the
// "is the cluster healed" predicate they all share.
func PlacementViolations(shards []*Shard) []string {
	if len(shards) == 0 {
		return nil
	}
	ring := shards[0].ring
	type copyAt struct {
		addr string
		e    server.ManifestEntry
	}
	byKey := make(map[uint64][]copyAt)
	for _, sh := range shards {
		s := sh.srv.Load()
		if s == nil {
			continue
		}
		for _, e := range s.Manifest() {
			byKey[e.Key] = append(byKey[e.Key], copyAt{addr: sh.cfg.Self, e: e})
		}
	}
	var out []string
	for key, copies := range byKey {
		reps := ring.Replicas(key, replicas)
		want := make(map[string]int, len(reps)) // addr -> position
		for i, m := range reps {
			want[m] = i
		}
		var newest uint64
		for _, c := range copies {
			if c.e.ValEpoch > newest {
				newest = c.e.ValEpoch
			}
		}
		seen := make(map[string]bool, len(copies))
		for _, c := range copies {
			pos, ok := want[c.addr]
			switch {
			case !ok:
				out = append(out, fmt.Sprintf("key %#x: stray copy on %s", key, c.addr))
				continue
			case pos == 0 && c.e.Replica:
				out = append(out, fmt.Sprintf("key %#x: owner position %s marked replica", key, c.addr))
			case pos > 0 && !c.e.Replica:
				out = append(out, fmt.Sprintf("key %#x: replica position %s marked owner", key, c.addr))
			}
			if c.e.ValEpoch < newest {
				out = append(out, fmt.Sprintf("key %#x: stale copy on %s (values-epoch %d < %d)", key, c.addr, c.e.ValEpoch, newest))
			}
			seen[c.addr] = true
		}
		for _, m := range reps {
			if !seen[m] {
				out = append(out, fmt.Sprintf("key %#x: missing copy on %s", key, m))
			}
		}
	}
	return out
}
