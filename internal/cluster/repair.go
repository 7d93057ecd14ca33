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

// manifestTimeout bounds one manifest exchange of a sweep. A link that
// swallows part of a frame leaves the peer waiting for bytes that never
// come, and without a bound the repair loop would wait out the pool's whole
// call timeout (a minute) with every other repair stalled behind it. A peer
// that misses the bound counts as unreachable for this sweep.
const manifestTimeout = 2 * time.Second

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

// repairLoop alternates between kicked rebalances (membership changes: push
// the moved keys, never drop — the view may still be converging) and
// periodic full sweeps (push and, with two-sweep confirmation, drop strays).
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
// placement and the responsible peers' manifests, and for every local entry
// push it to each responsible shard other than this one whose manifest lacks
// the handle or holds an older values-epoch. An entry on no responsible
// position is a stray: with allowDrop, and only after every responsible
// shard was confirmed to hold a current copy on two consecutive sweeps, it
// is released.
//
// There is no per-position case: whether this shard is the key's owner, its
// successor, or neither, the rule is the same diff. Roles are never stored —
// who owns a key is a ring lookup — so a membership change needs no
// promotion or demotion, only the pushes. The push direction is always
// toward ring placement and nothing is dropped that is not proven held
// elsewhere, so repeated sweeps converge the fleet to "every key on exactly
// its R responsible shards" (see DESIGN.md, "Self-healing membership").
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
		ctx, cancel := context.WithTimeout(context.Background(), manifestTimeout)
		resp, _, err := sh.peers.Exchange(ctx, m, &server.Request{Op: server.OpManifest})
		cancel()
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
		stray, held := true, true
		for _, m := range reps {
			if m == sh.cfg.Self {
				stray = false
				continue
			}
			pm := peerMan[m]
			if pm == nil {
				held = false // unreachable: nothing to push or confirm
				continue
			}
			// A missing copy is always restored, never read as "freed":
			// the other explanation (the peer restarted empty) would turn
			// a drop into permanent data loss.
			if pe, ok := pm[e.Handle]; !ok || pe.ValEpoch < e.ValEpoch {
				sh.pushCopy(e.Handle, m)
				held = false
			}
		}
		if stray && held && len(reps) > 0 {
			confirmed[e.Handle] = struct{}{}
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

// pushCopy queues a repair push of a live handle's complete copy to addr.
// Like a live push it names the handle only: the replicator exports the
// factors as the push leaves, bit-exactly (Save/Load round-trips the pivot
// sequence, so the receiver's solves stay bit-identical).
func (sh *Shard) pushCopy(id uint64, addr string) {
	sh.repairPushes.Add(1)
	sh.replicate(addr, id, true)
}

// PlacementViolations diffs a fleet's manifests against the ring placement
// of the first shard and returns one human-readable line per violation: a
// missing copy, a copy on a shard outside its replica set, or a copy older
// than the newest values-epoch. Empty means converged: every key has exactly
// min(R, fleet) copies, each on its responsible shard. It is computed
// independently of sweep, which is what makes it a check on the sweep: the
// churn property test (TestChurnConvergence) and the e2e suites
// (TestSelfHealKillRejoinE2E, TestClusterPartitionHeal) share it as their
// "is the cluster healed" predicate.
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
		want := make(map[string]bool, len(reps))
		for _, m := range reps {
			want[m] = true
		}
		var newest uint64
		for _, c := range copies {
			if c.e.ValEpoch > newest {
				newest = c.e.ValEpoch
			}
		}
		seen := make(map[string]bool, len(copies))
		for _, c := range copies {
			if !want[c.addr] {
				out = append(out, fmt.Sprintf("key %#x: stray copy on %s", key, c.addr))
				continue
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
