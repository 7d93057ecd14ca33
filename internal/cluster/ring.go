// Package cluster turns N single-node sstar-serve shards into one solve
// service: structures are placed on shards by consistent hashing of their
// 64-bit structure key, factors and analysis-cache entries are replicated
// asynchronously to each owner's successor on the ring, and a thin router
// (cmd/sstar-router) speaks the ordinary client protocol in front of the
// fleet — scattering wide multi-RHS solves across replica holders and
// failing solves over to the replica when the owner dies, without ever
// refactorizing.
//
// The design leans on two properties of the underlying solver. First,
// Factorization.Save/Load round-trips factors bit-exactly (the pivot
// sequence travels with the values), so a replica's solve is bit-identical
// to the owner's — failover changes which machine answers, never the answer.
// Second, the structure key already excludes every option the server
// normalizes per-process (HostWorkers, Observer), so router, shards, and
// clients all hash a request to the same key without coordination.
package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVNodes is the virtual-node count per member: enough points that the
// max/min ownership ratio across members stays under ~1.3 even for small
// rings (see ring_test.go), cheap enough that a membership change rebuilds
// the point list in microseconds.
const DefaultVNodes = 128

// replicas is the copy count per structure, owner included: the owner and
// its ring successor. Router and shards place with the same constant, so
// they cannot disagree on placement.
const replicas = 2

// pointsPerVNode spreads every virtual node over several ring positions.
// A member's keyspace share is a sum of independent arc lengths with
// relative spread ~1/sqrt(points), so 128 vnodes alone (~9%) would leave a
// 16-member fleet with a max/min ownership ratio around 1.5; at 8 positions
// per vnode (~3%) the ratio stays comfortably under 1.3.
const pointsPerVNode = 8

// Ring is a consistent-hash ring over shard addresses. Each member
// contributes VNodes virtual nodes (each hashed to several ring positions);
// a key is owned by the member whose point follows the key's hash
// clockwise. Membership changes move only the keys between the affected
// points — about 1/len(members) of the keyspace per join or leave — which
// is the property that makes adding a shard cheap: only the moved keys need
// re-replication, everything else stays put.
//
// A Ring is safe for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	epoch   uint64 // membership epoch: bumped on every membership change
	members map[string]struct{}
	points  []point // sorted by hash
}

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring with the given virtual-node count per member
// (DefaultVNodes when vnodes < 1).
func NewRing(vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}
}

// mix64 is the splitmix64 finalizer: full-avalanche mixing applied on top
// of FNV, whose raw output over near-identical strings ("addr#1", "addr#2",
// ...) clusters enough to skew vnode placement several-fold.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointHash positions virtual node i of member on the ring.
func pointHash(member string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(member))
	h.Write([]byte("#"))
	h.Write([]byte(strconv.Itoa(i)))
	return mix64(h.Sum64())
}

// keyHash maps a structure key onto the ring. The key is re-hashed rather
// than used directly so ring placement stays uniform even if a caller feeds
// keys with structure (sequential ids, low-entropy hashes).
func keyHash(key uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], key)
	h := fnv.New64a()
	h.Write(b[:])
	return mix64(h.Sum64())
}

// Add inserts a member (idempotent) and rebuilds the point list.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes*pointsPerVNode; i++ {
		r.points = append(r.points, point{hash: pointHash(member, i), member: member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member (idempotent) and rebuilds the point list.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Epoch returns the membership epoch: a counter bumped on every membership
// change, the version number routers and shards compare to detect a stale
// ring view. Static fleets (Add at boot, no dynamic membership) keep the
// epoch the constructor left.
func (r *Ring) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// SetEpoch sets the epoch without changing membership — boot-time
// initialization (a static fleet starts at 1, a joiner at 0 so any
// established view wins the merge).
func (r *Ring) SetEpoch(e uint64) {
	r.mu.Lock()
	r.epoch = e
	r.mu.Unlock()
}

// View atomically snapshots the epoch and the sorted member list — the pair
// one OpMembership exchange carries.
func (r *Ring) View() (epoch uint64, members []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	members = make([]string, 0, len(r.members))
	for m := range r.members {
		members = append(members, m)
	}
	sort.Strings(members)
	return r.epoch, members
}

// Replace installs a whole membership view (members, epoch) atomically,
// rebuilding the point list. Used when a merge adopts a newer view; Add and
// Remove stay the boot-time primitives.
func (r *Ring) Replace(members []string, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch = epoch
	r.members = make(map[string]struct{}, len(members))
	r.points = r.points[:0]
	for _, m := range members {
		if _, ok := r.members[m]; ok {
			continue
		}
		r.members[m] = struct{}{}
		for i := 0; i < r.vnodes*pointsPerVNode; i++ {
			r.points = append(r.points, point{hash: pointHash(m, i), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Contains reports whether member is on the ring.
func (r *Ring) Contains(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.members[member]
	return ok
}

// Members returns the current membership, sorted for determinism.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key, "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Replicas returns up to n distinct members responsible for key, owner
// first, then ring successors in clockwise order. Fewer than n members on
// the ring returns them all. The successor order is what the replication
// protocol uses: the owner pushes factors to Replicas(key, 2)[1].
func (r *Ring) Replicas(key uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := keyHash(key)
	// First point at or after h, wrapping past the top of the ring.
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.member]; ok {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}
