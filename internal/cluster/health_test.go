package cluster

// Unit tests of the self-healing primitives: the phi failure detector under
// a fake clock (deterministic — no sleeps, no flakes), and the membership
// merge rules that make every shard's view converge (higher epoch wins,
// equal epochs union, locally-dead members stay dead until they ack).

import (
	"testing"
	"time"

	"sstar/internal/chaos"
)

func TestDetectorPhases(t *testing.T) {
	clk := chaos.NewFakeClock()
	d := newDetector(clk, 100*time.Millisecond)
	d.track("a")

	// Regular acks: alive, phi near zero.
	for i := 0; i < 10; i++ {
		clk.Advance(100 * time.Millisecond)
		d.ack("a")
	}
	if st := d.state("a"); st != stateAlive {
		t.Fatalf("state after regular acks = %v, want alive", st)
	}
	if phi := d.phi("a"); phi > 0.1 {
		t.Fatalf("phi right after an ack = %.2f, want ~0", phi)
	}

	// Silence: phi grows through suspect into dead. The EWMA has converged
	// to ~100ms, so 450ms of silence is phi ~4.5 and 850ms is ~8.5.
	clk.Advance(450 * time.Millisecond)
	if st := d.state("a"); st != stateSuspect {
		t.Fatalf("state after 450ms silence = %v (phi %.2f), want suspect", st, d.phi("a"))
	}
	clk.Advance(400 * time.Millisecond)
	if st := d.state("a"); st != stateDead {
		t.Fatalf("state after 850ms silence = %v (phi %.2f), want dead", st, d.phi("a"))
	}

	// One ack resurrects it instantly.
	d.ack("a")
	if st := d.state("a"); st != stateAlive {
		t.Fatalf("state after resurrection ack = %v, want alive", st)
	}
}

func TestDetectorAdaptsToSlowPeers(t *testing.T) {
	clk := chaos.NewFakeClock()
	d := newDetector(clk, 100*time.Millisecond)
	d.track("slow")
	// A peer that acks every 300ms (slow network, busy host): the EWMA
	// adapts, so 600ms of silence — fatal for a 100ms peer — stays alive.
	for i := 0; i < 30; i++ {
		clk.Advance(300 * time.Millisecond)
		d.ack("slow")
	}
	clk.Advance(600 * time.Millisecond)
	if st := d.state("slow"); st != stateAlive {
		t.Fatalf("state = %v (phi %.2f), want alive: the EWMA should have adapted to the 300ms cadence", st, d.phi("slow"))
	}
}

func TestDetectorUnknownPeerHasNoOpinion(t *testing.T) {
	d := newDetector(chaos.NewFakeClock(), 100*time.Millisecond)
	if phi := d.phi("never-seen"); phi != 0 {
		t.Fatalf("phi of untracked peer = %.2f, want 0", phi)
	}
	if st := d.state("never-seen"); st != stateAlive {
		t.Fatalf("state of untracked peer = %v, want alive", st)
	}
}

func TestDetectorFreshTrackGrace(t *testing.T) {
	clk := chaos.NewFakeClock()
	d := newDetector(clk, 100*time.Millisecond)
	d.track("new")
	// A just-learned peer must not be instantly suspect: its grace window is
	// a couple of intervals.
	clk.Advance(150 * time.Millisecond)
	if st := d.state("new"); st != stateAlive {
		t.Fatalf("state of fresh peer after 150ms = %v, want alive (grace)", st)
	}
}

func newTestMembership(self string, members []string, epoch uint64) *membership {
	ring := NewRing(16)
	for _, m := range members {
		ring.Add(m)
	}
	ring.SetEpoch(epoch)
	return newMembership(self, ring)
}

func TestMembershipJoinLeave(t *testing.T) {
	m := newTestMembership("a", []string{"a", "b"}, 1)
	if !m.applyJoin("c") {
		t.Fatal("join of a new member did not change the view")
	}
	if e := m.ring.Epoch(); e != 2 {
		t.Fatalf("epoch after join = %d, want 2", e)
	}
	if m.applyJoin("c") {
		t.Fatal("re-join of an existing member changed the view")
	}
	if !m.applyLeave("b") {
		t.Fatal("leave of a member did not change the view")
	}
	if m.ring.Contains("b") {
		t.Fatal("ring still contains the departed member")
	}
	if e := m.ring.Epoch(); e != 3 {
		t.Fatalf("epoch after leave = %d, want 3", e)
	}
	if m.applyLeave("b") {
		t.Fatal("leave of an absent member changed the view")
	}
}

func TestMembershipHigherEpochWins(t *testing.T) {
	m := newTestMembership("a", []string{"a", "b"}, 3)
	if !m.mergeView(7, []string{"a", "b", "c"}) {
		t.Fatal("higher-epoch view was not adopted")
	}
	if e := m.ring.Epoch(); e != 7 {
		t.Fatalf("epoch = %d, want 7 (adopted verbatim)", e)
	}
	if !m.ring.Contains("c") {
		t.Fatal("adopted view lost member c")
	}
	// A lower epoch carries no information.
	if m.mergeView(2, []string{"x"}) {
		t.Fatal("lower-epoch view changed the local view")
	}
	if m.ring.Contains("x") {
		t.Fatal("lower-epoch member leaked into the ring")
	}
}

func TestMembershipHigherEpochMayDropSelf(t *testing.T) {
	// Peers declared us dead while we were partitioned: their higher-epoch
	// view lacks self and must win anyway (the heartbeat loop escalates to a
	// Join afterwards — adopting the truth is the first step of rejoining).
	m := newTestMembership("a", []string{"a", "b", "c"}, 2)
	if !m.mergeView(5, []string{"b", "c"}) {
		t.Fatal("higher-epoch view lacking self was not adopted")
	}
	if m.ring.Contains("a") {
		t.Fatal("self survived a merge that excluded it")
	}
}

func TestMembershipEqualEpochUnions(t *testing.T) {
	// Two concurrent changes raced to epoch 4: {a,b,c} here, {a,b,d} there.
	// The merge unions with a bump, so both sides converge on {a,b,c,d}.
	m := newTestMembership("a", []string{"a", "b", "c"}, 4)
	if !m.mergeView(4, []string{"a", "b", "d"}) {
		t.Fatal("equal-epoch different-set merge did not change the view")
	}
	if e := m.ring.Epoch(); e != 5 {
		t.Fatalf("epoch after union merge = %d, want 5 (bumped past the race)", e)
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		if !m.ring.Contains(want) {
			t.Fatalf("union lost member %s", want)
		}
	}
	// Same epoch, same set: nothing to do.
	if m.mergeView(5, m.ring.Members()) {
		t.Fatal("identical view changed the local view")
	}
}

func TestMembershipDeadNotResurrectedByUnion(t *testing.T) {
	m := newTestMembership("a", []string{"a", "b", "c"}, 4)
	if !m.declareDead("c") {
		t.Fatal("declareDead did not change the view")
	}
	epoch := m.ring.Epoch()
	// A peer that has not noticed offers an equal-epoch view still naming c:
	// the union must subtract the locally-dead member.
	if !m.mergeView(epoch, []string{"a", "b", "c"}) {
		t.Fatal("merge did not bump past the stale view")
	}
	if m.ring.Contains("c") {
		t.Fatal("dead member resurrected by an equal-epoch union")
	}
	// c acks again (revive): the next merge may bring it back.
	m.revive("c")
	if !m.mergeView(m.ring.Epoch()+10, []string{"a", "b", "c"}) {
		t.Fatal("post-revive merge rejected")
	}
	if !m.ring.Contains("c") {
		t.Fatal("revived member did not return with a newer view")
	}
}

func TestMembershipDeadStaysKnown(t *testing.T) {
	m := newTestMembership("a", []string{"a", "b"}, 1)
	m.noteKnown("b")
	m.declareDead("b")
	found := false
	for _, p := range m.probeTargets() {
		if p == "b" {
			found = true
		}
	}
	if !found {
		t.Fatal("dead member dropped from the probe set — its restart would never be noticed")
	}
}
