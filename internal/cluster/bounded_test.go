package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"sstar/internal/server"
)

// stallHooks makes a server a peer that accepts every request and never
// answers one: its Route holds each request until release closes.
type stallHooks struct{ release chan struct{} }

func (h stallHooks) Route(*server.Request) *server.Response {
	<-h.release
	return &server.Response{Err: "released"}
}
func (stallHooks) Self() string                     { return "" }
func (stallHooks) Stored(server.StoredEvent)        {}
func (stallHooks) Freed(uint64, uint64)             {}
func (stallHooks) AugmentStats(*server.ServerStats) {}

// TestExchangesAreBounded: a peer that takes a heartbeat or a replication
// push and never answers holds the probe round, or the replication queue,
// for at most the exchange's bound, not for the pool's minute-long call
// timeout.
func TestExchangesAreBounded(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hooks := stallHooks{release: make(chan struct{})}
	peer := server.New(server.Config{Workers: 2, FactorWorkers: 1, Cluster: hooks})
	go peer.Serve(l)
	defer peer.Close()
	defer close(hooks.release)

	self, stalled := "127.0.0.1:1", l.Addr().String()
	sh, err := NewShard(ShardConfig{Self: self, Peers: []string{self, stalled}, HeartbeatInterval: -1, RepairInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	const slack = 2 * time.Second // dial, handshake and a loaded machine
	var wg sync.WaitGroup
	for _, c := range []struct {
		name  string
		bound time.Duration
		run   func()
	}{
		{"heartbeat", heartbeatTimeout, sh.heartbeat},
		{"push", pushTimeout, func() {
			sh.pending.Add(1)
			sh.push(replJob{addr: stalled, req: &server.Request{Op: server.OpPing}}, 1)
		}},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			c.run()
			if d := time.Since(t0); d > c.bound+slack {
				t.Errorf("%s to a peer that never answers took %v, bound %v", c.name, d, c.bound)
			}
		}()
	}
	wg.Wait()
	if sh.replErrors.Load() != 1 {
		t.Errorf("the unanswered push counted %d replication errors, want 1", sh.replErrors.Load())
	}
}

// TestShardCloseIsIdempotent: a test's cleanup may close a shard its body
// already closed (a node killed mid-test whose restart failed).
func TestShardCloseIsIdempotent(t *testing.T) {
	sh, err := NewShard(ShardConfig{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:1"}, HeartbeatInterval: -1, RepairInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	sh.Close()
	sh.Close()
}
