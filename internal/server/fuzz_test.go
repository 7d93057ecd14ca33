package server

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"sstar"
	"sstar/internal/wire"
)

// fuzzServer is one shared worker-less server; process is called directly, so
// the pool is irrelevant and paying New per fuzz iteration would only slow
// the fuzzer down.
var fuzzServer = sync.OnceValue(func() *Server {
	return New(Config{Workers: 1})
})

// FuzzRequestDecode drives hostile byte streams through the exact path a
// connection uses — frame decode, gob decode, then request execution — and
// requires the server side to survive every one: decode errors and in-band
// error responses are fine, a process-killing panic is not. (process recovers
// panics by contract; the fuzzer proves the recovery really holds the line.)
func FuzzRequestDecode(f *testing.F) {
	// Seed with well-formed requests of every op so the fuzzer starts from
	// deep inside the accepted grammar rather than random noise.
	a := sstar.GenGrid2D(4, 4, false, sstar.GenOptions{Seed: 3})
	seeds := []*Request{
		{Op: OpPing},
		{Op: OpStats},
		{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions(), TimeoutNs: 1e9},
		{Op: OpSolve, Handle: 1, B: make([]float64, 16)},
		{Op: OpRefactorize, Handle: 2, Values: []float64{1, 2, 3}},
		{Op: OpFree, Handle: 3},
		{Op: Op(200)},
		// Addr and Members are the strings a peer chooses (on a shard they
		// become ring member names): hostile names must be as survivable as
		// hostile payloads.
		{Op: OpMembership, Epoch: 2, Addr: "prod", Members: []string{"prod"}, Join: true},
		{Op: OpMembership, Addr: "\x00\xff weird\nname\"", Leave: true},
		{Op: OpMembership, Members: []string{strings.Repeat("t", 300), ""}},
	}
	for _, req := range seeds {
		var buf bytes.Buffer
		if err := wire.WriteGob(&buf, FrameRequest, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{FrameRequest, 0, 0, 0, 4, 0, 0, 0, 0, 1, 2, 3, 4})

	s := fuzzServer()
	f.Fuzz(func(t *testing.T, data []byte) {
		req := new(Request)
		if err := wire.ReadGob(bytes.NewReader(data), FrameRequest, 1<<20, req); err != nil {
			return // rejected at the wire: exactly what hostile bytes should get
		}
		// The cluster extension decodes the same frame on shards: hostile Key
		// and Blob fields must be as survivable as the rest.
		if len(req.Blob) > 4096 {
			return
		}
		// Cap the work a decoded request may describe — the fuzzer's job is
		// crashing the decoder and the validators, not factorizing whatever
		// huge random matrix happens to parse.
		if m := req.Matrix; m != nil && (m.N > 64 || m.M > 64 || len(m.RowPtr) > 4096 || len(m.ColInd) > 4096 || len(m.Val) > 4096) {
			return
		}
		if len(req.B) > 4096 || len(req.Values) > 4096 {
			return
		}
		resp := s.process(req)
		if resp == nil {
			t.Fatal("process returned nil response")
		}
	})
}

// FuzzRedirectDecode drives hostile bytes through the response-decode path a
// client (and the router, following redirects between shards) runs: frame
// decode, gob decode, then the typed-error classification that redirect
// following branches on. Decode errors are fine; a panic, or a classification
// that disagrees with the code-to-sentinel mapping, is not.
func FuzzRedirectDecode(f *testing.F) {
	seeds := []*Response{
		{Code: CodeRedirect, Addr: "127.0.0.1:7072", Key: 0xdeadbeef, Err: "redirect: structure 0xdeadbeef is placed on 127.0.0.1:7072"},
		{Code: CodeNotOwner, Addr: "10.0.0.3:7071", Key: 1, Err: "not owner: handle 7"},
		{Handle: 7, N: 16, Nnz: 64, Key: 9, Addr: "127.0.0.1:7071"},
		{Code: CodeRedirect, Err: "redirect with no address"},
		{Code: Code(250), Addr: "\x00junk", Err: "unknown code"},
		{X: []float64{1, 2, 3}},
	}
	for _, resp := range seeds {
		var buf bytes.Buffer
		if err := wire.WriteGob(&buf, FrameResponse, resp); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{FrameResponse, 0, 0, 0, 2, 0, 0, 0, 0, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		resp := new(Response)
		if err := wire.ReadGob(bytes.NewReader(data), FrameResponse, 1<<20, resp); err != nil {
			return
		}
		err := resp.Error()
		if resp.Err == "" {
			if err != nil {
				t.Fatalf("success response produced error %v", err)
			}
			return
		}
		if err == nil {
			t.Fatal("failed response produced nil error")
		}
		// The round trip a redirect-following client depends on: the typed
		// error must classify back to the code it was built from (unknown
		// codes survive as CodeNone, never panic).
		if got := CodeOf(err); got != resp.Code && got != CodeNone {
			t.Fatalf("CodeOf round trip: %v -> %v (want %v or CodeNone)", resp.Code, got, resp.Code)
		}
		isRedirect := resp.Code == CodeRedirect || resp.Code == CodeNotOwner
		if isRedirect != (errors.Is(err, sstar.ErrRedirect) || errors.Is(err, sstar.ErrNotOwner)) {
			t.Fatalf("code %v: redirect classification mismatch for %v", resp.Code, err)
		}
	})
}

// FuzzMembershipDecode drives hostile membership and manifest exchanges —
// the self-healing wire ops a shard accepts from any peer that can dial it —
// through the same decode-then-process path. Hostile epochs, member lists
// (huge, empty, binary garbage), and intent flags must all come back as
// in-band answers, never a panic: the failure detector calls these ops on
// every heartbeat, so a poisonous view from one sick peer must not take a
// healthy shard down with it.
func FuzzMembershipDecode(f *testing.F) {
	seeds := []*Request{
		{Op: OpMembership, Epoch: 1, Members: []string{"127.0.0.1:7071", "127.0.0.1:7072"}, Addr: "127.0.0.1:7071"},
		{Op: OpMembership, Epoch: 3, Members: []string{"127.0.0.1:7073"}, Addr: "127.0.0.1:7073", Join: true},
		{Op: OpMembership, Epoch: 9, Addr: "127.0.0.1:7072", Leave: true},
		{Op: OpMembership}, // empty view, no identity
		{Op: OpMembership, Epoch: ^uint64(0), Members: []string{""}, Addr: ""},
		{Op: OpMembership, Epoch: 5, Members: []string{"\x00\xffgarbage", strings.Repeat("m", 300)}, Addr: "\nnot an addr", Join: true, Leave: true},
		{Op: OpManifest},
		{Op: OpManifest, Epoch: 2, Addr: "127.0.0.1:7071"},
	}
	for _, req := range seeds {
		var buf bytes.Buffer
		if err := wire.WriteGob(&buf, FrameRequest, req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})

	s := fuzzServer()
	f.Fuzz(func(t *testing.T, data []byte) {
		req := new(Request)
		if err := wire.ReadGob(bytes.NewReader(data), FrameRequest, 1<<20, req); err != nil {
			return
		}
		if req.Op != OpMembership && req.Op != OpManifest {
			return // other ops belong to FuzzRequestDecode
		}
		// Cap the membership list a decoded request may carry; the target is
		// the decoder and the merge rules, not allocating a million vnodes.
		if len(req.Members) > 64 {
			return
		}
		resp := s.process(req)
		if resp == nil {
			t.Fatal("process returned nil response")
		}
		if req.Op == OpManifest && resp.Err != "" {
			t.Fatalf("manifest exchange failed in-band: %s", resp.Err)
		}
	})
}
