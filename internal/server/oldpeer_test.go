package server

// The retired fields and pushes on the wire. Handle roles are derived from the
// ring, not stored, so Response.Replica, ManifestEntry.Replica and three
// ServerStats counters are gone from the types; admission is one queue, so
// Request.Tenant and ServerStats.Tenants are gone too; the handle push
// carries its analysis, so the separate analysis push is retired. A peer
// built before that still sends them. This file spells their names to
// rebuild that peer's shape, which is why scripts/check.sh's role and tenant
// deletion guards skip it.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"sstar"
	"sstar/internal/wire"
)

// withFields returns t's struct shape with the fields in retype given other
// types and extra appended: a wire type as a peer built before extra was
// removed encodes it.
func withFields(t reflect.Type, retype map[string]reflect.Type, extra ...reflect.StructField) reflect.Type {
	fs := make([]reflect.StructField, 0, t.NumField()+len(extra))
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if r, ok := retype[f.Name]; ok {
			f.Type = r
		}
		fs = append(fs, f)
	}
	return reflect.StructOf(append(fs, extra...))
}

// TestOldPeerResponseDecodes: a Response and its ManifestEntry list as a peer
// that still stores handle roles and tenants encodes them — Response.Replica,
// ManifestEntry.Replica, ServerStats.{ReplicaHandles,Promotions,Demotions}
// and the ServerStats.Tenants map set — decode into today's types without
// error and with every kept field intact: the mixed-fleet contract of the
// additive wire.
func TestOldPeerResponseDecodes(t *testing.T) {
	want := Response{
		Err: "not owner", Code: CodeNotOwner, Handle: 7, N: 16, Nnz: 64,
		X:     []float64{1.5, -2, 0.25},
		Stats: RequestStats{QueueNs: 3, AnalyzeNs: 4, FactorNs: 5, SolveNs: 6, FactorWorkers: 2},
		Addr:  "127.0.0.1:7071", Key: 0xfeed, Epoch: 9,
		Members:  []string{"127.0.0.1:7071", "127.0.0.1:7072"},
		Manifest: []ManifestEntry{{Handle: 7, Key: 0xfeed, ValEpoch: 3}, {Handle: 8, Key: 0xbeef, ValEpoch: 1}},
		ValEpoch: 3,
	}
	st := reflect.ValueOf(&want.Server).Elem()
	for i := 0; i < st.NumField(); i++ {
		switch f := st.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(100 + i))
		case reflect.Uint64:
			f.SetUint(uint64(100 + i))
		}
	}

	oldTenantStats := reflect.StructOf([]reflect.StructField{
		{Name: "Requests", Type: reflect.TypeOf(int64(0))},
		{Name: "Sheds", Type: reflect.TypeOf(int64(0))},
		{Name: "Queued", Type: reflect.TypeOf(0)},
	})
	oldEntry := withFields(reflect.TypeOf(ManifestEntry{}), nil,
		reflect.StructField{Name: "Replica", Type: reflect.TypeOf(true)})
	oldStats := withFields(reflect.TypeOf(ServerStats{}), nil,
		reflect.StructField{Name: "ReplicaHandles", Type: reflect.TypeOf(0)},
		reflect.StructField{Name: "Promotions", Type: reflect.TypeOf(int64(0))},
		reflect.StructField{Name: "Demotions", Type: reflect.TypeOf(int64(0))},
		reflect.StructField{Name: "Tenants", Type: reflect.MapOf(reflect.TypeOf(""), oldTenantStats)})
	oldResp := withFields(reflect.TypeOf(Response{}),
		map[string]reflect.Type{"Server": oldStats, "Manifest": reflect.SliceOf(oldEntry)},
		reflect.StructField{Name: "Replica", Type: reflect.TypeOf("")})

	// Carry every kept field over to the old shape by name, then set the
	// removed ones the way the old peer did.
	var buf bytes.Buffer
	if err := wire.WriteGob(&buf, FrameResponse, &want); err != nil {
		t.Fatal(err)
	}
	old := reflect.New(oldResp)
	if err := wire.ReadGob(&buf, FrameResponse, 1<<20, old.Interface()); err != nil {
		t.Fatal(err)
	}
	o := old.Elem()
	o.FieldByName("Replica").SetString("127.0.0.1:7073")
	ost := o.FieldByName("Server")
	ost.FieldByName("ReplicaHandles").SetInt(1)
	ost.FieldByName("Promotions").SetInt(2)
	ost.FieldByName("Demotions").SetInt(3)
	tenants := reflect.MakeMap(reflect.MapOf(reflect.TypeOf(""), oldTenantStats))
	ts := reflect.New(oldTenantStats).Elem()
	ts.FieldByName("Requests").SetInt(4)
	ts.FieldByName("Sheds").SetInt(1)
	ts.FieldByName("Queued").SetInt(2)
	tenants.SetMapIndex(reflect.ValueOf("default"), ts)
	ost.FieldByName("Tenants").Set(tenants)
	om := o.FieldByName("Manifest")
	for i := 0; i < om.Len(); i++ {
		om.Index(i).FieldByName("Replica").SetBool(i%2 == 0)
	}

	buf.Reset()
	if err := wire.WriteGob(&buf, FrameResponse, old.Interface()); err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := wire.ReadGob(&buf, FrameResponse, 1<<20, &got); err != nil {
		t.Fatalf("old-peer response failed to decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old-peer response decoded as\n%+v\nwant\n%+v", got, want)
	}
}

// TestOldPeerRequestDefaultTenant: requests as a client that still stamps a
// tenant encodes them — Request.Tenant set, to the old default tenant name
// and to another — decode into today's Request with every kept field intact
// and are served.
func TestOldPeerRequestDefaultTenant(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(8, 8, false, sstar.GenOptions{Seed: 2, Convection: 0.2})
	fr := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if fr.Err != "" {
		t.Fatal(fr.Err)
	}
	b := testRHS(a.N, 1)[0]

	oldReq := withFields(reflect.TypeOf(Request{}), nil,
		reflect.StructField{Name: "Tenant", Type: reflect.TypeOf("")})
	for i, want := range []Request{
		{Op: OpPing},
		{Op: OpSolve, Handle: fr.Handle, B: b, TimeoutNs: int64(time.Minute)},
	} {
		var buf bytes.Buffer
		if err := wire.WriteGob(&buf, FrameRequest, &want); err != nil {
			t.Fatal(err)
		}
		old := reflect.New(oldReq)
		if err := wire.ReadGob(&buf, FrameRequest, 1<<20, old.Interface()); err != nil {
			t.Fatal(err)
		}
		old.Elem().FieldByName("Tenant").SetString([]string{"default", "batch"}[i])

		buf.Reset()
		if err := wire.WriteGob(&buf, FrameRequest, old.Interface()); err != nil {
			t.Fatal(err)
		}
		var got Request
		if err := wire.ReadGob(&buf, FrameRequest, 1<<20, &got); err != nil {
			t.Fatalf("old-peer request failed to decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("old-peer request decoded as\n%+v\nwant\n%+v", got, want)
		}
		if resp := s.submit(&got); resp.Err != "" {
			t.Fatalf("old-peer %s refused: %s", got.Op, resp.Err)
		}
	}
}

// TestOldPeerReplication: the pushes of a shard that predates analysis-bearing
// handle pushes. Its separate analysis push is acknowledged, so it neither
// retries nor logs, and its blob is ignored. Its OpReplicate carries no
// options: the handle is installed, and — its key computed under options
// other than the zero value — no cache entry is filed. (A handle analyzed
// under the default options, which are the zero value, gets its entry: the
// key proves the pushed structure is the one those options make.)
func TestOldPeerReplication(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, FactorWorkers: 1})
	if r := s.submit(&Request{Op: OpReplicateAnalysis, Key: 7, Blob: []byte("an analysis in the retired format")}); r.Err != "" {
		t.Fatalf("retired analysis push refused: %s", r.Err)
	}
	a := sstar.GenGrid2D(9, 7, false, sstar.GenOptions{Seed: 77})
	req := replicatePush(t, 1, a, sstar.PaperOptions())
	req.Opts = sstar.Options{}
	if r := s.submit(req); r.Err != "" {
		t.Fatalf("optionless replicate refused: %s", r.Err)
	}
	if !s.HasHandle(req.Handle) {
		t.Fatal("optionless replicate was not installed")
	}
	if st := s.Stats(); st.CacheEntries != 0 || st.Errors != 0 {
		t.Fatalf("cache entries %d, errors %d after the old peer's pushes; want 0 and 0", st.CacheEntries, st.Errors)
	}
}
