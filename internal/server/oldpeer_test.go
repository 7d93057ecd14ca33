package server

// The retired handle-role fields on the wire. Handle roles are derived from
// the ring, not stored, so Response.Replica, ManifestEntry.Replica and three
// ServerStats counters are gone from the types; a peer built before that
// still sends them. This file spells their names to rebuild that peer's
// shape, which is why scripts/check.sh's role deletion guard skips it.

import (
	"bytes"
	"reflect"
	"testing"

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
// that still stores handle roles encodes them — Response.Replica,
// ManifestEntry.Replica and ServerStats.{ReplicaHandles,Promotions,
// Demotions} set — decode into today's types without error and with every
// kept field intact: the mixed-fleet contract of the additive wire.
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
	want.Server.Tenants = map[string]TenantStats{DefaultTenant: {Requests: 4, Sheds: 1, Queued: 2}}

	oldEntry := withFields(reflect.TypeOf(ManifestEntry{}), nil,
		reflect.StructField{Name: "Replica", Type: reflect.TypeOf(true)})
	oldStats := withFields(reflect.TypeOf(ServerStats{}), nil,
		reflect.StructField{Name: "ReplicaHandles", Type: reflect.TypeOf(0)},
		reflect.StructField{Name: "Promotions", Type: reflect.TypeOf(int64(0))},
		reflect.StructField{Name: "Demotions", Type: reflect.TypeOf(int64(0))})
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
