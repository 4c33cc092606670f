package server_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"bips/internal/graph"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/wire"
)

// crossPaths extends walkBob's movement so alice and bob actually share
// a room: alice joins bob in room 4 at tick 250 (bob is there over
// [200, 300)).
func crossPaths(t *testing.T, s *server.Server) {
	t.Helper()
	walkBob(t, s)
	if err := s.ReportDelta(wire.Presence{Device: devA.String(), Room: 4, At: 250, Present: true}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticsQueriesOverWireMatchInProcess: the MsgContacts,
// MsgOccupancy and MsgDwell answers served over wire v2 must byte-match
// the marshalled in-process results — the serving layer adds transport,
// never data.
func TestAnalyticsQueriesOverWireMatchInProcess(t *testing.T) {
	s, st := newDurableServer(t, t.TempDir())
	defer st.Close()
	crossPaths(t, s)

	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	client := wire.NewClient(wire.NewFrameCodec(conn))
	defer client.Close()

	creq := wire.ContactsQuery{Querier: "alice", Target: "bob", From: 0, To: 500}
	inC, err := s.Contacts(creq)
	if err != nil {
		t.Fatalf("in-process Contacts: %v", err)
	}
	if len(inC.Contacts) != 1 || inC.Contacts[0].User != "alice" || inC.Contacts[0].Overlap != 50 {
		t.Fatalf("contacts fixture = %+v, want alice with overlap 50", inC.Contacts)
	}
	var overC wire.ContactsResult
	if err := client.Call(wire.MsgContacts, creq, &overC); err != nil {
		t.Fatalf("wire Contacts: %v", err)
	}
	wireRaw, _ := json.Marshal(overC)
	procRaw, _ := json.Marshal(inC)
	if string(wireRaw) != string(procRaw) {
		t.Fatalf("Contacts: wire %s != in-process %s", wireRaw, procRaw)
	}

	oreq := wire.OccupancyQuery{Querier: "alice", Rooms: []graph.NodeID{2, 4}, From: 0, To: 500, Bucket: 100}
	inO, err := s.Occupancy(oreq)
	if err != nil {
		t.Fatalf("in-process Occupancy: %v", err)
	}
	if len(inO.Buckets) != 5 {
		t.Fatalf("occupancy fixture = %+v, want 5 buckets", inO.Buckets)
	}
	var overO wire.OccupancyResult
	if err := client.Call(wire.MsgOccupancy, oreq, &overO); err != nil {
		t.Fatalf("wire Occupancy: %v", err)
	}
	wireRaw, _ = json.Marshal(overO)
	procRaw, _ = json.Marshal(inO)
	if string(wireRaw) != string(procRaw) {
		t.Fatalf("Occupancy: wire %s != in-process %s", wireRaw, procRaw)
	}

	for name, dreq := range map[string]wire.DwellQuery{
		"room":   {Querier: "alice", Kind: wire.DwellRoom, Room: 4, From: 0, To: 500},
		"device": {Querier: "alice", Kind: wire.DwellDevice, Target: "bob", From: 0, To: 500},
	} {
		inD, err := s.Dwell(dreq)
		if err != nil {
			t.Fatalf("in-process Dwell(%s): %v", name, err)
		}
		if inD.Samples == 0 {
			t.Fatalf("dwell %s fixture has no samples", name)
		}
		var overD wire.DwellResult
		if err := client.Call(wire.MsgDwell, dreq, &overD); err != nil {
			t.Fatalf("wire Dwell(%s): %v", name, err)
		}
		wireRaw, _ = json.Marshal(overD)
		procRaw, _ = json.Marshal(inD)
		if string(wireRaw) != string(procRaw) {
			t.Fatalf("Dwell(%s): wire %s != in-process %s", name, wireRaw, procRaw)
		}
	}
}

// TestAnalyticsAdversarial: every malformed or unauthorized analytics
// request is answered with the right MsgError code and the connection
// stays usable afterwards.
func TestAnalyticsAdversarial(t *testing.T) {
	s, st := newDurableServer(t, t.TempDir())
	defer st.Close()
	if err := s.Registry().Register("snoop", "snoop", pw); err != nil {
		t.Fatal(err)
	}
	crossPaths(t, s)
	if err := s.Login(wire.Login{User: "snoop", Password: pw, Device: "00:00:00:00:00:C3"}); err != nil {
		t.Fatal(err)
	}

	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	client := wire.NewClient(wire.NewFrameCodec(conn))
	defer client.Close()

	cases := []struct {
		name string
		typ  wire.MsgType
		req  any
		code string
	}{
		{"contacts inverted window", wire.MsgContacts,
			wire.ContactsQuery{Querier: "alice", Target: "bob", From: 100, To: 50}, wire.CodeBadRequest},
		{"contacts negative minOverlap", wire.MsgContacts,
			wire.ContactsQuery{Querier: "alice", Target: "bob", From: 0, To: 100, MinOverlap: -1}, wire.CodeBadRequest},
		{"contacts without target", wire.MsgContacts,
			wire.ContactsQuery{Querier: "alice", From: 0, To: 100}, wire.CodeBadRequest},
		{"contacts unknown querier", wire.MsgContacts,
			wire.ContactsQuery{Querier: "ghost", Target: "bob", From: 0, To: 100}, wire.CodeNotFound},
		{"contacts querier without right", wire.MsgContacts,
			wire.ContactsQuery{Querier: "snoop", Target: "bob", From: 0, To: 100}, wire.CodeDenied},
		{"occupancy without rooms", wire.MsgOccupancy,
			wire.OccupancyQuery{Querier: "alice", From: 0, To: 100, Bucket: 10}, wire.CodeBadRequest},
		{"occupancy zero bucket", wire.MsgOccupancy,
			wire.OccupancyQuery{Querier: "alice", Rooms: []graph.NodeID{4}, From: 0, To: 100}, wire.CodeBadRequest},
		{"occupancy series too long", wire.MsgOccupancy,
			wire.OccupancyQuery{Querier: "alice", Rooms: []graph.NodeID{4}, From: 0,
				To: sim.Tick(wire.MaxOccupancyBuckets) + 1, Bucket: 1}, wire.CodeBadRequest},
		{"occupancy unknown room", wire.MsgOccupancy,
			wire.OccupancyQuery{Querier: "alice", Rooms: []graph.NodeID{4, 999}, From: 0, To: 100, Bucket: 10}, wire.CodeNotFound},
		{"occupancy querier without right", wire.MsgOccupancy,
			wire.OccupancyQuery{Querier: "snoop", Rooms: []graph.NodeID{4}, From: 0, To: 100, Bucket: 10}, wire.CodeDenied},
		{"dwell unknown kind", wire.MsgDwell,
			wire.DwellQuery{Querier: "alice", Kind: "zone", Room: 4, From: 0, To: 100}, wire.CodeBadRequest},
		{"dwell device without target", wire.MsgDwell,
			wire.DwellQuery{Querier: "alice", Kind: wire.DwellDevice, From: 0, To: 100}, wire.CodeBadRequest},
		{"dwell unknown room", wire.MsgDwell,
			wire.DwellQuery{Querier: "alice", Kind: wire.DwellRoom, Room: 999, From: 0, To: 100}, wire.CodeNotFound},
		{"dwell offline target", wire.MsgDwell,
			wire.DwellQuery{Querier: "alice", Kind: wire.DwellDevice, Target: "ghost", From: 0, To: 100}, wire.CodeNotFound},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := client.Call(tt.typ, tt.req, nil)
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("error = %v, want wire.Error", err)
			}
			if werr.Code != tt.code {
				t.Errorf("code = %q, want %q", werr.Code, tt.code)
			}
		})
	}

	// The connection survived all of it: a valid query still answers.
	var res wire.ContactsResult
	if err := client.Call(wire.MsgContacts, wire.ContactsQuery{
		Querier: "alice", Target: "bob", From: 0, To: 500,
	}, &res); err != nil {
		t.Fatalf("valid contacts after adversarial input: %v", err)
	}
	if len(res.Contacts) != 1 {
		t.Fatalf("contacts after adversarial input = %+v", res.Contacts)
	}
}

// TestServerRestartServesIdenticalAnalytics: a server torn down cleanly
// and rebuilt on the same data directory answers the analytics surface
// identically — the engine reseeds from the restored location store.
func TestServerRestartServesIdenticalAnalytics(t *testing.T) {
	dir := t.TempDir()
	s1, st1 := newDurableServer(t, dir)
	crossPaths(t, s1)

	type answers struct {
		contacts wire.ContactsResult
		occ      wire.OccupancyResult
		dwellR   wire.DwellResult
		dwellD   wire.DwellResult
	}
	capture := func(s *server.Server) answers {
		var a answers
		var err error
		if a.contacts, err = s.Contacts(wire.ContactsQuery{Querier: "alice", Target: "bob", From: 0, To: 500}); err != nil {
			t.Fatal(err)
		}
		if a.occ, err = s.Occupancy(wire.OccupancyQuery{
			Querier: "alice", Rooms: []graph.NodeID{2, 4, 6}, From: 0, To: 500, Bucket: 50,
		}); err != nil {
			t.Fatal(err)
		}
		if a.dwellR, err = s.Dwell(wire.DwellQuery{Querier: "alice", Kind: wire.DwellRoom, Room: 4, From: 0, To: 500}); err != nil {
			t.Fatal(err)
		}
		if a.dwellD, err = s.Dwell(wire.DwellQuery{
			Querier: "alice", Kind: wire.DwellDevice, Target: "bob", From: 0, To: 500,
		}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := capture(s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2 := newDurableServer(t, dir)
	defer st2.Close()
	for u, dev := range map[string]string{"alice": devA.String(), "bob": devB.String()} {
		if err := s2.Login(wire.Login{User: u, Password: pw, Device: dev}); err != nil {
			t.Fatal(err)
		}
	}
	got := capture(s2)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restarted server analytics differ:\n want %+v\n  got %+v", want, got)
	}
}

// TestAnalyticsStats: the engine's counters surface through MsgStats
// under the analytics prefix, and analytics requests are counted like
// any other request type.
func TestAnalyticsStats(t *testing.T) {
	s, st := newDurableServer(t, t.TempDir())
	defer st.Close()
	crossPaths(t, s)
	if _, err := s.Contacts(wire.ContactsQuery{Querier: "alice", Target: "bob", From: 0, To: 500}); err != nil {
		t.Fatal(err)
	}
	res := s.StatsResult()
	if res.Counters["analytics.events"] == 0 {
		t.Fatalf("analytics.events = 0, counters %v", res.Counters)
	}
	if res.Counters["analytics.queries_contacts"] != 1 {
		t.Fatalf("analytics.queries_contacts = %d, want 1", res.Counters["analytics.queries_contacts"])
	}
	if res.Counters["analytics.hot_runs"] == 0 {
		t.Fatal("analytics.hot_runs = 0 after movement")
	}

	// Logout drops bob's hot tier, exactly like histdb.
	if err := s.Logout(wire.Logout{User: "bob"}); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsResult().Counters["analytics.hot_devices"]; got != 1 {
		t.Fatalf("analytics.hot_devices after logout = %d, want 1 (alice)", got)
	}
}
