package server_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"bips/internal/graph"
	"bips/internal/wire"
)

// TestBatchMatchesStandalone is the differential test for the batch
// body, which dispatch appends response by response instead of
// marshaling a wire.BatchResult: on two identically built servers the
// same request sequence is sent once envelope by envelope and once as a
// single batch, and each inner response of batch.result must be
// byte-identical to the response the envelope got on its own. The three
// requests a batch rejects although a connection accepts them
// (subscription management, nesting) must come back as inner
// bad-request errors instead. The body must also be exactly what
// encoding/json makes of the decoded wire.BatchResult.
func TestBatchMatchesStandalone(t *testing.T) {
	addrA, addrB := wire.FormatAddr(devA), wire.FormatAddr(devB)
	cases := []struct {
		name      string
		t         wire.MsgType
		body      any
		batchOnly bool // rejected because it is inside a batch
	}{
		{"hello", wire.MsgHello, wire.Hello{Station: "ws-1", Room: 1}, false},
		{"login alice", wire.MsgLogin, wire.Login{User: "alice", Password: pw, Device: addrA}, false},
		{"login bob", wire.MsgLogin, wire.Login{User: "bob", Password: pw, Device: addrB}, false},
		{"presence alice", wire.MsgPresence, wire.Presence{Device: addrA, Room: 1, At: 5, Present: true}, false},
		{"presence bob", wire.MsgPresence, wire.Presence{Device: addrB, Room: 5, At: 6, Present: true}, false},
		{"locate", wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}, false},
		{"locate.at", wire.MsgLocateAt, wire.LocateAt{Querier: "alice", Target: "bob", At: 6}, false},
		{"ingest.hello", wire.MsgIngestHello, wire.IngestHello{Session: "st", Station: "ws-1", Room: 6}, false},
		{"presence.batch", wire.MsgPresenceBatch, wire.PresenceBatch{Session: "st", Seq: 1, Deltas: []wire.Presence{
			{Device: addrB, Room: 5, At: 9, Present: false},
			{Device: addrB, Room: 6, At: 9, Present: true},
			{Device: "not-an-address", Room: 6, At: 9, Present: true},
		}}, false},
		{"trajectory", wire.MsgTrajectory, wire.TrajectoryQuery{Querier: "alice", Target: "bob", From: 0, To: 20}, false},
		{"path", wire.MsgPath, wire.PathQuery{Querier: "alice", Target: "bob"}, false},
		{"rooms", wire.MsgRooms, wire.RoomsQuery{}, false},
		{"contacts", wire.MsgContacts, wire.ContactsQuery{Querier: "alice", Target: "bob", From: 0, To: 20}, false},
		{"occupancy", wire.MsgOccupancy, wire.OccupancyQuery{Querier: "alice", Rooms: []graph.NodeID{5, 6}, From: 0, To: 20, Bucket: 5}, false},
		{"dwell", wire.MsgDwell, wire.DwellQuery{Querier: "alice", Kind: wire.DwellRoom, Room: 5, From: 0, To: 20}, false},
		{"stats", wire.MsgStats, wire.StatsQuery{}, false},
		{"unknown user", wire.MsgLocate, wire.Locate{Querier: "alice", Target: "ghost<&>"}, false},
		{"malformed body", wire.MsgLocate, []int{1, 2}, false},
		{"malformed ingest frame", wire.MsgPresenceBatch, "not a frame", false},
		{"unknown type", wire.MsgType("bogus"), struct{}{}, false},
		{"subscribe", wire.MsgSubscribe, wire.Subscribe{ID: "s1", Querier: "alice",
			Filter: wire.SubFilter{Kind: wire.FilterRoom, Room: 5}}, true},
		{"unsubscribe", wire.MsgUnsubscribe, wire.Unsubscribe{ID: "s1"}, true},
		{"nested batch", wire.MsgBatch, wire.Batch{}, true},
		{"logout", wire.MsgLogout, wire.Logout{User: "bob"}, false},
		{"locate after logout", wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}, false},
	}

	// Inner correlation ids are private to the batch and must be echoed.
	var batch wire.Batch
	for i, tc := range cases {
		env, err := wire.MarshalBody(tc.t, uint64(100+i), tc.body)
		if err != nil {
			t.Fatal(err)
		}
		batch.Requests = append(batch.Requests, env)
	}

	// Neither server has a subscriber, so nothing is queued for the
	// delivery goroutine and the fanout.* counters MsgStats reports do
	// not depend on its timing.
	alone := newServer(t)
	batched := newServer(t)
	const emptyResult = `{"type":"batch.result","seq":1,"body":{"responses":[]}}`

	// The lone run sends the empty batch first and the batched run sends
	// it last, so both servers have counted one batch when stats executes.
	empty, err := wire.MarshalBody(wire.MsgBatch, 1, wire.Batch{})
	if err != nil {
		t.Fatal(err)
	}
	if got := alone.DispatchBytes(empty, nil); string(got) != emptyResult {
		t.Fatalf("empty batch = %s, want %s", got, emptyResult)
	}
	want := make([][]byte, len(cases))
	for i, req := range batch.Requests {
		want[i] = alone.DispatchBytes(req, nil)
	}

	outer, err := wire.MarshalBody(wire.MsgBatch, 7, batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeEnvelope(batched.DispatchBytes(outer, nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.MsgBatchResult || resp.Seq != 7 {
		t.Fatalf("batch answered %s seq %d, want %s seq 7", resp.Type, resp.Seq, wire.MsgBatchResult)
	}
	if got := batched.DispatchBytes(empty, nil); string(got) != emptyResult {
		t.Fatalf("empty batch = %s, want %s", got, emptyResult)
	}

	var raw struct {
		Responses []json.RawMessage `json:"responses"`
	}
	if err := json.Unmarshal(resp.Body, &raw); err != nil {
		t.Fatalf("batch.result body: %v\n%s", err, resp.Body)
	}
	if len(raw.Responses) != len(cases) {
		t.Fatalf("%d inner responses, want %d", len(raw.Responses), len(cases))
	}
	for i, tc := range cases {
		got := raw.Responses[i]
		if !tc.batchOnly {
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s: inner response differs from the standalone one\n batch %s\n alone %s", tc.name, got, want[i])
			}
			continue
		}
		inner, err := wire.DecodeEnvelope(got)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var werr wire.Error
		if err := wire.UnmarshalBody(inner, &werr); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if inner.Type != wire.MsgError || inner.Seq != uint64(100+i) || werr.Code != wire.CodeBadRequest {
			t.Errorf("%s inside a batch = %s, want bad-request error with seq %d", tc.name, got, 100+i)
		}
	}

	// The appended body is what marshaling the decoded result produces:
	// same keys, same order, no stray byte between the inner responses.
	var res wire.BatchResult
	if err := json.Unmarshal(resp.Body, &res); err != nil {
		t.Fatal(err)
	}
	remarshaled, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remarshaled, resp.Body) {
		t.Errorf("batch.result body is not the encoding/json form of wire.BatchResult\n got  %s\n want %s", resp.Body, remarshaled)
	}
}
