package server_test

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/wire"
)

// ingestClient dials a v2 client on an in-memory pipe.
func ingestClient(t *testing.T, s *server.Server) *wire.Client {
	t.Helper()
	conn := servePipe(t, s)
	c := wire.NewClient(wire.NewFrameCodec(conn))
	t.Cleanup(func() { c.Close() })
	return c
}

func ingestFrame(session string, seq uint64, deltas ...wire.Presence) wire.PresenceBatch {
	return wire.PresenceBatch{Session: session, Seq: seq, Deltas: deltas}
}

func presenceAt(dev string, room graph.NodeID, at sim.Tick, present bool) wire.Presence {
	return wire.Presence{Device: dev, Room: room, At: at, Present: present}
}

// TestIngestSessionEndToEnd drives the full hello/batch/ack state
// machine over the wire, including a duplicate replay and a resume on a
// second connection.
func TestIngestSessionEndToEnd(t *testing.T) {
	s := newServer(t)
	if err := s.Login(wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devA)}); err != nil {
		t.Fatal(err)
	}
	c := ingestClient(t, s)

	var ack wire.IngestAck
	if err := c.Call(wire.MsgIngestHello, wire.IngestHello{Session: "st-1", Station: "S", Room: 1}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Acked != 0 {
		t.Fatalf("fresh session ack = %+v", ack)
	}

	f1 := ingestFrame("st-1", 1,
		presenceAt(wire.FormatAddr(devA), 1, 10, true),
		presenceAt(wire.FormatAddr(devA), 6, 20, true),
	)
	if err := c.Call(wire.MsgPresenceBatch, f1, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Acked != 1 || ack.Applied != 2 {
		t.Fatalf("frame 1 ack = %+v, want acked=1 applied=2", ack)
	}

	// Replay of frame 1 (a reconnect resend): acknowledged, unapplied.
	if err := c.Call(wire.MsgPresenceBatch, f1, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Duplicate || ack.Acked != 1 || ack.Applied != 0 {
		t.Fatalf("replayed frame ack = %+v, want duplicate acked=1", ack)
	}
	fix, err := s.DB().Locate(devA)
	if err != nil || fix.Piconet != 6 || fix.At != 20 {
		t.Fatalf("fix after replay = %+v err=%v, want room 6 at 20", fix, err)
	}

	// Resume on a fresh connection: hello reports acked=1.
	c2 := ingestClient(t, s)
	if err := c2.Call(wire.MsgIngestHello, wire.IngestHello{Session: "st-1", Station: "S", Room: 1}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Acked != 1 {
		t.Fatalf("resumed hello ack = %+v, want acked=1", ack)
	}
	if err := c2.Call(wire.MsgPresenceBatch, ingestFrame("st-1", 2,
		presenceAt(wire.FormatAddr(devA), 1, 30, true)), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Acked != 2 || ack.Applied != 1 {
		t.Fatalf("frame 2 ack = %+v", ack)
	}

	// The ingest counters surface in MsgStats.
	var stats wire.StatsResult
	if err := c2.Call(wire.MsgStats, wire.StatsQuery{}, &stats); err != nil {
		t.Fatal(err)
	}
	for counter, want := range map[string]int64{
		"ingest.sessions":         1,
		"ingest.frames":           3,
		"ingest.applied":          3,
		"ingest.duplicate_frames": 1,
		"ingest.resumes":          1,
	} {
		if got := stats.Counters[counter]; got != want {
			t.Errorf("%s = %d, want %d", counter, got, want)
		}
	}
}

// TestIngestAdversarial: every malformed or out-of-contract ingest
// request must be answered with a MsgError carrying the right code —
// and the connection must stay usable afterwards (never
// disconnect-without-reply).
func TestIngestAdversarial(t *testing.T) {
	s := newServer(t)
	c := ingestClient(t, s)

	var ack wire.IngestAck
	if err := c.Call(wire.MsgIngestHello, wire.IngestHello{Session: "st", Station: "S", Room: 1}, &ack); err != nil {
		t.Fatal(err)
	}

	wantErr := func(name string, t_ wire.MsgType, body any, code string) time.Duration {
		t.Helper()
		start := time.Now()
		err := c.Call(t_, body, nil)
		elapsed := time.Since(start)
		werr, ok := err.(*wire.Error)
		if !ok {
			t.Fatalf("%s: err = %v, want *wire.Error", name, err)
		}
		if werr.Code != code {
			t.Errorf("%s: code = %q, want %q", name, werr.Code, code)
		}
		// The connection survives: a rooms query still answers.
		if err := c.Call(wire.MsgRooms, wire.RoomsQuery{}, nil); err != nil {
			t.Fatalf("%s: connection unusable after error: %v", name, err)
		}
		return elapsed
	}

	wantErr("unknown session", wire.MsgPresenceBatch,
		ingestFrame("ghost", 1, presenceAt(wire.FormatAddr(devA), 1, 1, true)), wire.CodeNotFound)
	wantErr("empty batch", wire.MsgPresenceBatch,
		wire.PresenceBatch{Session: "st", Seq: 1}, wire.CodeBadRequest)
	wantErr("zero seq", wire.MsgPresenceBatch,
		ingestFrame("st", 0, presenceAt(wire.FormatAddr(devA), 1, 1, true)), wire.CodeBadRequest)
	wantErr("oversized batch", wire.MsgPresenceBatch,
		wire.PresenceBatch{Session: "st", Seq: 1, Deltas: make([]wire.Presence, wire.MaxBatchDeltas+1)},
		wire.CodeBadRequest)
	// A frame past acked+1 is a gap, answered at once: the connection's
	// frames apply in arrival order, so there is nothing to wait for.
	for name, seq := range map[string]uint64{"sequence far ahead": 70, "sequence gap": 3} {
		elapsed := wantErr(name, wire.MsgPresenceBatch,
			ingestFrame("st", seq, presenceAt(wire.FormatAddr(devA), 1, 1, true)), wire.CodeBadRequest)
		if elapsed > 200*time.Millisecond {
			t.Errorf("%s answered after %v, want at once", name, elapsed)
		}
	}
	wantErr("hello unknown room", wire.MsgIngestHello,
		wire.IngestHello{Session: "st", Station: "S", Room: 99999}, wire.CodeNotFound)
	wantErr("hello without session", wire.MsgIngestHello,
		wire.IngestHello{Station: "S", Room: 1}, wire.CodeBadRequest)

	// After all that abuse the session still works.
	if err := s.Login(wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devA)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(wire.MsgPresenceBatch,
		ingestFrame("st", 1, presenceAt(wire.FormatAddr(devA), 1, 1, true)), &ack); err != nil {
		t.Fatalf("valid frame after adversarial input: %v", err)
	}
	if ack.Acked != 1 || ack.Applied != 1 {
		t.Fatalf("ack = %+v", ack)
	}
}

// TestIngestRejectedDeltasDoNotWedge: a frame with a bad delta still
// advances the ack (the bad delta is counted, not retried forever).
func TestIngestRejectedDeltasDoNotWedge(t *testing.T) {
	s := newServer(t)
	if err := s.Login(wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devA)}); err != nil {
		t.Fatal(err)
	}
	c := ingestClient(t, s)
	var ack wire.IngestAck
	if err := c.Call(wire.MsgIngestHello, wire.IngestHello{Session: "st", Station: "S", Room: 1}, &ack); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(wire.MsgPresenceBatch, ingestFrame("st", 1,
		presenceAt(wire.FormatAddr(devA), 1, 1, true),
		presenceAt("not-an-address", 1, 2, true),
		presenceAt(wire.FormatAddr(devA), 99999, 3, true), // unknown room
	), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Acked != 1 || ack.Applied != 1 || ack.Rejected != 2 {
		t.Fatalf("ack = %+v, want acked=1 applied=1 rejected=2", ack)
	}
}

// TestIngestMatchesSingleDeltaPath: the batched pipeline must leave the
// location database byte-identical to applying the same deltas one at a
// time through ReportDelta.
func TestIngestMatchesSingleDeltaPath(t *testing.T) {
	deltas := make([]wire.Presence, 0, 200)
	for i := 0; i < 200; i++ {
		dev := devA
		if i%2 == 1 {
			dev = devB
		}
		room := graph.NodeID(1 + i%7)
		deltas = append(deltas, presenceAt(wire.FormatAddr(dev), room, sim.Tick(i+1), i%11 != 0))
	}

	dump := func(s *server.Server) string {
		t.Helper()
		type state struct {
			All  []locdb.Fix
			HidA []locdb.Fix
			HidB []locdb.Fix
		}
		db := s.DB()
		raw, err := json.Marshal(state{
			All:  db.All(),
			HidA: db.Trajectory(devA, 0, math.MaxInt64),
			HidB: db.Trajectory(devB, 0, math.MaxInt64),
		})
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	login := func(s *server.Server) {
		t.Helper()
		if err := s.Login(wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devA)}); err != nil {
			t.Fatal(err)
		}
		if err := s.Login(wire.Login{User: "bob", Password: pw, Device: wire.FormatAddr(devB)}); err != nil {
			t.Fatal(err)
		}
	}

	single := newServer(t)
	login(single)
	for _, p := range deltas {
		if err := single.ReportDelta(p); err != nil {
			t.Fatal(err)
		}
	}

	batched := newServer(t)
	login(batched)
	cb := ingestClient(t, batched)
	var ack wire.IngestAck
	if err := cb.Call(wire.MsgIngestHello, wire.IngestHello{Session: "st", Station: "S", Room: 1}, &ack); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	for i := 0; i < len(deltas); i += 32 {
		end := i + 32
		if end > len(deltas) {
			end = len(deltas)
		}
		seq++
		if err := cb.Call(wire.MsgPresenceBatch,
			wire.PresenceBatch{Session: "st", Seq: seq, Deltas: deltas[i:end]}, &ack); err != nil {
			t.Fatal(err)
		}
	}

	if got, want := dump(batched), dump(single); got != want {
		t.Errorf("batched ingest diverges from single-delta path\nbatched: %s\nsingle:  %s", got, want)
	}
}

// TestIngestPipelinedFrames: a station may pipeline frames on one
// connection. A burst of 64 frames leaves in one flush while the first
// frame's handler stalls, so every later frame's handler runs — and
// decodes — before the first has applied; the connection's turns still
// apply them in arrival order, so every frame is acknowledged as
// exactly its own sequence number and no gap is ever seen. A body that
// fails to decode sits mid-burst: it gets its error, and its turn does
// not stall or reorder the frames behind it.
func TestIngestPipelinedFrames(t *testing.T) {
	s := newServer(t)
	if err := s.Login(wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devA)}); err != nil {
		t.Fatal(err)
	}
	var stalled atomic.Bool
	s.SetBeforeHandle(func(mt wire.MsgType) {
		if mt == wire.MsgPresenceBatch && stalled.CompareAndSwap(false, true) {
			time.Sleep(50 * time.Millisecond)
		}
	})
	conn := servePipe(t, s)
	// A lost turn deadlocks the burst; the deadline turns that into a
	// failed read instead of a hung test.
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	codec := wire.NewFrameCodec(conn)
	hello := wire.AppendEnvelope(nil, wire.MsgIngestHello, 1, wire.IngestHello{Session: "st", Station: "S", Room: 1})
	if err := codec.SendPayload(hello); err != nil {
		t.Fatal(err)
	}
	if env, err := codec.Recv(); err != nil || env.Type != wire.MsgIngestAck {
		t.Fatalf("hello answer = %+v, %v", env, err)
	}

	const burst, bad = 64, 31
	wantAck := make(map[uint64]uint64, burst) // envelope seq -> frame seq
	frameSeq := uint64(0)
	for i := 0; i < burst; i++ {
		envSeq := uint64(100 + i)
		var payload []byte
		if i == bad {
			payload = wire.AppendEnvelopeRaw(nil, wire.Envelope{
				Type: wire.MsgPresenceBatch, Seq: envSeq, Body: json.RawMessage(`"not a frame"`),
			})
		} else {
			frameSeq++
			wantAck[envSeq] = frameSeq
			payload = wire.AppendEnvelope(nil, wire.MsgPresenceBatch, envSeq, ingestFrame("st", frameSeq,
				presenceAt(wire.FormatAddr(devA), graph.NodeID(1+frameSeq%7), sim.Tick(frameSeq), true)))
		}
		if err := codec.SendPayloadNoFlush(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := codec.Flush(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < burst; i++ {
		env, err := codec.Recv()
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, burst, err)
		}
		if env.Seq == 100+bad {
			var werr wire.Error
			if env.Type != wire.MsgError || wire.UnmarshalBody(env, &werr) != nil || werr.Code != wire.CodeBadRequest {
				t.Errorf("undecodable body answered %s %s, want a %s error", env.Type, env.Body, wire.CodeBadRequest)
			}
			continue
		}
		var ack wire.IngestAck
		if env.Type != wire.MsgIngestAck || wire.UnmarshalBody(env, &ack) != nil {
			t.Fatalf("frame with envelope seq %d answered %s %s", env.Seq, env.Type, env.Body)
		}
		if want, ok := wantAck[env.Seq]; !ok || ack.Acked != want || ack.Applied != 1 {
			t.Errorf("frame %d ack = %+v, want acked %d applied 1", want, ack, want)
		}
	}
	if acked, _ := s.Ingest().Acked("st"); acked != frameSeq {
		t.Fatalf("session acked = %d, want %d", acked, frameSeq)
	}
	if gaps := s.Ingest().Stats()["seq_gaps"]; gaps != 0 {
		t.Fatalf("ingest.seq_gaps = %d, want 0", gaps)
	}
}

// TestPresenceBatchFallbackStartsClean: a canonical frame reporting
// presence, then on the same connection a valid but non-canonical frame
// that omits "present" (false by JSON's rules). The second frame must
// apply absences. encoding/json decodes into a reused slice element
// without zeroing it, so a pooled batch not reset before the fallback
// would carry "present":true over from the first frame.
func TestPresenceBatchFallbackStartsClean(t *testing.T) {
	s := newServer(t)
	devs := map[string]baseband.BDAddr{"alice": devA, "bob": devB}
	for user, dev := range devs {
		if err := s.Login(wire.Login{User: user, Password: pw, Device: wire.FormatAddr(dev)}); err != nil {
			t.Fatal(err)
		}
	}
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	codec := wire.NewFrameCodec(conn)
	var buf []byte
	call := func(payload []byte) wire.IngestAck {
		t.Helper()
		if err := codec.SendPayload(payload); err != nil {
			t.Fatal(err)
		}
		env, b, err := codec.RecvBuf(buf)
		buf = b
		var ack wire.IngestAck
		if err != nil || env.Type != wire.MsgIngestAck || !ack.DecodeBody(env.Body) {
			t.Fatalf("answer %+v, %v", env, err)
		}
		return ack
	}
	hello := wire.IngestHello{Session: "st", Station: "S", Room: 1}
	call(wire.AppendEnvelope(nil, wire.MsgIngestHello, 1, &hello))

	a, b := wire.FormatAddr(devA), wire.FormatAddr(devB)
	for seq := uint64(1); seq < 32; seq += 2 {
		room, at := graph.NodeID(1+seq%6), sim.Tick(10*seq)
		present := ingestFrame("st", seq, presenceAt(a, room, at, true), presenceAt(b, room, at, true))
		if ack := call(wire.AppendEnvelope(nil, wire.MsgPresenceBatch, seq, &present)); ack.Applied != 2 {
			t.Fatalf("frame %d (presence) ack = %+v", seq, ack)
		}
		absent := fmt.Sprintf(`{"type":"presence.batch","seq":%d,"body":{"session":"st","seq":%d,"deltas":[`+
			`{"device":%q,"room":%d,"at":%d},{"device":%q,"room":%d,"at":%d}]}}`,
			seq+1, seq+1, a, room, at+1, b, room, at+1)
		if ack := call([]byte(absent)); ack.Acked != seq+1 || ack.Applied != 2 {
			t.Fatalf("frame %d (absence, non-canonical) ack = %+v, want 2 absences applied", seq+1, ack)
		}
		for _, dev := range devs {
			if fix, err := s.DB().Locate(dev); err == nil {
				t.Fatalf("after frame %d %v is still located at %+v", seq+1, dev, fix)
			}
		}
	}
}

// TestPresenceBatchNonCanonicalSameAck: a valid body in a form the
// canonical decoder refuses — whitespace, reordered keys, an escaped
// session — is decoded by the fallback and answered exactly like its
// canonical form.
func TestPresenceBatchNonCanonicalSameAck(t *testing.T) {
	a := wire.FormatAddr(devA)
	canonical := ingestFrame("st", 1, presenceAt(a, 6, 20, true), presenceAt(a, 4, 30, true)).AppendTo(nil)
	forms := map[string]string{
		"canonical": string(canonical),
		"spaces": fmt.Sprintf(`{ "session": "st", "seq": 1, "deltas": [ {"device": %q, "room": 6, "at": 20, "present": true},`+
			` {"device": %q, "room": 4, "at": 30, "present": true} ] }`, a, a),
		"reordered": fmt.Sprintf(`{"deltas":[{"present":true,"at":20,"room":6,"device":%q},`+
			`{"device":%q,"present":true,"room":4,"at":30}],"seq":1,"session":"st"}`, a, a),
		"escaped session": strings.Replace(string(canonical), `"session":"st"`, `"session":"s\u0074"`, 1),
	}
	answer := func(body string) (string, locdb.Fix) {
		s := newServer(t)
		if err := s.Login(wire.Login{User: "alice", Password: pw, Device: a}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest().Hello(wire.IngestHello{Session: "st", Station: "S", Room: 1}); err != nil {
			t.Fatal(err)
		}
		out := s.DispatchBytes(wire.Envelope{Type: wire.MsgPresenceBatch, Seq: 7, Body: json.RawMessage(body)}, nil)
		fix, err := s.DB().Locate(devA)
		if err != nil {
			t.Fatal(err)
		}
		return string(out), fix
	}
	want, wantFix := answer(forms["canonical"])
	if want != `{"type":"ingest.ack","seq":7,"body":{"acked":1,"applied":2}}` {
		t.Fatalf("canonical ack = %s", want)
	}
	for name, body := range forms {
		if got, fix := answer(body); got != want || fix != wantFix {
			t.Errorf("%s: ack %s, fix %+v; canonical: %s, %+v", name, got, fix, want, wantFix)
		}
	}
}
