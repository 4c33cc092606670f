package server_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/storage"
	"bips/internal/wire"
)

// newDurableServer builds a server over the durable storage backend.
func newDurableServer(t *testing.T, dir string) (*server.Server, *storage.Durable) {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, u := range []string{"alice", "bob"} {
		if err := reg.Register(registry.UserID(u), u, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	st, err := storage.Open(storage.Options{
		Dir: dir, Shards: 4, HistoryLimit: 32, SnapshotInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(reg, st, bld)
	s.Logf = t.Logf
	return s, st
}

// walkBob logs both users in and walks bob through a few rooms so the
// history surface has something to answer.
func walkBob(t *testing.T, s *server.Server) {
	t.Helper()
	for u, dev := range map[string]string{"alice": devA.String(), "bob": devB.String()} {
		if err := s.Login(wire.Login{User: u, Password: pw, Device: dev}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ReportDelta(wire.Presence{Device: devA.String(), Room: 1, At: 50, Present: true}); err != nil {
		t.Fatal(err)
	}
	for i, room := range []graph.NodeID{2, 4, 6, 3} {
		err := s.ReportDelta(wire.Presence{
			Device: devB.String(), Room: room, At: sim.Tick(100 * (i + 1)), Present: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestHistoryQueriesOverWireMatchInProcess: the MsgLocateAt and
// MsgTrajectory answers served over wire v2 must byte-match the
// marshalled in-process LocateAt/Trajectory results — the serving layer
// adds transport, never data.
func TestHistoryQueriesOverWireMatchInProcess(t *testing.T) {
	s, st := newDurableServer(t, t.TempDir())
	defer st.Close()
	walkBob(t, s)

	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	client := wire.NewClient(wire.NewFrameCodec(conn))

	for _, at := range []sim.Tick{100, 150, 250, 400, 9999} {
		req := wire.LocateAt{Querier: "alice", Target: "bob", At: at}
		inProc, err := s.LocateAt(req)
		if err != nil {
			t.Fatalf("in-process LocateAt(%d): %v", at, err)
		}
		var overWire wire.LocateResult
		if err := client.Call(wire.MsgLocateAt, req, &overWire); err != nil {
			t.Fatalf("wire LocateAt(%d): %v", at, err)
		}
		wireRaw, _ := json.Marshal(overWire)
		procRaw, _ := json.Marshal(inProc)
		if string(wireRaw) != string(procRaw) {
			t.Fatalf("LocateAt(%d): wire %s != in-process %s", at, wireRaw, procRaw)
		}
	}

	windows := [][2]sim.Tick{{0, 1000}, {150, 350}, {401, 9999}, {0, 50}}
	for _, w := range windows {
		req := wire.TrajectoryQuery{Querier: "alice", Target: "bob", From: w[0], To: w[1]}
		inProc, err := s.Trajectory(req)
		if err != nil {
			t.Fatalf("in-process Trajectory(%v): %v", w, err)
		}
		var overWire wire.TrajectoryResult
		if err := client.Call(wire.MsgTrajectory, req, &overWire); err != nil {
			t.Fatalf("wire Trajectory(%v): %v", w, err)
		}
		wireRaw, _ := json.Marshal(overWire)
		procRaw, _ := json.Marshal(inProc)
		if string(wireRaw) != string(procRaw) {
			t.Fatalf("Trajectory(%v): wire %s != in-process %s", w, wireRaw, procRaw)
		}
	}

	// A query before any recorded history is a not-found error over the
	// wire, exactly like in-process.
	err := client.Call(wire.MsgLocateAt, wire.LocateAt{Querier: "alice", Target: "bob", At: 10}, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeNotFound {
		t.Fatalf("LocateAt before history = %v, want not-found", err)
	}
	client.Close()
}

// TestHistoryAccessChecks: the history queries enforce the same rights
// as Locate.
func TestHistoryAccessChecks(t *testing.T) {
	s, st := newDurableServer(t, t.TempDir())
	defer st.Close()
	walkBob(t, s)

	// Unknown querier.
	if _, err := s.LocateAt(wire.LocateAt{Querier: "mallory", Target: "bob", At: 100}); err == nil {
		t.Fatal("LocateAt with unknown querier succeeded")
	}
	if _, err := s.Trajectory(wire.TrajectoryQuery{Querier: "mallory", Target: "bob", From: 0, To: 100}); err == nil {
		t.Fatal("Trajectory with unknown querier succeeded")
	}
	// Logged-out target: logout drops history, so the queries fail like
	// Locate does.
	if err := s.Logout(wire.Logout{User: "bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LocateAt(wire.LocateAt{Querier: "alice", Target: "bob", At: 100}); err == nil {
		t.Fatal("LocateAt on logged-out target succeeded")
	}
}

// TestServerRestartServesIdenticalHistory: a server torn down cleanly
// and rebuilt on the same data directory answers the full history
// surface identically — the serving layer is restartable.
func TestServerRestartServesIdenticalHistory(t *testing.T) {
	dir := t.TempDir()
	s1, st1 := newDurableServer(t, dir)
	walkBob(t, s1)

	type answers struct {
		loc  wire.LocateResult
		at   []wire.LocateResult
		traj wire.TrajectoryResult
	}
	capture := func(s *server.Server) answers {
		var a answers
		var err error
		if a.loc, err = s.Locate(wire.Locate{Querier: "alice", Target: "bob"}); err != nil {
			t.Fatal(err)
		}
		for _, at := range []sim.Tick{100, 250, 400} {
			r, err := s.LocateAt(wire.LocateAt{Querier: "alice", Target: "bob", At: at})
			if err != nil {
				t.Fatal(err)
			}
			a.at = append(a.at, r)
		}
		if a.traj, err = s.Trajectory(wire.TrajectoryQuery{Querier: "alice", Target: "bob", From: 0, To: 9999}); err != nil {
			t.Fatal(err)
		}
		return a
	}
	want := capture(s1)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh server process: new registry state (users log in again),
	// recovered location store.
	s2, st2 := newDurableServer(t, dir)
	defer st2.Close()
	for u, dev := range map[string]string{"alice": devA.String(), "bob": devB.String()} {
		if err := s2.Login(wire.Login{User: u, Password: pw, Device: dev}); err != nil {
			t.Fatal(err)
		}
	}
	got := capture(s2)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restarted server answers differ:\n want %+v\n  got %+v", want, got)
	}

	// The stats surface reports the recovery.
	res := s2.StatsResult()
	if res.Counters["storage.restored_devices"] == 0 && res.Counters["storage.replayed_records"] == 0 {
		t.Fatalf("stats report no recovery: %v", res.Counters)
	}
}
