package ingest_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/ingest"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/wire"
)

const pw = "pw"

// startServerOn runs a real TCP server with n logged-in devices on the
// given listener.
func startServerOn(t *testing.T, devs int, l net.Listener) *server.Server {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	s := server.New(reg, locdb.New(), bld)
	s.Logf = nil
	for i := 0; i < devs; i++ {
		name := fmt.Sprintf("u%d", i)
		if err := reg.Register(registry.UserID(name), name, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
		if err := s.Login(wire.Login{User: name, Password: pw, Device: testDev(i).String()}); err != nil {
			t.Fatal(err)
		}
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s
}

// startServer runs a real TCP server with n logged-in devices.
func startServer(t *testing.T, devs int) (*server.Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, devs, l), l.Addr().String()
}

func testDev(i int) baseband.BDAddr {
	return baseband.BDAddr(0xC100_0000_0000 + uint64(i+1))
}

// testStream is a deterministic presence-delta stream over devs
// devices and the academic building's rooms.
func testStream(n, devs int) []wire.Presence {
	out := make([]wire.Presence, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, wire.Presence{
			Device:  testDev(i % devs).String(),
			Room:    graph.NodeID(1 + (i/devs)%7),
			At:      sim.Tick(i + 1),
			Present: i%13 != 0,
		})
	}
	return out
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func dbState(t *testing.T, s *server.Server, devs int) string {
	t.Helper()
	type state struct {
		All  []locdb.Fix
		Hist [][]locdb.Fix
	}
	st := state{All: s.DB().All()}
	for i := 0; i < devs; i++ {
		st.Hist = append(st.Hist, s.DB().Trajectory(testDev(i), 0, math.MaxInt64))
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func newTestClient(t *testing.T, addr, session string) *ingest.Client {
	t.Helper()
	c, err := ingest.NewClient(ingest.ClientConfig{
		Addr:       addr,
		Session:    session,
		Station:    "S",
		Room:       1,
		MaxBatch:   16,
		MinBackoff: 5 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// reportChunks reports stream through ReportBatch in calls of chunk
// deltas, counted from the start of the stream, until a call starts at
// or past upTo. Each call seals its own frames, so every run (and every
// life of a restarted station) with the same chunk cuts the same frames.
func reportChunks(t *testing.T, c *ingest.Client, stream []wire.Presence, chunk, upTo int, after func(end int)) {
	t.Helper()
	for i := 0; i < upTo; i += chunk {
		end := min(i+chunk, len(stream))
		if err := c.ReportBatch(stream[i:end]); err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after(end)
		}
	}
}

// TestClientStreamsAndDrains: the happy path end to end.
func TestClientStreamsAndDrains(t *testing.T) {
	const devs = 8
	s, addr := startServer(t, devs)
	c := newTestClient(t, addr, "happy")
	stream := testStream(400, devs)
	reportChunks(t, c, stream, 37, len(stream), nil)
	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DeltasAcked != 400 || st.UnackedFrames != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
	if got := s.DB().Stats().Updates; got == 0 {
		t.Fatal("no deltas reached the server")
	}
}

// TestClientSurvivesConnectionDrops is the TCP-drop chaos test of the
// acceptance criteria: the connection is severed repeatedly mid-stream;
// the client reconnects, resumes from the server's cumulative ack, and
// the final location database is byte-identical to an uninterrupted
// run — no lost deltas, no duplicates.
func TestClientSurvivesConnectionDrops(t *testing.T) {
	const devs = 8
	const n = 2000
	stream := testStream(n, devs)

	// Reference: uninterrupted run.
	refSrv, refAddr := startServer(t, devs)
	ref := newTestClient(t, refAddr, "station-1")
	reportChunks(t, ref, stream, 37, n, nil)
	if err := ref.Drain(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Chaos run: same stream, connection severed every few hundred
	// deltas. (Frame boundaries need not match the reference run — the
	// comparison is about which deltas were applied, in order.) Each
	// kill waits for some delivery first so the drop path is really
	// exercised, and pauses briefly so the sender is mid-stream when
	// the next deltas arrive.
	chaosSrv, chaosAddr := startServer(t, devs)
	chaos := newTestClient(t, chaosAddr, "station-1")
	const chunk = 37
	reportChunks(t, chaos, stream, chunk, n, func(end int) {
		if (end-chunk)/300 != end/300 {
			waitFor(t, 10*time.Second, func() bool { return chaos.Stats().DeltasAcked > 0 })
			chaos.KillConn()
			time.Sleep(10 * time.Millisecond)
		}
	})
	if err := chaos.Drain(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := chaos.Stats()
	if st.Reconnects == 0 {
		t.Error("chaos run never reconnected — the test did not exercise the drop path")
	}
	if st.DeltasAcked != n {
		t.Errorf("DeltasAcked = %d, want %d", st.DeltasAcked, n)
	}

	if got, want := dbState(t, chaosSrv, devs), dbState(t, refSrv, devs); got != want {
		t.Errorf("state after connection drops diverges from uninterrupted run\nchaos: %s\nref:   %s", got, want)
	}
	// The server saw retransmissions but applied nothing twice.
	if dup := chaosSrv.Ingest().Stats()["duplicate_frames"]; dup > 0 {
		t.Logf("server deduplicated %d replayed frames", dup)
	}
	refUpdates := refSrv.DB().Stats()
	chaosUpdates := chaosSrv.DB().Stats()
	if refUpdates.Updates != chaosUpdates.Updates || refUpdates.Absences != chaosUpdates.Absences {
		t.Errorf("activity counters diverge: chaos %+v, ref %+v", chaosUpdates, refUpdates)
	}
}

// TestClientResumesAcrossRestart models a SIGKILLed station: the first
// client dies (hard Close, unacked frames lost from its memory), a
// fresh client with the same session id deterministically regenerates
// the same stream from the start, and resume-by-cumulative-ack skips
// everything already applied — the result matches an uninterrupted run.
func TestClientResumesAcrossRestart(t *testing.T) {
	const devs = 6
	const n = 900
	const chunk = 29
	stream := testStream(n, devs)

	refSrv, refAddr := startServer(t, devs)
	ref := newTestClient(t, refAddr, "station-7")
	reportChunks(t, ref, stream, chunk, n, nil)
	if err := ref.Drain(15 * time.Second); err != nil {
		t.Fatal(err)
	}

	srv, addr := startServer(t, devs)
	// First life: stream part of the deltas. The cut points (frame full,
	// one ReportBatch call per chunk) must reproduce identically in the
	// second life for resume-by-sequence to be sound. The background
	// sender delivers what was cut; once the server has real progress,
	// the station "dies" with its unacked frames.
	first := newTestClient(t, addr, "station-7")
	reportChunks(t, first, stream, chunk, 600, nil)
	waitFor(t, 15*time.Second, func() bool {
		acked, _ := srv.Ingest().Acked("station-7")
		return acked > 0
	})
	first.Close() // SIGKILL: unacked frames are gone

	acked, ok := srv.Ingest().Acked("station-7")
	if !ok || acked == 0 {
		t.Fatalf("server session state missing after first life: acked=%d ok=%v", acked, ok)
	}

	// Second life: same seed -> same stream from the start, same chunk
	// boundaries -> same frames. The resume ack retires the regenerated
	// prefix without sending it.
	second := newTestClient(t, addr, "station-7")
	reportChunks(t, second, stream, chunk, n, nil)
	if err := second.Drain(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Resume engaged: the second life did not resend the frames the
	// first life already delivered (the reference run sent every frame).
	refFrames := ref.Stats().FramesSent
	if st := second.Stats(); st.FramesSent >= refFrames {
		t.Errorf("restarted client sent %d frames, reference sent %d — resume did not skip the acked prefix",
			st.FramesSent, refFrames)
	}

	if got, want := dbState(t, srv, devs), dbState(t, refSrv, devs); got != want {
		t.Errorf("state after restart+resume diverges from uninterrupted run\nrestart: %s\nref:     %s", got, want)
	}
}

// TestClientRebasesOnSessionLoss: the server process is replaced by a
// fresh one on the same address — its session table (memory-only) is
// gone while the client still holds a backlog. The client must detect
// the ack regression on re-hello, rebase its unacked frames onto the
// new server's position, and deliver them instead of wedging on a
// sequence gap.
func TestClientRebasesOnSessionLoss(t *testing.T) {
	const devs = 4
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	s1 := startServerOn(t, devs, l1)

	c := newTestClient(t, addr, "station-9")
	stream := testStream(200, devs)
	reportChunks(t, c, stream[:100], 100, 100, nil)
	if err := c.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if acked := c.Stats().Acked; acked == 0 {
		t.Fatal("no progress before session loss")
	}

	// Replace the server: the old one goes away (killing the client's
	// connection with it), a fresh one binds the same address.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	s2 := startServerOn(t, devs, l2)

	// Stream the rest; the client reconnects, sees acked=0 < its own
	// ack, rebases, and delivers the tail onto the fresh server.
	reportChunks(t, c, stream[100:], 100, 100, nil)
	if err := c.Drain(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s2.DB().Stats().Updates + s2.DB().Stats().Absences; got == 0 {
		t.Fatal("no deltas reached the replacement server")
	}
	if acked, ok := s2.Ingest().Acked("station-9"); !ok || acked == 0 {
		t.Fatalf("replacement server session acked = %d ok=%v", acked, ok)
	}
}
