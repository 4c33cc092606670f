package main

import (
	"encoding/json"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bips/internal/graph"
	"bips/internal/sim"
	"bips/internal/wire"
)

// childEnv carries the server arguments into the re-executed test
// binary: TestMain sees it and becomes bips-server.
const childEnv = "BIPS_SERVER_CHILD"

func TestMain(m *testing.M) {
	if args := os.Getenv(childEnv); args != "" {
		if err := run(strings.Split(args, "\n")); err != nil {
			log.Fatal("bips-server child: ", err)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnServer re-executes the test binary as a real bips-server process
// on the given data directory and waits until it is accepting. It
// returns the bound address and the process.
func spawnServer(t *testing.T, dataDir string) (string, *exec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := []string{
		"-listen", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-addr-file", addrFile,
		"-wal-flush", "2ms",
		"-snapshot-interval", "150ms",
		"-user", "alice:pw",
		"-user", "bob:pw",
		"-user", "churn:pw",
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+strings.Join(args, "\n"))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	deadline := time.Now().Add(15 * time.Second)
	for {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr := string(raw)
			if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				conn.Close()
				return addr, cmd
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not come up within 15s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func dialClient(t *testing.T, addr string) *wire.Client {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return wire.NewClient(wire.NewFrameCodec(conn))
}

const (
	devAlice = "B0:00:00:00:00:01"
	devBob   = "B0:00:00:00:00:02"
	devChurn = "B0:00:00:00:00:03"
)

// historyAnswers is the full query surface captured for comparison
// across the kill/restart, as marshalled JSON so the check is
// byte-exact.
type historyAnswers struct {
	Locate     json.RawMessage
	LocateAts  []json.RawMessage
	Trajectory json.RawMessage
}

func captureAnswers(t *testing.T, c *wire.Client) historyAnswers {
	t.Helper()
	var a historyAnswers
	var loc wire.LocateResult
	if err := c.Call(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}, &loc); err != nil {
		t.Fatalf("locate: %v", err)
	}
	a.Locate = mustJSON(t, loc)
	for _, at := range []sim.Tick{100, 250, 400, 9000} {
		var r wire.LocateResult
		if err := c.Call(wire.MsgLocateAt, wire.LocateAt{Querier: "alice", Target: "bob", At: at}, &r); err != nil {
			t.Fatalf("locate.at %d: %v", at, err)
		}
		a.LocateAts = append(a.LocateAts, mustJSON(t, r))
	}
	var traj wire.TrajectoryResult
	if err := c.Call(wire.MsgTrajectory, wire.TrajectoryQuery{
		Querier: "alice", Target: "bob", From: 0, To: 100000,
	}, &traj); err != nil {
		t.Fatalf("trajectory: %v", err)
	}
	a.Trajectory = mustJSON(t, traj)
	return a
}

func mustJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// report sends one presence delta the way a station does: an
// ingest.hello resumes the device's own session and returns its ack,
// then a one-delta presence.batch follows at the next frame sequence.
func report(c *wire.Client, p wire.Presence) error {
	session := "station-" + p.Device
	var ack wire.IngestAck
	if err := c.Call(wire.MsgIngestHello, wire.IngestHello{Session: session, Station: session, Room: 1}, &ack); err != nil {
		return err
	}
	return c.Call(wire.MsgPresenceBatch, wire.PresenceBatch{Session: session, Seq: ack.Acked + 1, Deltas: []wire.Presence{p}}, &ack)
}

func login(t *testing.T, c *wire.Client, user, dev string) {
	t.Helper()
	if err := c.Call(wire.MsgLogin, wire.Login{User: user, Password: "pw", Device: dev}, nil); err != nil {
		t.Fatalf("login %s: %v", user, err)
	}
}

// TestKillAndRestartRecoversState is the acceptance test for the
// storage engine at the process level: a real bips-server process with
// -data-dir is SIGKILLed mid-load and restarted, and the restarted
// process answers the entire presence + history query surface over wire
// v2 byte-identically for the state that had reached the WAL.
func TestKillAndRestartRecoversState(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dataDir := t.TempDir()
	addr, cmd := spawnServer(t, dataDir)
	client := dialClient(t, addr)

	// Settled load: bob walks four rooms; alice stays put.
	login(t, client, "alice", devAlice)
	login(t, client, "bob", devBob)
	login(t, client, "churn", devChurn)
	if err := report(client, wire.Presence{Device: devAlice, Room: 1, At: 50, Present: true}); err != nil {
		t.Fatal(err)
	}
	for i, room := range []graph.NodeID{2, 4, 6, 3} {
		if err := report(client, wire.Presence{
			Device: devBob, Room: room, At: sim.Tick(100 * (i + 1)), Present: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := captureAnswers(t, client)

	// Ongoing churn on a third device so the kill lands mid-load.
	churnStop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		churnClient := dialClient(t, addr)
		defer churnClient.Close()
		rooms := []graph.NodeID{1, 2, 3, 4, 5, 6}
		for i := 0; ; i++ {
			select {
			case <-churnStop:
				return
			default:
			}
			_ = report(churnClient, wire.Presence{
				Device: devChurn, Room: rooms[i%len(rooms)], At: sim.Tick(1000 + i), Present: true,
			})
		}
	}()

	// Let several WAL group commits (and likely a checkpoint) pass so
	// the settled state is durable, then kill without warning.
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	close(churnStop)
	<-churnDone
	_ = cmd.Wait()
	client.Close()

	// Restart on the same directory. The registry is not durable by
	// design (the paper's registration is an offline procedure), so the
	// users log in again; the location state must already be there.
	addr2, _ := spawnServer(t, dataDir)
	client2 := dialClient(t, addr2)
	defer client2.Close()
	login(t, client2, "alice", devAlice)
	login(t, client2, "bob", devBob)

	got := captureAnswers(t, client2)
	if string(got.Locate) != string(want.Locate) {
		t.Errorf("locate after restart:\n want %s\n  got %s", want.Locate, got.Locate)
	}
	for i := range want.LocateAts {
		if string(got.LocateAts[i]) != string(want.LocateAts[i]) {
			t.Errorf("locate.at[%d] after restart:\n want %s\n  got %s", i, want.LocateAts[i], got.LocateAts[i])
		}
	}
	if string(got.Trajectory) != string(want.Trajectory) {
		t.Errorf("trajectory after restart:\n want %s\n  got %s", want.Trajectory, got.Trajectory)
	}

	// The restarted server must also report that it recovered.
	var stats wire.StatsResult
	if err := client2.Call(wire.MsgStats, wire.StatsQuery{}, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters["storage.restored_devices"] == 0 && stats.Counters["storage.replayed_records"] == 0 {
		t.Errorf("restarted server reports no recovery: %v", stats.Counters)
	}
}

// TestCleanShutdownCheckpoint: SIGTERM drains and writes a final
// checkpoint, so the next start recovers from the snapshot alone.
func TestCleanShutdownCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dataDir := t.TempDir()
	addr, cmd := spawnServer(t, dataDir)
	client := dialClient(t, addr)
	login(t, client, "alice", devAlice)
	login(t, client, "bob", devBob)
	for i, room := range []graph.NodeID{5, 7, 9} {
		if err := report(client, wire.Presence{
			Device: devBob, Room: room, At: sim.Tick(10 * (i + 1)), Present: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("clean shutdown exited with %v", err)
	}

	addr2, _ := spawnServer(t, dataDir)
	client2 := dialClient(t, addr2)
	defer client2.Close()
	login(t, client2, "alice", devAlice)
	login(t, client2, "bob", devBob)
	var stats wire.StatsResult
	if err := client2.Call(wire.MsgStats, wire.StatsQuery{}, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Counters["storage.restored_devices"] == 0 {
		t.Errorf("no devices restored from the final checkpoint: %v", stats.Counters)
	}
	if stats.Counters["storage.replayed_records"] != 0 {
		t.Errorf("clean shutdown still left %d WAL records to replay", stats.Counters["storage.replayed_records"])
	}
	var traj wire.TrajectoryResult
	if err := client2.Call(wire.MsgTrajectory, wire.TrajectoryQuery{
		Querier: "alice", Target: "bob", From: 0, To: 1000,
	}, &traj); err != nil {
		t.Fatal(err)
	}
	if len(traj.Steps) != 3 {
		t.Errorf("recovered trajectory = %+v, want 3 steps", traj.Steps)
	}
}
