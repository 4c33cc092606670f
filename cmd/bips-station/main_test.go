package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
)

// childEnv carries the station arguments into the re-executed test
// binary: TestMain sees it and becomes bips-station.
const childEnv = "BIPS_STATION_CHILD"

func TestMain(m *testing.M) {
	if args := os.Getenv(childEnv); args != "" {
		if err := run(strings.Split(args, "\n")); err != nil {
			log.Fatal("bips-station child: ", err)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const (
	testRoom    = 1
	testDevices = 3
	pw          = "pw"
)

// stationDev mirrors the station's deterministic device addressing.
func stationDev(i int) baseband.BDAddr {
	return baseband.BDAddr(0xB000_0000_0000 + uint64(testRoom)<<16 + uint64(i+1))
}

// startServer runs an in-process central server on a real TCP listener
// with the station's users registered (the station logs them in itself
// via -login).
func startServer(t *testing.T) (*server.Server, string) {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for i := 0; i < testDevices; i++ {
		name := fmt.Sprintf("u%d", i)
		if err := reg.Register(registry.UserID(name), name, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(reg, locdb.New(), bld)
	s.Logf = nil
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Close() })
	return s, l.Addr().String()
}

// stationCmd re-executes the test binary as bips-station. The long
// simulated duration (hours of simulated time, roughly a second of wall
// time) leaves a window to SIGKILL the process mid-stream.
func stationCmd(t *testing.T, addr string) *exec.Cmd {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{
		"-server", addr,
		"-room", fmt.Sprint(testRoom),
		"-devices", fmt.Sprint(testDevices),
		"-duration", "4h",
		"-seed", "42",
		"-session", "chaos-station",
		"-batch", "8",
		"-batch-delay", "5s",
		"-login", "u0:" + pw + ",u1:" + pw + ",u2:" + pw,
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+strings.Join(args, "\n"))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	t.Cleanup(func() {
		if cmd.Process != nil && cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})
	return cmd
}

// dbState captures the server's location state for the station's
// devices as canonical JSON: current fixes plus full movement history.
func dbState(t *testing.T, s *server.Server) string {
	t.Helper()
	type state struct {
		All  []locdb.Fix
		Hist [][]locdb.Fix
	}
	st := state{All: s.DB().All()}
	for i := 0; i < testDevices; i++ {
		st.Hist = append(st.Hist, s.DB().Trajectory(stationDev(i), 0, math.MaxInt64))
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestStationKillAndResume is the chaos acceptance test: a live station
// is SIGKILLed mid-stream, restarted with the same seed and session,
// and the server's location database must end byte-identical to an
// uninterrupted run — no lost deltas, no duplicates. The restarted
// station regenerates its deterministic delta stream from the start;
// the ingest session's cumulative ack makes it skip everything the
// first life already delivered.
func TestStationKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos test")
	}

	// Reference: one uninterrupted run.
	refSrv, refAddr := startServer(t)
	ref := stationCmd(t, refAddr)
	if err := ref.Run(); err != nil {
		t.Fatalf("reference station run failed: %v", err)
	}
	refState := dbState(t, refSrv)
	if refState == `{"All":[],"Hist":[[],[],[]]}` {
		t.Fatal("reference run produced no tracked state; test is vacuous")
	}

	// Chaos: kill the station mid-stream...
	chaosSrv, chaosAddr := startServer(t)
	first := stationCmd(t, chaosAddr)
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	killedMidRun := first.ProcessState == nil
	if err := first.Process.Signal(syscall.SIGKILL); err != nil && killedMidRun {
		t.Fatalf("kill: %v", err)
	}
	_ = first.Wait()
	if !killedMidRun {
		t.Log("station finished before the kill on this machine; the restart still exercises full-stream dedup")
	}

	// ... and restart it with the same flags: same seed, same session.
	second := stationCmd(t, chaosAddr)
	if err := second.Run(); err != nil {
		t.Fatalf("restarted station failed: %v", err)
	}

	if got := dbState(t, chaosSrv); got != refState {
		t.Errorf("state after kill+resume diverges from uninterrupted run\nchaos: %s\nref:   %s", got, refState)
	}

	stats := chaosSrv.Ingest().Stats()
	t.Logf("chaos server ingest stats: %v", stats)
	if killedMidRun && stats["resumes"] == 0 {
		t.Error("server recorded no session resume after the kill")
	}
	// The reference counters must match too: same deltas applied, each
	// exactly once.
	refDB, chaosDB := refSrv.DB().Stats(), chaosSrv.DB().Stats()
	if refDB.Updates != chaosDB.Updates || refDB.Absences != chaosDB.Absences {
		t.Errorf("activity counters diverge: chaos %+v, ref %+v", chaosDB, refDB)
	}
}

// TestStationDeterministicSeed: two complete runs with the same seed
// against fresh servers must produce byte-identical location state —
// the property the resume protocol builds on, and the reason the
// -seed flag exists.
func TestStationDeterministicSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	var states []string
	for i := 0; i < 2; i++ {
		srv, addr := startServer(t)
		cmd := stationCmd(t, addr)
		if err := cmd.Run(); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		states = append(states, dbState(t, srv))
	}
	if states[0] != states[1] {
		t.Errorf("same seed produced different state:\nA: %s\nB: %s", states[0], states[1])
	}
}

// TestStationUnreachableServer: a station pointed at a dead address
// must exit non-zero with a clear message, quickly.
func TestStationUnreachableServer(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// A listener we close immediately: the port is (briefly) known-dead.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	args := []string{"-server", addr, "-timeout", "2s"}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("station exited zero against unreachable server; output:\n%s", out)
	}
	if !strings.Contains(string(out), "unreachable") {
		t.Errorf("error output lacks a clear unreachable-server message:\n%s", out)
	}
}
