package main

import (
	"errors"
	"net"
	"testing"
	"time"

	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/sim"
	"bips/internal/wire"
)

// startServer runs a real central server on a loopback port, seeded
// with two users and a short movement history for bob.
func startServer(t *testing.T) string {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, u := range []string{"alice", "bob"} {
		if err := reg.Register(registry.UserID(u), u, "pw",
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	db := locdb.New()
	srv := server.New(reg, db, bld)
	srv.Logf = t.Logf
	if err := srv.Login(wire.Login{User: "alice", Password: "pw", Device: "B0:00:00:00:00:01"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Login(wire.Login{User: "bob", Password: "pw", Device: "B0:00:00:00:00:02"}); err != nil {
		t.Fatal(err)
	}
	// Alice sits in room 1; bob walks 2 -> 5 -> 3.
	muts := []locdb.Mutation{{Op: locdb.MutPresence, Dev: 0xB0_00_00_00_00_01, Piconet: 1, At: 10}}
	for i, room := range []graph.NodeID{2, 5, 3} {
		muts = append(muts, locdb.Mutation{
			Op: locdb.MutPresence, Dev: 0xB0_00_00_00_00_02, Piconet: room, At: sim.Tick(1000 * (i + 1)),
		})
	}
	db.ApplyBatch(muts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return l.Addr().String()
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

// TestSubcommandsSucceed: every query subcommand exits cleanly against
// a live server, with -timeout applied uniformly.
func TestSubcommandsSucceed(t *testing.T) {
	addr := startServer(t)
	cases := [][]string{
		{"-server", addr, "locate", "alice", "bob"},
		{"-server", addr, "at", "alice", "bob", "2000"},
		{"-server", addr, "at", "alice", "bob", "900ms"},
		{"-server", addr, "trajectory", "alice", "bob", "0", "10000"},
		{"-server", addr, "trajectory", "alice", "bob", "0s", "5s"},
		{"-server", addr, "path", "alice", "bob"},
		{"-server", addr, "rooms"},
		{"-server", addr, "-stats"},
		{"-server", addr, "-stats", "locate", "alice", "bob"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v) = %v, want success", args, err)
		}
	}
}

// TestSubscribeStreams: every subscribe filter shape registers against
// a live server and streams until -timeout expires, which is a clean
// exit (the deadline is the CLI's streaming window, not a failure).
func TestSubscribeStreams(t *testing.T) {
	addr := startServer(t)
	cases := [][]string{
		{"-server", addr, "-timeout", "300ms", "subscribe", "alice", "all"},
		{"-server", addr, "-timeout", "300ms", "subscribe", "alice", "device", "bob"},
		{"-server", addr, "-timeout", "300ms", "subscribe", "alice", "room", "5"},
		{"-server", addr, "-timeout", "300ms", "subscribe", "alice", "zone", "bob", "2,5,3"},
		{"-server", addr, "-timeout", "300ms", "subscribe", "alice", "occupancy", "5", "2"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v) = %v, want clean timeout exit", args, err)
		}
	}
}

// TestSubscribeStreamsEvents: events arriving during the streaming
// window are consumed (and printed) rather than failing the stream.
func TestSubscribeStreamsEvents(t *testing.T) {
	addr := startServer(t)
	go func() {
		time.Sleep(150 * time.Millisecond)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		client := wire.NewClient(wire.NewFrameCodec(conn))
		defer client.Close()
		// Move bob into the watched room mid-stream.
		_ = report(client, wire.Presence{
			Device: "B0:00:00:00:00:02", Room: 5, At: 5000, Present: true,
		})
	}()
	args := []string{"-server", addr, "-timeout", "500ms", "subscribe", "alice", "room", "5"}
	if err := run(args); err != nil {
		t.Errorf("run(%v) = %v, want clean exit after streaming an event", args, err)
	}
}

// TestSubscribeDeniedIsError: a rejected subscription must exit with
// the served error, not sit in the streaming loop.
func TestSubscribeDeniedIsError(t *testing.T) {
	addr := startServer(t)
	err := run([]string{"-server", addr, "-timeout", "2s", "subscribe", "ghost", "room", "5"})
	if err == nil {
		t.Fatal("subscribe with unknown querier succeeded")
	}
	if errors.Is(err, errUsage) {
		t.Fatalf("served rejection classed as usage error: %v", err)
	}
}

// TestSubscribeUsageErrors: malformed subscribe invocations are usage
// errors detected before any dial (the address is unreachable).
func TestSubscribeUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-server", "127.0.0.1:1", "subscribe"},
		{"-server", "127.0.0.1:1", "subscribe", "alice"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "all", "extra"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "device"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "room"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "room", "x"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "zone", "bob"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "zone", "bob", "1,x"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "occupancy", "5"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "occupancy", "5", "0"},
		{"-server", "127.0.0.1:1", "subscribe", "alice", "proximity", "bob"},
	}
	for _, args := range cases {
		if err := run(args); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want usage error", args, err)
		}
	}
}

// TestQueryErrorsAreErrors: a served error answer must surface as a
// non-nil (non-usage) error so the process exits 1, never 0.
func TestQueryErrorsAreErrors(t *testing.T) {
	addr := startServer(t)
	cases := [][]string{
		{"-server", addr, "locate", "alice", "nobody"},
		{"-server", addr, "at", "alice", "bob", "5"}, // before history
		{"-server", addr, "login", "alice", "wrongpw", "B0:00:00:00:00:09"},
	}
	for _, args := range cases {
		err := run(args)
		if err == nil {
			t.Errorf("run(%v) succeeded, want query error", args)
			continue
		}
		if errors.Is(err, errUsage) {
			t.Errorf("run(%v) classed as usage error: %v", args, err)
		}
	}
}

// TestUsageErrors: malformed invocations are usage errors (exit 2) and
// never touch the network.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-server", "127.0.0.1:1", "locate", "alice"},
		{"-server", "127.0.0.1:1", "at", "alice", "bob"},
		{"-server", "127.0.0.1:1", "trajectory", "alice", "bob", "0"},
		{"-server", "127.0.0.1:1", "wat"},
		{"-server", "127.0.0.1:1", "-v1", "rooms"}, // no such flag: one framing only
	}
	for _, args := range cases {
		if err := run(args); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want usage error", args, err)
		}
	}
}

// TestUsageCheckedBeforeDial: bad time strings are usage errors, and
// they are detected before any connection is attempted (the server
// address here is unreachable).
func TestUsageCheckedBeforeDial(t *testing.T) {
	if err := run([]string{"-server", "127.0.0.1:1", "at", "alice", "bob", "not-a-time"}); !errors.Is(err, errUsage) {
		t.Errorf("bad time string not a usage error")
	}
	if err := run([]string{"-server", "127.0.0.1:1", "trajectory", "alice", "bob", "0", "xyz"}); !errors.Is(err, errUsage) {
		t.Errorf("bad trajectory time not a usage error")
	}
}

// TestTimeoutFailsFast: an unreachable server fails within the budget
// instead of hanging.
func TestTimeoutFailsFast(t *testing.T) {
	// A listener that accepts and never answers.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	err = run([]string{"-server", l.Addr().String(), "-timeout", "200ms", "locate", "alice", "bob"})
	if err == nil {
		t.Fatal("query against a mute server succeeded")
	}
	if errors.Is(err, errUsage) {
		t.Fatalf("timeout classed as usage error: %v", err)
	}
}
