package main

import (
	"errors"
	"net"
	"testing"

	"bips/internal/wire"
)

// startAnalyticsServer seeds the shared fixture with one co-presence:
// alice joins bob in room 5 at tick 2500 (bob holds it over
// [2000, 3000)), so contact tracing has something to answer.
func startAnalyticsServer(t *testing.T) string {
	t.Helper()
	addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	client := wire.NewClient(wire.NewFrameCodec(conn))
	defer client.Close()
	if err := report(client, wire.Presence{
		Device: "B0:00:00:00:00:01", Room: 5, At: 2500, Present: true,
	}); err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestAnalyticsSubcommandsSucceed: contacts, occupancy and dwell exit
// cleanly against a live server, in both time syntaxes, with and
// without the optional overlap bar.
func TestAnalyticsSubcommandsSucceed(t *testing.T) {
	addr := startAnalyticsServer(t)
	cases := [][]string{
		{"-server", addr, "contacts", "alice", "bob", "0", "10000"},
		{"-server", addr, "contacts", "alice", "bob", "0", "10000", "100"},
		{"-server", addr, "contacts", "alice", "bob", "0s", "5s", "10ms"},
		{"-server", addr, "occupancy", "alice", "5", "0", "10000", "1000"},
		{"-server", addr, "occupancy", "alice", "2,5,3", "0s", "3s", "500ms"},
		{"-server", addr, "dwell", "alice", "room", "5", "0", "10000"},
		{"-server", addr, "dwell", "alice", "device", "bob", "0", "10000"},
		{"-server", addr, "-stats", "dwell", "alice", "room", "5", "0", "10000"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v) = %v, want success", args, err)
		}
	}
}

// TestAnalyticsUsageErrors: malformed analytics invocations are usage
// errors (exit 2) detected before any dial — the address here is
// unreachable.
func TestAnalyticsUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-server", "127.0.0.1:1", "contacts", "alice", "bob", "0"},
		{"-server", "127.0.0.1:1", "contacts", "alice", "bob", "0", "10", "20", "30"},
		{"-server", "127.0.0.1:1", "contacts", "alice", "bob", "0", "not-a-time"},
		{"-server", "127.0.0.1:1", "contacts", "alice", "bob", "0", "10", "bad"},
		{"-server", "127.0.0.1:1", "occupancy", "alice", "5", "0", "10000"},
		{"-server", "127.0.0.1:1", "occupancy", "alice", "5,x", "0", "10000", "1000"},
		{"-server", "127.0.0.1:1", "occupancy", "alice", "5", "0", "10000", "oops"},
		{"-server", "127.0.0.1:1", "dwell", "alice", "zone", "5", "0", "10000"},
		{"-server", "127.0.0.1:1", "dwell", "alice", "room", "x", "0", "10000"},
		{"-server", "127.0.0.1:1", "dwell", "alice", "room", "5", "0"},
		{"-server", "127.0.0.1:1", "dwell", "alice", "device", "bob", "0", "bad"},
	}
	for _, args := range cases {
		if err := run(args); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want usage error", args, err)
		}
	}
}

// TestAnalyticsQueryErrors: well-formed invocations the server rejects
// (unknown users, unknown rooms, inverted windows) surface as served
// errors — exit 1, never 0 and never a usage error.
func TestAnalyticsQueryErrors(t *testing.T) {
	addr := startAnalyticsServer(t)
	cases := [][]string{
		{"-server", addr, "contacts", "alice", "nobody", "0", "10000"},
		{"-server", addr, "contacts", "alice", "bob", "10000", "0"}, // inverted window
		{"-server", addr, "occupancy", "alice", "999", "0", "10000", "1000"},
		{"-server", addr, "occupancy", "alice", "5", "0", "10000", "-1"}, // negative bucket
		{"-server", addr, "dwell", "alice", "room", "999", "0", "10000"},
		{"-server", addr, "dwell", "ghost", "device", "bob", "0", "10000"},
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
