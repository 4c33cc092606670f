package server

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/sim"
	"bips/internal/wire"
)

var devC = baseband.BDAddr(0xB3)

// newSubServer builds a server for the subscription tests: alice and
// bob fully privileged, snoop registered with no rights, carol
// privileged but never logged in.
func newSubServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := reg.Register(registry.UserID(u), u, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Register("snoop", "snoop", pw); err != nil {
		t.Fatal(err)
	}
	s := New(reg, locdb.New(), bld, opts...)
	s.Logf = t.Logf
	return s
}

// eventSink collects pushed wire.Events from a client connection.
type eventSink struct {
	mu     sync.Mutex
	events []wire.Event
}

func (es *eventSink) attach(t *testing.T, c *wire.Client) {
	t.Helper()
	c.SetPushHandler(func(env wire.Envelope) {
		var e wire.Event
		if err := wire.UnmarshalBody(env, &e); err != nil {
			t.Errorf("undecodable push: %v", err)
			return
		}
		es.mu.Lock()
		es.events = append(es.events, e)
		es.mu.Unlock()
	})
}

// wait blocks until the sink holds at least n events (delivery runs on
// the fan-out goroutine, racing the request/response stream) and
// returns them.
func (es *eventSink) wait(t *testing.T, n int) []wire.Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		es.mu.Lock()
		got := append([]wire.Event(nil), es.events...)
		es.mu.Unlock()
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out with %d events, want %d: %+v", len(got), n, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (es *eventSink) forSub(t *testing.T, n int, sub string) []wire.Event {
	t.Helper()
	all := es.wait(t, n)
	var out []wire.Event
	for _, e := range all {
		if e.Sub == sub {
			out = append(out, e)
		}
	}
	return out
}

func subscribe(t *testing.T, c *wire.Client, id, querier string, f wire.SubFilter) {
	t.Helper()
	if err := c.Call(wire.MsgSubscribe, wire.Subscribe{ID: id, Querier: querier, Filter: f}, nil); err != nil {
		t.Fatalf("subscribe %s: %v", id, err)
	}
}

func move(t *testing.T, c *wire.Client, dev baseband.BDAddr, room graph.NodeID, at sim.Tick) {
	t.Helper()
	if err := StationReport(c, wire.Presence{
		Device: wire.FormatAddr(dev), Room: room, At: at, Present: true,
	}); err != nil {
		t.Fatalf("report: %v", err)
	}
}

// TestWireSubscribeDeviceLifecycle walks the full lifecycle of a
// per-device subscription over the wire: subscribe, receive enters and
// handover leave+enter pairs, unsubscribe, silence.
func TestWireSubscribeDeviceLifecycle(t *testing.T) {
	s := newSubServer(t)
	client := dialPipe(t, s)
	var sink eventSink
	sink.attach(t, client)

	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	subscribe(t, client, "track-bob", "alice", wire.SubFilter{Kind: wire.FilterDevice, Target: "bob"})

	move(t, client, devB, 6, 100)
	got := sink.wait(t, 1)
	e := got[0]
	if e.Sub != "track-bob" || e.Kind != wire.EventEnter || e.Room != 6 ||
		e.RoomName != "Library" || e.User != "bob" || e.Device != wire.FormatAddr(devB) || e.At != 100 {
		t.Fatalf("enter event = %+v", e)
	}

	// A handover is pushed as the leave of the old room immediately
	// followed by the enter of the new one, same timestamp.
	move(t, client, devB, 5, 200)
	got = sink.wait(t, 3)
	if got[1].Kind != wire.EventLeave || got[1].Room != 6 || got[1].At != 200 {
		t.Fatalf("handover leave = %+v", got[1])
	}
	if got[2].Kind != wire.EventEnter || got[2].Room != 5 || got[2].At != 200 {
		t.Fatalf("handover enter = %+v", got[2])
	}

	if err := client.Call(wire.MsgUnsubscribe, wire.Unsubscribe{ID: "track-bob"}, nil); err != nil {
		t.Fatal(err)
	}
	// Prove the cancelled subscription is silent: a probe subscription
	// on the same device must see the next move while track-bob does
	// not. (The probe event arriving bounds how long we must look.)
	subscribe(t, client, "probe", "alice", wire.SubFilter{Kind: wire.FilterDevice, Target: "bob"})
	move(t, client, devB, 3, 300)
	all := sink.wait(t, 5) // leave 5 + enter 3 for the probe
	for _, e := range all {
		if e.Sub == "track-bob" && e.At >= 300 {
			t.Fatalf("cancelled subscription still delivered %+v", e)
		}
	}
}

// TestWireSubscribeRoomZoneOccupancy drives the remaining filter kinds
// through one connection and checks each subscription sees exactly its
// own slice of the traffic.
func TestWireSubscribeRoomZoneOccupancy(t *testing.T) {
	s := newSubServer(t)
	client := dialPipe(t, s)
	var sink eventSink
	sink.attach(t, client)

	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	subscribe(t, client, "room6", "alice", wire.SubFilter{Kind: wire.FilterRoom, Room: 6})
	subscribe(t, client, "occ6", "alice", wire.SubFilter{Kind: wire.FilterOccupancy, Room: 6, Threshold: 2})
	subscribe(t, client, "zone", "alice", wire.SubFilter{Kind: wire.FilterZone, Target: "bob", Rooms: []graph.NodeID{2, 3}})

	move(t, client, devB, 6, 100) // room6: bob enters; occupancy 1
	move(t, client, devA, 6, 110) // room6: alice enters; occupancy 2: rise
	move(t, client, devB, 2, 120) // room6: bob leaves; occupancy 1: fall; zone-enter
	move(t, client, devB, 3, 130) // intra-zone handover: zone silent
	move(t, client, devB, 4, 140) // zone-exit

	// 7 events total: 3 for room6, 2 for occ6, 2 for zone.
	room6 := sink.forSub(t, 7, "room6")
	if len(room6) != 3 || room6[0].User != "bob" || room6[1].User != "alice" ||
		room6[2].Kind != wire.EventLeave || room6[2].User != "bob" {
		t.Fatalf("room6 events = %+v", room6)
	}
	occ6 := sink.forSub(t, 7, "occ6")
	if len(occ6) != 2 || occ6[0].Kind != wire.EventOccupancyRise || occ6[0].Occupancy != 2 ||
		occ6[1].Kind != wire.EventOccupancyFall || occ6[1].Occupancy != 1 {
		t.Fatalf("occ6 events = %+v", occ6)
	}
	zone := sink.forSub(t, 7, "zone")
	if len(zone) != 2 || zone[0].Kind != wire.EventZoneEnter || zone[0].Room != 2 ||
		zone[1].Kind != wire.EventZoneExit || zone[1].Room != 4 {
		t.Fatalf("zone events = %+v", zone)
	}
}

// TestSubscribeAccessAndErrors: every rejection path of the subscribe
// and unsubscribe handlers, with the wire code each must map to.
func TestSubscribeAccessAndErrors(t *testing.T) {
	s := newSubServer(t)
	client := dialPipe(t, s)
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	login(t, s, "snoop", devC)

	room6 := wire.SubFilter{Kind: wire.FilterRoom, Room: 6}
	cases := []struct {
		name string
		req  wire.Subscribe
		code string
	}{
		{"querier without locate right (device)",
			wire.Subscribe{ID: "s1", Querier: "snoop", Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "bob"}},
			wire.CodeDenied},
		{"querier without locate right (room)",
			wire.Subscribe{ID: "s2", Querier: "snoop", Filter: room6},
			wire.CodeDenied},
		{"unknown target",
			wire.Subscribe{ID: "s3", Querier: "alice", Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "ghost"}},
			wire.CodeNotFound},
		{"offline target",
			wire.Subscribe{ID: "s4", Querier: "alice", Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "carol"}},
			wire.CodeNotFound},
		{"offline querier",
			wire.Subscribe{ID: "s5", Querier: "carol", Filter: room6},
			wire.CodeNotFound},
		{"unknown querier",
			wire.Subscribe{ID: "s6", Querier: "ghost", Filter: room6},
			wire.CodeNotFound},
		{"unknown room",
			wire.Subscribe{ID: "s7", Querier: "alice", Filter: wire.SubFilter{Kind: wire.FilterRoom, Room: 999}},
			wire.CodeNotFound},
		{"unknown occupancy room",
			wire.Subscribe{ID: "s8", Querier: "alice", Filter: wire.SubFilter{Kind: wire.FilterOccupancy, Room: 999, Threshold: 1}},
			wire.CodeNotFound},
		{"unknown zone room",
			wire.Subscribe{ID: "s9", Querier: "alice", Filter: wire.SubFilter{Kind: wire.FilterZone, Target: "bob", Rooms: []graph.NodeID{6, 999}}},
			wire.CodeNotFound},
		{"malformed: empty id",
			wire.Subscribe{Querier: "alice", Filter: room6},
			wire.CodeBadRequest},
		{"malformed: bad kind",
			wire.Subscribe{ID: "s10", Querier: "alice", Filter: wire.SubFilter{Kind: "proximity"}},
			wire.CodeBadRequest},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := client.Call(wire.MsgSubscribe, tt.req, nil)
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("error = %v, want wire.Error", err)
			}
			if werr.Code != tt.code {
				t.Errorf("code = %q, want %q", werr.Code, tt.code)
			}
		})
	}

	// Duplicate live id.
	subscribe(t, client, "dup", "alice", room6)
	err := client.Call(wire.MsgSubscribe, wire.Subscribe{ID: "dup", Querier: "alice", Filter: room6}, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Errorf("duplicate id error = %v, want %s", err, wire.CodeBadRequest)
	}
	// Unknown unsubscribe.
	err = client.Call(wire.MsgUnsubscribe, wire.Unsubscribe{ID: "never"}, nil)
	if !errors.As(err, &werr) || werr.Code != wire.CodeNotFound {
		t.Errorf("unknown unsubscribe error = %v, want %s", err, wire.CodeNotFound)
	}
	// Unsubscribing frees the id for reuse.
	if err := client.Call(wire.MsgUnsubscribe, wire.Unsubscribe{ID: "dup"}, nil); err != nil {
		t.Fatal(err)
	}
	subscribe(t, client, "dup", "alice", room6)
}

// TestSubscriptionLimit: the per-connection cap rejects the next
// subscribe, and unsubscribing makes room again.
func TestSubscriptionLimit(t *testing.T) {
	s := newSubServer(t, WithMaxSubsPerConn(2))
	client := dialPipe(t, s)
	login(t, s, "alice", devA)

	room6 := wire.SubFilter{Kind: wire.FilterRoom, Room: 6}
	subscribe(t, client, "a", "alice", room6)
	subscribe(t, client, "b", "alice", room6)
	err := client.Call(wire.MsgSubscribe, wire.Subscribe{ID: "c", Querier: "alice", Filter: room6}, nil)
	var werr *wire.Error
	if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Fatalf("over-limit subscribe = %v, want %s", err, wire.CodeBadRequest)
	}
	if err := client.Call(wire.MsgUnsubscribe, wire.Unsubscribe{ID: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	subscribe(t, client, "c", "alice", room6)
}

// TestSlowConsumerKilled is the adversarial half of the fan-out
// contract. A subscriber that stops reading must cost a bounded buffer
// and an accounted drop count, then be severed with a slow-consumer
// error — while a well-behaved subscriber to the same traffic on
// another connection receives every event, and the ingest path (the
// presence calls driving the traffic) never blocks.
func TestSlowConsumerKilled(t *testing.T) {
	s := newSubServer(t, WithEventBuffer(2), WithDropLimit(4))

	// The fast subscriber: a normal client with a push handler.
	fast := dialPipe(t, s)
	var sink eventSink
	sink.attach(t, fast)
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	room6 := wire.SubFilter{Kind: wire.FilterRoom, Room: 6}
	subscribe(t, fast, "fast", "alice", room6)

	// The slow subscriber: a raw codec the test refuses to read from.
	// net.Pipe has no buffering at all, so the server's pusher blocks on
	// the first unread event — the tightest possible backpressure.
	a, b := net.Pipe()
	go s.ServeConn(b)
	t.Cleanup(func() { a.Close() })
	slow := wire.NewFrameCodec(a)
	env, err := wire.MarshalBody(wire.MsgSubscribe, 1, wire.Subscribe{ID: "slow", Querier: "alice", Filter: room6})
	if err != nil {
		t.Fatal(err)
	}
	if err := slow.Send(env); err != nil {
		t.Fatal(err)
	}
	resp, err := slow.Recv()
	if err != nil || resp.Type != wire.MsgOK {
		t.Fatalf("slow subscribe response = %+v, %v", resp, err)
	}

	// Drive traffic without reading the slow connection: bob bounces in
	// and out of room 6. Every Call completing proves ingest never
	// waits on the wedged subscriber. 20 moves = 20 room-6 events,
	// far past buffer(2) + drop limit(4). A fast subscriber is one
	// that READS at the event rate: delivery is staged off the write
	// path, so pace the moves on the fast sink's progress — otherwise
	// the test would just prove that any 2-slot buffer overflows under
	// a decoupled burst.
	const moves = 20
	for i := 0; i < moves; i++ {
		room := graph.NodeID(6)
		if i%2 == 1 {
			room = 5
		}
		move(t, fast, devB, room, sim.Tick(100+i))
		sink.wait(t, i+1)
	}

	// The presence calls all completed, so the events are matched and
	// queued; delivery (and therefore the drop accounting) runs on the
	// tree's delivery goroutine, so poll for the condemnation instead
	// of asserting it synchronously.
	deadline := time.Now().Add(5 * time.Second)
	for s.slowKills.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.slowKills.Value(); got != 1 {
		t.Fatalf("slow kills = %d, want 1", got)
	}
	if got := s.evDropped.Value(); got < 4 {
		t.Fatalf("dropped events = %d, want >= drop limit 4", got)
	}

	// Now drain the slow connection: buffered events, then the
	// slow-consumer error, then the severed socket.
	if err := a.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var sawError bool
	var delivered int
	for {
		env, err := slow.Recv()
		if err != nil {
			break // severed
		}
		switch env.Type {
		case wire.MsgEvent:
			delivered++
		case wire.MsgError:
			var werr wire.Error
			if err := wire.UnmarshalBody(env, &werr); err != nil {
				t.Fatal(err)
			}
			if werr.Code != wire.CodeSlowConsumer {
				t.Fatalf("kill error code = %q, want %q", werr.Code, wire.CodeSlowConsumer)
			}
			sawError = true
		default:
			t.Fatalf("unexpected envelope %+v", env)
		}
	}
	if !sawError {
		t.Error("slow consumer was severed without the slow-consumer MsgError")
	}
	// Bounded buffer: at most buffer(2) + the one event the pusher held.
	if delivered > 3 {
		t.Errorf("slow consumer drained %d events, want <= 3 (bounded buffer)", delivered)
	}

	// The fast subscriber saw every single event despite sharing the
	// traffic with a wedged peer.
	got := sink.wait(t, moves)
	if len(got) != moves {
		t.Fatalf("fast subscriber got %d events, want %d", len(got), moves)
	}
	for i, e := range got {
		if e.At != sim.Tick(100+i) {
			t.Fatalf("fast subscriber event %d out of order: %+v", i, e)
		}
	}
}

// TestConnectionTeardownCancelsSubscriptions: closing a subscribed
// connection must unregister its subscriptions from the shared tree, or
// the tree leaks dead callbacks forever.
func TestConnectionTeardownCancelsSubscriptions(t *testing.T) {
	s := newSubServer(t)
	login(t, s, "alice", devA)

	a, b := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(b); close(done) }()
	client := wire.NewClient(wire.NewFrameCodec(a))
	subscribe(t, client, "x", "alice", wire.SubFilter{Kind: wire.FilterRoom, Room: 6})
	if got := s.Fanout().Stats().Subscriptions; got != 1 {
		t.Fatalf("live subscriptions = %d, want 1", got)
	}
	client.Close()
	<-done
	if got := s.Fanout().Stats().Subscriptions; got != 0 {
		t.Fatalf("subscriptions after teardown = %d, want 0", got)
	}
}

// settledGoroutines polls runtime.NumGoroutine until it is at most want
// or a deadline passes, and returns the last count: goroutines that
// already finished their work (a handler after its response, a closed
// connection's loops) take a moment to exit.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubscribedConnectionGoroutines: a subscribed connection that has
// had an event pushed runs exactly two steady goroutines — the reader
// and the one writer carrying responses and events alike — and gives
// both back when it closes.
func TestSubscribedConnectionGoroutines(t *testing.T) {
	s := newSubServer(t)
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	// Let goroutines of earlier tests finish winding down first.
	base := runtime.NumGoroutine()
	for {
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= base {
			break
		}
		base = n
	}

	a, b := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(b); close(done) }()
	codec := wire.NewFrameCodec(a)
	defer codec.Close()
	env, err := wire.MarshalBody(wire.MsgSubscribe, 1, wire.Subscribe{
		ID: "x", Querier: "alice", Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "bob"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Send(env); err != nil {
		t.Fatal(err)
	}
	if resp, err := codec.Recv(); err != nil || resp.Type != wire.MsgOK {
		t.Fatalf("subscribe response = %+v, %v", resp, err)
	}
	if err := s.ReportDelta(wire.Presence{Device: wire.FormatAddr(devB), Room: 6, At: 1, Present: true}); err != nil {
		t.Fatal(err)
	}
	if ev, err := codec.Recv(); err != nil || ev.Type != wire.MsgEvent {
		t.Fatalf("push = %+v, %v", ev, err)
	}

	if got := settledGoroutines(base+2) - base; got != 2 {
		t.Errorf("subscribed connection runs %d goroutines, want 2 (reader + writer)", got)
	}
	codec.Close()
	<-done
	if got := settledGoroutines(base) - base; got != 0 {
		t.Errorf("%d goroutines left after the connection closed, want 0", got)
	}
}
