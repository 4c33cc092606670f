package bips

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// drainEvents collects everything currently buffered on the subscription.
func drainEvents(sub *Subscription) []Event {
	var out []Event
	for {
		select {
		case e, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, e)
		default:
			return out
		}
	}
}

func TestSubscribeDeliversLifecycle(t *testing.T) {
	svc, err := New(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	sub := svc.Subscribe()
	defer sub.Close()
	svc.MustRegister("alice", "pw")
	svc.MustRegister("bob", "pw")

	dev, err := svc.AddStationaryUser("bob", "pw", "Library")
	if err != nil {
		t.Fatal(err)
	}
	events := drainEvents(sub)
	if len(events) != 1 || events[0].Type != EventLogin {
		t.Fatalf("after login: events = %+v, want one EventLogin", events)
	}
	if e := events[0]; e.User != "bob" || e.Device != dev || e.RoomName != "" {
		t.Errorf("login event = %+v", e)
	}

	svc.Start()
	defer svc.Stop()
	svc.Run(90 * time.Second)

	events = drainEvents(sub)
	var entered *Event
	for i := range events {
		if events[i].Type == EventUserEntered {
			entered = &events[i]
			break
		}
	}
	if entered == nil {
		t.Fatalf("no EventUserEntered after 90s of tracking: %+v", events)
	}
	if entered.User != "bob" || entered.RoomName != "Library" || entered.Device != dev {
		t.Errorf("entered event = %+v", entered)
	}
	if entered.At <= 0 || entered.At > 90*time.Second {
		t.Errorf("entered.At = %v, want a simulated timestamp in (0, 90s]", entered.At)
	}

	if err := svc.Logout("bob"); err != nil {
		t.Fatal(err)
	}
	events = drainEvents(sub)
	if len(events) == 0 || events[len(events)-1].Type != EventLogout {
		t.Fatalf("after logout: events = %+v, want trailing EventLogout", events)
	}
}

func TestEventTimestampsMonotonic(t *testing.T) {
	svc, err := New(WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	sub := svc.Subscribe()
	defer sub.Close()
	svc.MustRegister("w", "pw")
	if _, err := svc.AddWalkingUser("w", "pw", "Lobby"); err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Stop()
	svc.Run(5 * time.Minute)

	events := drainEvents(sub)
	if len(events) < 2 {
		t.Fatalf("want several events from 5 min of walking, got %+v", events)
	}
	last := time.Duration(-1)
	for _, e := range events {
		if e.At < last {
			t.Errorf("timestamps went backwards: %v after %v (%+v)", e.At, last, e)
		}
		last = e.At
	}
}

// TestEventStreamGolden pins the in-process deployment's event stream
// for one fixed-seed run — logins, every enter/leave the workstations'
// deltas produce, and a logout mid-run — byte for byte against the
// committed golden file, in arrival order, so a change to the write path
// or the fan-out delivery stage that reorders, drops or retimes a delta
// is caught.
func TestEventStreamGolden(t *testing.T) {
	svc, err := New(WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sub := svc.Subscribe()
	defer sub.Close()
	rooms := svc.Rooms()
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("u%d", i)
		svc.MustRegister(name, "pw")
		if _, err := svc.AddWalkingUser(name, "pw", rooms[i%len(rooms)]); err != nil {
			t.Fatal(err)
		}
	}
	svc.Start()
	defer svc.Stop()
	events := drainEvents(sub)
	// Short chunks keep every burst well inside the subscription buffer.
	for elapsed := time.Duration(0); elapsed < 10*time.Minute; elapsed += 10 * time.Second {
		if elapsed == 5*time.Minute {
			if err := svc.Logout("u3"); err != nil {
				t.Fatal(err)
			}
		}
		svc.Run(10 * time.Second)
		events = append(events, drainEvents(sub)...)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscription dropped %d events", sub.Dropped())
	}
	var sb strings.Builder
	for _, e := range events {
		fmt.Fprintf(&sb, "%s %s %q %v\n", e.Type, e.User, e.RoomName, e.At)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "events.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("event stream drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSubscriptionCloseStopsDelivery(t *testing.T) {
	svc, err := New(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	sub := svc.Subscribe()
	svc.MustRegister("alice", "pw")
	sub.Close()
	sub.Close() // idempotent
	if _, err := svc.AddStationaryUser("alice", "pw", "Lobby"); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.Events(); ok {
		t.Error("closed subscription still delivered an event")
	}
}

func TestSubscriptionOverflowDropsNotBlocks(t *testing.T) {
	svc, err := New(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sub := svc.Subscribe()
	defer sub.Close()
	svc.MustRegister("u", "pw")
	// Overfill the buffer with synthetic events; the simulation must not
	// block on a slow consumer.
	for i := 0; i < 3*subscriptionBuffer; i++ {
		svc.hub.publish(Event{Type: EventLogin, User: "u"})
	}
	if got := sub.Dropped(); got != 2*subscriptionBuffer {
		t.Errorf("dropped = %d, want %d", got, 2*subscriptionBuffer)
	}
	if got := len(drainEvents(sub)); got != subscriptionBuffer {
		t.Errorf("delivered = %d, want full buffer %d", got, subscriptionBuffer)
	}
}

func TestMultipleSubscribers(t *testing.T) {
	svc, err := New(WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	a, b := svc.Subscribe(), svc.Subscribe()
	defer a.Close()
	defer b.Close()
	svc.MustRegister("alice", "pw")
	if _, err := svc.AddStationaryUser("alice", "pw", "Lobby"); err != nil {
		t.Fatal(err)
	}
	ea, eb := drainEvents(a), drainEvents(b)
	if len(ea) != 1 || len(eb) != 1 || ea[0] != eb[0] {
		t.Errorf("fan-out diverged: %+v vs %+v", ea, eb)
	}
}
