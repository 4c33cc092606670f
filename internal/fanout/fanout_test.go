package fanout

import (
	"sync"
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// collector is a test subscriber callback recording its deliveries.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) deliver(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collector) snapshot() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func present(dev baseband.BDAddr, room graph.NodeID, at sim.Tick) locdb.Event {
	return locdb.Event{Fix: locdb.Fix{Device: dev, Piconet: room, At: at}, Present: true}
}

func absent(dev baseband.BDAddr, room graph.NodeID, at sim.Tick) locdb.Event {
	return locdb.Event{Fix: locdb.Fix{Device: dev, Piconet: room, At: at}, Present: false}
}

// newTree returns a default tree whose delivery goroutine is released
// when the test ends.
func newTree(t *testing.T) *Tree {
	tree := New()
	t.Cleanup(tree.Close)
	return tree
}

// publish feeds one event to the tree as a one-event frame, the shape
// an unbatched report or a logout's drop takes, and waits for its
// deliveries.
func publish(tree *Tree, ev locdb.Event) {
	tree.PublishBatch([]locdb.Event{ev})
	tree.Flush()
}

func kinds(events []Event) []EventKind {
	out := make([]EventKind, len(events))
	for i, e := range events {
		out[i] = e.Kind
	}
	return out
}

func wantKinds(t *testing.T, got []Event, want ...EventKind) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d events %v, want kinds %v", len(got), kinds(got), want)
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Fatalf("event %d kind = %q, want %q (all: %v)", i, got[i].Kind, k, kinds(got))
		}
	}
}

func TestAllFilterSeesHandoverAsLeaveThenEnter(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindAll}, c.deliver)

	publish(tree, present(1, 10, 100))
	publish(tree, present(1, 11, 200)) // handover 10 -> 11
	publish(tree, absent(1, 11, 300))

	got := c.snapshot()
	wantKinds(t, got, Enter, Leave, Enter, Leave)
	if got[1].Room != 10 || got[2].Room != 11 {
		t.Fatalf("handover rooms = %d then %d, want 10 then 11", got[1].Room, got[2].Room)
	}
	if got[1].At != 200 || got[2].At != 200 {
		t.Fatalf("handover halves carry At %d/%d, want the delta's 200", got[1].At, got[2].At)
	}
}

func TestDuplicatePresenceEmitsNothing(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindAll}, c.deliver)
	publish(tree, present(1, 10, 100))
	publish(tree, present(1, 10, 150))
	wantKinds(t, c.snapshot(), Enter)
}

func TestStaleAbsenceIgnored(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindAll}, c.deliver)
	publish(tree, present(1, 10, 100))
	publish(tree, present(1, 11, 200))
	// The old cell's absence arrives after the handover already moved
	// the device: it must not erase the newer fix.
	publish(tree, absent(1, 10, 210))
	wantKinds(t, c.snapshot(), Enter, Leave, Enter)
	if tree.Occupancy(11) != 1 {
		t.Fatalf("occupancy(11) = %d, want 1", tree.Occupancy(11))
	}
}

func TestDeviceFilterMatchesOnlyItsDevice(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindDevice, Device: 7}, c.deliver)
	publish(tree, present(1, 10, 100))
	publish(tree, present(7, 10, 110))
	publish(tree, absent(7, 10, 120))
	publish(tree, absent(1, 10, 130))
	got := c.snapshot()
	wantKinds(t, got, Enter, Leave)
	for _, e := range got {
		if e.Device != 7 {
			t.Fatalf("device filter delivered event for device %d", e.Device)
		}
	}
}

func TestRoomFilterMatchesOnlyItsRoom(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindRoom, Room: 10}, c.deliver)
	publish(tree, present(1, 10, 100))
	publish(tree, present(1, 11, 200)) // leave 10 matches, enter 11 does not
	publish(tree, absent(1, 11, 300))
	got := c.snapshot()
	wantKinds(t, got, Enter, Leave)
	for _, e := range got {
		if e.Room != 10 {
			t.Fatalf("room filter delivered event for room %d", e.Room)
		}
	}
}

func TestZoneCrossings(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindZone, Device: 1, Zone: []graph.NodeID{10, 11}}, c.deliver)

	publish(tree, present(1, 9, 50))   // outside: nothing
	publish(tree, present(1, 10, 100)) // crossed in
	publish(tree, present(1, 11, 200)) // intra-zone handover: nothing
	publish(tree, present(1, 12, 300)) // crossed out
	publish(tree, present(1, 10, 400)) // back in
	publish(tree, absent(1, 10, 500))  // vanished: out

	got := c.snapshot()
	wantKinds(t, got, ZoneEnter, ZoneExit, ZoneEnter, ZoneExit)
	if got[1].Room != 12 {
		t.Fatalf("zone-exit by handover carries room %d, want the outside room 12", got[1].Room)
	}
	if got[3].Room != 10 {
		t.Fatalf("zone-exit by absence carries room %d, want the last room 10", got[3].Room)
	}
}

func TestZoneSubscribeInsideFiresOnlyOnExit(t *testing.T) {
	tree := newTree(t)
	publish(tree, present(1, 10, 50))
	var c collector
	// The device is already inside: registration must not fire a
	// spurious zone-enter; the first crossing is the exit.
	tree.Subscribe(Filter{Kind: KindZone, Device: 1, Zone: []graph.NodeID{10}}, c.deliver)
	publish(tree, present(1, 11, 100))
	wantKinds(t, c.snapshot(), ZoneExit)
}

func TestOccupancyCrossings(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindOccupancy, Room: 10, Threshold: 2}, c.deliver)

	publish(tree, present(1, 10, 100)) // count 1: below
	publish(tree, present(2, 10, 200)) // count 2: rise
	publish(tree, present(3, 10, 300)) // count 3: no edge
	publish(tree, absent(2, 10, 400))  // count 2: no edge (still >= 2)
	publish(tree, absent(3, 10, 500))  // count 1: fall
	publish(tree, present(4, 10, 600)) // count 2: rise again

	got := c.snapshot()
	wantKinds(t, got, OccupancyRise, OccupancyFall, OccupancyRise)
	if got[0].Occupancy != 2 || got[1].Occupancy != 1 || got[2].Occupancy != 2 {
		t.Fatalf("occupancy counts = %d,%d,%d want 2,1,2",
			got[0].Occupancy, got[1].Occupancy, got[2].Occupancy)
	}
	if got[0].Device != 0 {
		t.Fatalf("occupancy event carries device %d, want none", got[0].Device)
	}
}

func TestOccupancySubscribeAboveFiresOnlyOnFall(t *testing.T) {
	tree := newTree(t)
	publish(tree, present(1, 10, 50))
	publish(tree, present(2, 10, 60))
	var c collector
	tree.Subscribe(Filter{Kind: KindOccupancy, Room: 10, Threshold: 2}, c.deliver)
	publish(tree, present(3, 10, 100)) // 3: already above, no edge
	publish(tree, absent(3, 10, 200))  // 2: still above
	publish(tree, absent(2, 10, 300))  // 1: fall
	wantKinds(t, c.snapshot(), OccupancyFall)
}

func TestOccupancyTracksHandover(t *testing.T) {
	tree := newTree(t)
	var c10, c11 collector
	tree.Subscribe(Filter{Kind: KindOccupancy, Room: 10, Threshold: 1}, c10.deliver)
	tree.Subscribe(Filter{Kind: KindOccupancy, Room: 11, Threshold: 1}, c11.deliver)
	publish(tree, present(1, 10, 100))
	publish(tree, present(1, 11, 200)) // handover moves the occupant
	wantKinds(t, c10.snapshot(), OccupancyRise, OccupancyFall)
	wantKinds(t, c11.snapshot(), OccupancyRise)
	if tree.Occupancy(10) != 0 || tree.Occupancy(11) != 1 {
		t.Fatalf("occupancy after handover = %d/%d, want 0/1", tree.Occupancy(10), tree.Occupancy(11))
	}
}

func TestSeedPrimesViewWithoutEvents(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindAll}, c.deliver)
	tree.Seed([]locdb.Fix{
		{Device: 1, Piconet: 10, At: 50},
		{Device: 2, Piconet: 10, At: 60},
	})
	if got := c.snapshot(); len(got) != 0 {
		t.Fatalf("Seed emitted %d events, want 0", len(got))
	}
	if tree.Occupancy(10) != 2 {
		t.Fatalf("seeded occupancy = %d, want 2", tree.Occupancy(10))
	}
	// A seeded device handing over emits the leave half correctly.
	publish(tree, present(1, 11, 100))
	wantKinds(t, c.snapshot(), Leave, Enter)
}

func TestCancelStopsDeliveryAndIsIdempotent(t *testing.T) {
	tree := newTree(t)
	var c collector
	sub := tree.Subscribe(Filter{Kind: KindAll}, c.deliver)
	publish(tree, present(1, 10, 100))
	sub.Cancel()
	sub.Cancel()
	publish(tree, present(1, 11, 200))
	wantKinds(t, c.snapshot(), Enter)
	if n := tree.Stats().Subscriptions; n != 0 {
		t.Fatalf("subscriptions after cancel = %d, want 0", n)
	}
}

func TestStatsCount(t *testing.T) {
	tree := newTree(t)
	var c collector
	tree.Subscribe(Filter{Kind: KindAll}, c.deliver)
	tree.Subscribe(Filter{Kind: KindRoom, Room: 10}, c.deliver)
	publish(tree, present(1, 10, 100))
	st := tree.Stats()
	if st.Subscriptions != 2 {
		t.Fatalf("Subscriptions = %d, want 2", st.Subscriptions)
	}
	if st.Published != 1 {
		t.Fatalf("Published = %d, want 1", st.Published)
	}
	if st.Delivered != 2 {
		t.Fatalf("Delivered = %d, want 2 (all + room)", st.Delivered)
	}
}

func TestDeliveryOrderFollowsRegistration(t *testing.T) {
	tree := newTree(t)
	var order []int
	var mu sync.Mutex
	for i := 0; i < 5; i++ {
		i := i
		tree.Subscribe(Filter{Kind: KindAll}, func(Event) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	publish(tree, present(1, 10, 100))
	mu.Lock()
	defer mu.Unlock()
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery order = %v, want registration order", order)
		}
	}
}
