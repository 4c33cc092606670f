package fanout

import (
	"sync"
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// deviceLog records one stable subscriber's view of a single device so
// the test can check completeness and ordering after the storm.
type deviceLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *deviceLog) deliver(e Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// TestChurnUnderConcurrentIngest is the fan-out tree's adversarial
// concurrency test (run the package under -race). Writer goroutines
// apply locdb batches — the real ingest path, wired to the tree exactly
// as the server wires it — while churner goroutines subscribe and
// cancel volatile filters of every kind as fast as they can. The
// guarantee under test: subscribers registered before the traffic
// started lose no matching events and observe them in per-device
// order, no matter how violently the subscription set churns around
// them.
func TestChurnUnderConcurrentIngest(t *testing.T) {
	const (
		writers        = 4
		devsPerWriter  = 4
		movesPerDevice = 100
		churners       = 4
		rooms          = 7 // rooms 1..7
	)

	db, err := locdb.NewSharded(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree := New()
	defer tree.Close()
	db.SubscribeSink(tree)

	// Stable subscribers, registered before any traffic: one per-device
	// log plus a global all-filter log that must see the union.
	logs := make(map[baseband.BDAddr]*deviceLog)
	var global deviceLog
	for w := 0; w < writers; w++ {
		for d := 0; d < devsPerWriter; d++ {
			dev := baseband.BDAddr(1 + w*devsPerWriter + d)
			l := &deviceLog{}
			logs[dev] = l
			tree.Subscribe(Filter{Kind: KindDevice, Device: dev}, l.deliver)
		}
	}
	tree.Subscribe(Filter{Kind: KindAll}, global.deliver)

	// Churners hammer Subscribe/Cancel with every filter kind while the
	// writers run. Their deliveries are discarded; they exist to shake
	// the registration path under the delivery path's feet.
	done := make(chan struct{})
	var churn sync.WaitGroup
	for c := 0; c < churners; c++ {
		churn.Add(1)
		go func(c int) {
			defer churn.Done()
			filters := []Filter{
				{Kind: KindAll},
				{Kind: KindDevice, Device: baseband.BDAddr(1 + c)},
				{Kind: KindRoom, Room: graph.NodeID(1 + c%rooms)},
				{Kind: KindZone, Device: baseband.BDAddr(1 + c), Zone: []graph.NodeID{1, 2, 3}},
				{Kind: KindOccupancy, Room: graph.NodeID(1 + c%rooms), Threshold: 2},
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				sub := tree.Subscribe(filters[i%len(filters)], func(Event) {})
				sub.Cancel()
			}
		}(c)
	}

	// Writers: each owns a disjoint device set and walks every device
	// through a strictly increasing sequence of room changes, batched
	// through the same ApplyBatch the ingest sessions use, then retires
	// it with a final absence.
	var ingest sync.WaitGroup
	for w := 0; w < writers; w++ {
		ingest.Add(1)
		go func(w int) {
			defer ingest.Done()
			for move := 0; move < movesPerDevice; move++ {
				batch := make([]locdb.Mutation, 0, devsPerWriter)
				for d := 0; d < devsPerWriter; d++ {
					batch = append(batch, locdb.Mutation{
						Op:  locdb.MutPresence,
						Dev: baseband.BDAddr(1 + w*devsPerWriter + d),
						// Consecutive moves always differ mod rooms, so
						// every mutation is a real room change.
						Piconet: graph.NodeID(1 + (move+d)%rooms),
						At:      sim.Tick(1000 * (move + 1)),
					})
				}
				db.ApplyBatch(batch)
			}
			final := make([]locdb.Mutation, 0, devsPerWriter)
			for d := 0; d < devsPerWriter; d++ {
				dev := baseband.BDAddr(1 + w*devsPerWriter + d)
				final = append(final, locdb.Mutation{
					Op: locdb.MutAbsence, Dev: dev,
					Piconet: graph.NodeID(1 + (movesPerDevice-1+d)%rooms),
					At:      sim.Tick(1000 * (movesPerDevice + 1)),
				})
			}
			db.ApplyBatch(final)
		}(w)
	}

	ingest.Wait()
	close(done)
	churn.Wait()
	tree.Flush()

	// Every device produced exactly movesPerDevice enters and
	// movesPerDevice leaves (each handover pairs a leave with the next
	// enter; the final absence closes the last visit). A dropped or
	// duplicated delivery shows up as a count mismatch; a reordered one
	// breaks the enter/leave alternation or the At monotonicity.
	for dev, l := range logs {
		checkDeviceStream(t, dev, l.events, movesPerDevice)
	}
	// The all-filter log must hold the same union, interleaved.
	perDev := make(map[baseband.BDAddr][]Event)
	for _, e := range global.events {
		perDev[e.Device] = append(perDev[e.Device], e)
	}
	if len(perDev) != writers*devsPerWriter {
		t.Fatalf("all-filter saw %d devices, want %d", len(perDev), writers*devsPerWriter)
	}
	for dev, events := range perDev {
		checkDeviceStream(t, dev, events, movesPerDevice)
	}
}

// checkDeviceStream asserts one device's event history is complete and
// well-formed: enter/leave strictly alternating starting with an enter,
// non-decreasing timestamps, and exactly moves of each kind.
func checkDeviceStream(t *testing.T, dev baseband.BDAddr, events []Event, moves int) {
	t.Helper()
	var enters, leaves int
	var lastAt sim.Tick
	for i, e := range events {
		switch e.Kind {
		case Enter:
			enters++
			if i%2 != 0 {
				t.Fatalf("device %d: event %d is an enter out of turn", dev, i)
			}
		case Leave:
			leaves++
			if i%2 != 1 {
				t.Fatalf("device %d: event %d is a leave out of turn", dev, i)
			}
		default:
			t.Fatalf("device %d: unexpected kind %q", dev, e.Kind)
		}
		if e.At < lastAt {
			t.Fatalf("device %d: event %d went back in time (%d after %d)", dev, i, e.At, lastAt)
		}
		lastAt = e.At
	}
	if enters != moves || leaves != moves {
		t.Fatalf("device %d: %d enters / %d leaves, want %d / %d",
			dev, enters, leaves, moves, moves)
	}
}
