package fanout

import (
	"sync"
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// orderLog is one shared, globally ordered record of every callback
// invocation across several subscribers: the delivery goroutine invokes
// callbacks one at a time, so the append order IS the delivery order,
// and the test can assert subscription-order exactly, not just
// per-subscriber.
type orderLog struct {
	mu     sync.Mutex
	subIDs []int
	events []Event
}

func (l *orderLog) recorder(subIdx int) func(Event) {
	return func(e Event) {
		l.mu.Lock()
		l.subIDs = append(l.subIDs, subIdx)
		l.events = append(l.events, e)
		l.mu.Unlock()
	}
}

// TestStagedOrderUnderConcurrentBatches pins the staged tree's ordering
// contract under -race: writer goroutines flush ApplyBatch frames from
// disjoint locdb shards concurrently — the real ingest wiring, through
// the batch sink — while K catch-all subscribers record every delivery
// into one globally ordered log. The ring is kept deliberately small so
// publishers regularly hit backpressure. Asserted exactly, not
// statistically:
//
//   - subscription order: every matched event reaches the K subscribers
//     as one contiguous block of identical events in ascending
//     subscription order;
//   - per-device order: each device's stream (as any one subscriber saw
//     it) is the complete alternating enter/leave history with
//     non-decreasing ticks;
//   - no lost events: a bounded ring may block publishers but never
//     drops, so the counts come out exact.
func TestStagedOrderUnderConcurrentBatches(t *testing.T) {
	const (
		writers        = 4
		devsPerWriter  = 4
		movesPerDevice = 150
		rooms          = 7 // rooms 1..7
		subscribers    = 3
	)

	db, err := locdb.NewSharded(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny ring forces the enqueue path to block and wrap constantly.
	tree := NewWithConfig(Config{Ring: 64})
	t.Cleanup(tree.Close)
	db.SubscribeSink(tree)

	var log orderLog
	for k := 0; k < subscribers; k++ {
		tree.Subscribe(Filter{Kind: KindAll}, log.recorder(k))
	}

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
	// Everything is published; Flush is the delivery barrier.
	tree.Flush()

	// Subscription order, asserted exactly: the log must consist of
	// blocks of `subscribers` identical events delivered in ascending
	// subscriber order.
	if len(log.events)%subscribers != 0 {
		t.Fatalf("delivery log length %d is not a multiple of %d subscribers", len(log.events), subscribers)
	}
	for i := 0; i < len(log.events); i += subscribers {
		for k := 0; k < subscribers; k++ {
			if log.subIDs[i+k] != k {
				t.Fatalf("delivery block at %d: position %d went to subscriber %d, want %d",
					i, k, log.subIDs[i+k], k)
			}
			if log.events[i+k] != log.events[i] {
				t.Fatalf("delivery block at %d: subscriber %d saw %+v, subscriber 0 saw %+v",
					i, k, log.events[i+k], log.events[i])
			}
		}
	}

	// Per-device order and completeness, from subscriber 0's view.
	perDev := make(map[baseband.BDAddr][]Event)
	for i := 0; i < len(log.events); i += subscribers {
		e := log.events[i]
		perDev[e.Device] = append(perDev[e.Device], e)
	}
	if len(perDev) != writers*devsPerWriter {
		t.Fatalf("saw %d devices, want %d", len(perDev), writers*devsPerWriter)
	}
	for dev, events := range perDev {
		checkDeviceStream(t, dev, events, movesPerDevice)
	}

	if bl := tree.Stats().Backlog; bl != 0 {
		t.Fatalf("backlog after Flush = %d, want 0", bl)
	}
}

// TestStagedCancelStopsDelivery pins the Cancel half of the delivery
// contract on the staged tree: entries already matched and queued for a
// subscription when Cancel returns are skipped, never delivered late.
func TestStagedCancelStopsDelivery(t *testing.T) {
	tree := NewWithConfig(Config{})
	t.Cleanup(tree.Close)

	var mu sync.Mutex
	var got []Event
	sub := tree.Subscribe(Filter{Kind: KindAll}, func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
	})

	publish(tree, present(1, 5, 1))
	tree.Flush()
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("delivered %d events before cancel, want 1", n)
	}

	// Queue events and cancel before the delivery stage can possibly
	// have drained them all; none may arrive after Cancel returns.
	for i := 0; i < 1000; i++ {
		publish(tree, present(1, graph.NodeID(5+i%2), sim.Tick(2+i)))
	}
	sub.Cancel()
	mu.Lock()
	afterCancel := len(got)
	mu.Unlock()
	tree.Flush()
	mu.Lock()
	final := len(got)
	mu.Unlock()
	if final != afterCancel {
		t.Fatalf("%d events delivered after Cancel returned", final-afterCancel)
	}
}

// TestStagedCloseDrains pins Close's drain guarantee: everything
// published before Close is delivered, not abandoned in the ring.
func TestStagedCloseDrains(t *testing.T) {
	tree := NewWithConfig(Config{Ring: 32})
	var mu sync.Mutex
	count := 0
	tree.Subscribe(Filter{Kind: KindAll}, func(Event) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	const events = 500
	for i := 0; i < events; i++ {
		ev := present(baseband.BDAddr(1+i%8), graph.NodeID(1+i%7), sim.Tick(1+i))
		ev.Present = i%2 == 0
		publish(tree, ev)
	}
	published := tree.Stats().Published
	tree.Close()
	mu.Lock()
	got := count
	mu.Unlock()
	if int64(got) != tree.Stats().Delivered {
		t.Fatalf("callback ran %d times, Delivered reports %d", got, tree.Stats().Delivered)
	}
	if published != int64(events) {
		t.Fatalf("published = %d, want %d", published, events)
	}
	// Handover expansion means delivered >= the matching enters/leaves;
	// the exact invariant here is just "nothing queued was dropped".
	if bl := tree.Stats().Backlog; bl != 0 {
		t.Fatalf("backlog after Close = %d, want 0", bl)
	}
}
