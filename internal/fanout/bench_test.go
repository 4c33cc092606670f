package fanout

import (
	"sync/atomic"
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// benchFrame mirrors the ingest pipeline's batch size: locdb.ApplyBatch
// frames of 64 deltas are what PublishBatch sees in production.
const benchFrame = 64

// benchTree builds a tree with a realistic subscriber population: two
// catch-alls, a device watcher per hot device, and a room watcher per
// room — every event matches several subscribers, so the number charges
// the matching and delivery machinery, not an empty index sweep.
func benchTree(cfg Config, devs, rooms int, delivered *atomic.Int64) *Tree {
	t := NewWithConfig(cfg)
	cb := func(Event) { delivered.Add(1) }
	t.Subscribe(Filter{Kind: KindAll}, cb)
	t.Subscribe(Filter{Kind: KindAll}, cb)
	for d := 0; d < devs; d++ {
		t.Subscribe(Filter{Kind: KindDevice, Device: baseband.BDAddr(1 + d)}, cb)
	}
	for r := 0; r < rooms; r++ {
		t.Subscribe(Filter{Kind: KindRoom, Room: graph.NodeID(1 + r)}, cb)
	}
	return t
}

// benchEvents builds one reusable frame of real room changes: every
// device hops to the next room each frame, so every delta produces an
// enter (and, after the first frame, the paired handover leave).
func benchEvents(evs []locdb.Event, devs, rooms, round int) {
	for i := range evs {
		evs[i] = locdb.Event{
			Fix: locdb.Fix{
				Device:  baseband.BDAddr(1 + (round*len(evs)+i)%devs),
				Piconet: graph.NodeID(1 + (round+i)%rooms),
				At:      sim.Tick(1 + round),
			},
			Present: true,
		}
	}
}

// BenchmarkFanoutPublishBatch measures the write-path cost of feeding
// the subscription index, per event: matching and enqueue only, since
// callbacks run on the delivery goroutine, off the measured path (Flush
// outside the loop bounds the backlog drain). Two publish shapes:
//
//   - single: one one-event PublishBatch per event (the un-batched
//     report's shape).
//   - batch64: one PublishBatch per 64-event frame (the ApplyBatch
//     sink contract): one shard lock and one scratch regroup per frame.
func BenchmarkFanoutPublishBatch(b *testing.B) {
	const devs, rooms = 256, 16
	for _, shape := range []string{"single", "batch64"} {
		b.Run("staged/"+shape, func(b *testing.B) {
			var delivered atomic.Int64
			tree := benchTree(Config{}, devs, rooms, &delivered)
			defer tree.Close()
			evs := make([]locdb.Event, benchFrame)
			// Warm the device→room view so the steady state is
			// handovers, not first entries.
			benchEvents(evs, devs, rooms, 0)
			tree.PublishBatch(evs)
			tree.Flush()
			b.ResetTimer()
			round := 1
			if shape == "single" {
				for n := 0; n < b.N; n += benchFrame {
					benchEvents(evs, devs, rooms, round)
					round++
					for i := range evs {
						tree.PublishBatch(evs[i : i+1])
					}
				}
			} else {
				for n := 0; n < b.N; n += benchFrame {
					benchEvents(evs, devs, rooms, round)
					round++
					tree.PublishBatch(evs)
				}
			}
			tree.Flush()
			b.StopTimer()
			if delivered.Load() == 0 {
				b.Fatal("no deliveries")
			}
		})
	}
}
