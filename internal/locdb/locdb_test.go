package locdb

import (
	"errors"
	"math"
	"sync"
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

const (
	dev1 = baseband.BDAddr(0xB1)
	dev2 = baseband.BDAddr(0xB2)
)

// present and absent apply one delta as a one-mutation frame through
// ApplyBatch, the store's only write path, and report whether it
// changed state.
func present(db Store, dev baseband.BDAddr, room graph.NodeID, at sim.Tick) bool {
	return db.ApplyBatch([]Mutation{{Op: MutPresence, Dev: dev, Piconet: room, At: at}}) == 1
}

func absent(db Store, dev baseband.BDAddr, room graph.NodeID, at sim.Tick) bool {
	return db.ApplyBatch([]Mutation{{Op: MutAbsence, Dev: dev, Piconet: room, At: at}}) == 1
}

// eachEvent adapts a per-event callback to Sink, unrolling every frame.
type eachEvent func(Event)

func (f eachEvent) OnEvents(evs []Event) {
	for _, ev := range evs {
		f(ev)
	}
}

// history reads a device's whole recorded history, oldest first.
func history(db Store, dev baseband.BDAddr) []Fix {
	return db.Trajectory(dev, 0, math.MaxInt64)
}

func TestLocateUnknown(t *testing.T) {
	db := New()
	if _, err := db.Locate(dev1); !errors.Is(err, ErrNotPresent) {
		t.Errorf("Locate(unknown) error = %v, want ErrNotPresent", err)
	}
}

func TestPresenceLifecycle(t *testing.T) {
	db := New()
	present(db, dev1, 3, 100)
	fix, err := db.Locate(dev1)
	if err != nil {
		t.Fatal(err)
	}
	if fix.Piconet != 3 || fix.At != 100 || fix.Device != dev1 {
		t.Errorf("fix = %+v", fix)
	}
	// Handover to another piconet.
	present(db, dev1, 5, 200)
	fix, err = db.Locate(dev1)
	if err != nil {
		t.Fatal(err)
	}
	if fix.Piconet != 5 {
		t.Errorf("piconet after handover = %d, want 5", fix.Piconet)
	}
	if all := db.All(); len(all) != 1 || all[0].Piconet != 5 {
		t.Errorf("current fixes after handover = %v, want one in piconet 5", all)
	}
	// Absence.
	absent(db, dev1, 5, 300)
	if _, err := db.Locate(dev1); !errors.Is(err, ErrNotPresent) {
		t.Errorf("Locate after absence error = %v", err)
	}
}

func TestDeltaSemantics(t *testing.T) {
	db := New()
	present(db, dev1, 3, 100)
	present(db, dev1, 3, 200) // unchanged: must not count as update
	present(db, dev1, 3, 300)
	if got := db.Stats().Updates; got != 1 {
		t.Errorf("Updates = %d, want 1 (delta semantics)", got)
	}
	if h := history(db, dev1); len(h) != 1 {
		t.Errorf("history length = %d, want 1", len(h))
	}
	// The stored fix keeps the original timestamp.
	fix, err := db.Locate(dev1)
	if err != nil {
		t.Fatal(err)
	}
	if fix.At != 100 {
		t.Errorf("fix.At = %v, want 100", fix.At)
	}
}

func TestStaleAbsenceIgnored(t *testing.T) {
	// Device moved 3 -> 5; a late absence report from piconet 3 must
	// not erase the newer presence in 5.
	db := New()
	present(db, dev1, 3, 100)
	present(db, dev1, 5, 200)
	absent(db, dev1, 3, 250)
	fix, err := db.Locate(dev1)
	if err != nil {
		t.Fatalf("stale absence erased presence: %v", err)
	}
	if fix.Piconet != 5 {
		t.Errorf("piconet = %d, want 5", fix.Piconet)
	}
	// Absence for a device never present is a no-op.
	absent(db, dev2, 3, 100)
}

func TestHistoryBounded(t *testing.T) {
	db := NewWithHistory(4)
	for i := 0; i < 10; i++ {
		present(db, dev1, graph.NodeID(i), sim.Tick(i*100))
	}
	h := history(db, dev1)
	if len(h) != 4 {
		t.Fatalf("history length = %d, want 4", len(h))
	}
	if h[0].Piconet != 6 || h[3].Piconet != 9 {
		t.Errorf("history window = %+v, want piconets 6..9", h)
	}
}

func TestHistoryDisabled(t *testing.T) {
	db := NewWithHistory(0)
	present(db, dev1, 1, 10)
	if h := history(db, dev1); len(h) != 0 {
		t.Errorf("history with limit 0 = %v", h)
	}
	db2 := NewWithHistory(-5)
	present(db2, dev1, 1, 10)
	if h := history(db2, dev1); len(h) != 0 {
		t.Errorf("negative limit should disable history, got %v", h)
	}
}

func TestHistoryCopyIsolated(t *testing.T) {
	db := New()
	present(db, dev1, 1, 10)
	h := db.Trajectory(dev1, 0, 10)
	h[0].Piconet = 42
	if db.Trajectory(dev1, 0, 10)[0].Piconet != 1 {
		t.Error("Trajectory exposed internal state")
	}
}

func TestDrop(t *testing.T) {
	db := New()
	present(db, dev1, 3, 100)
	db.Drop(dev1)
	if _, err := db.Locate(dev1); err == nil {
		t.Error("dropped device still present")
	}
	if len(history(db, dev1)) != 0 {
		t.Error("dropped device kept history")
	}
	if len(db.All()) != 0 {
		t.Error("dropped device still has a current fix")
	}
	db.Drop(dev2) // unknown: no-op
}

func TestSubscribe(t *testing.T) {
	db := New()
	var events []Event
	cancel := db.SubscribeSink(eachEvent(func(e Event) { events = append(events, e) }))
	present(db, dev1, 3, 100)
	present(db, dev1, 3, 150) // delta no-op: no event
	present(db, dev1, 5, 200)
	absent(db, dev1, 5, 300)
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	if !events[0].Present || events[0].Piconet != 3 {
		t.Errorf("event 0 = %+v", events[0])
	}
	if !events[1].Present || events[1].Piconet != 5 {
		t.Errorf("event 1 = %+v", events[1])
	}
	if events[2].Present || events[2].Piconet != 5 {
		t.Errorf("event 2 = %+v", events[2])
	}
	cancel()
	present(db, dev2, 1, 400)
	if len(events) != 3 {
		t.Error("event delivered after cancel")
	}
}

// TestSubscribeHandoverIsOneEvent: a handover reaches subscribers as one
// presence event in the new room, with no separate absence from the old
// one; consumers derive the departure from their own view of the device.
func TestSubscribeHandoverIsOneEvent(t *testing.T) {
	db := New()
	var events []Event
	db.SubscribeSink(eachEvent(func(e Event) { events = append(events, e) }))
	present(db, dev1, 3, 100)
	present(db, dev1, 5, 200)
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if !events[1].Present || events[1].Piconet != 5 {
		t.Errorf("handover event = %+v, want a presence in piconet 5", events[1])
	}
}

// TestDropEmitsFinalAbsence: a logout of a still-present device is
// announced as an absence from its last room — otherwise event-stream
// consumers would count the occupant forever.
func TestDropEmitsFinalAbsence(t *testing.T) {
	db := New()
	var events []Event
	db.SubscribeSink(eachEvent(func(e Event) { events = append(events, e) }))
	present(db, dev1, 3, 100)
	db.Drop(dev1)
	if len(events) != 2 {
		t.Fatalf("events = %d, want presence + final absence", len(events))
	}
	last := events[1]
	if last.Present || last.Piconet != 3 || last.Device != dev1 {
		t.Errorf("drop event = %+v, want absence from piconet 3", last)
	}
	if !last.Dropped {
		t.Errorf("drop event = %+v, want Dropped flag", last)
	}
	// A device with history but no current fix still announces the drop
	// (history-derived indexes must forget it), but carries no room.
	present(db, dev2, 1, 200)
	absent(db, dev2, 1, 300)
	n := len(events)
	db.Drop(dev2)
	if len(events) != n+1 {
		t.Fatalf("drop of an absent device emitted %d events, want 1", len(events)-n)
	}
	ev := events[n]
	if ev.Present || !ev.Dropped || ev.Device != dev2 || ev.Piconet != 0 {
		t.Errorf("history-only drop event = %+v, want bare Dropped absence", ev)
	}
	// A device with no state at all really does go quietly.
	n = len(events)
	db.Drop(baseband.BDAddr(0xDEAD))
	if len(events) != n {
		t.Errorf("drop of an unknown device emitted %d extra events", len(events)-n)
	}
}

func TestLocateAt(t *testing.T) {
	db := New()
	present(db, dev1, 3, 100)
	present(db, dev1, 5, 200)
	present(db, dev1, 7, 300)
	tests := []struct {
		at      sim.Tick
		want    graph.NodeID
		wantErr bool
	}{
		{at: 50, wantErr: true},
		{at: 100, want: 3},
		{at: 150, want: 3},
		{at: 200, want: 5},
		{at: 299, want: 5},
		{at: 300, want: 7},
		{at: 10_000, want: 7},
	}
	for _, tt := range tests {
		fix, err := db.LocateAt(dev1, tt.at)
		if (err != nil) != tt.wantErr {
			t.Errorf("LocateAt(%v) error = %v, wantErr %v", tt.at, err, tt.wantErr)
			continue
		}
		if !tt.wantErr && fix.Piconet != tt.want {
			t.Errorf("LocateAt(%v) = %d, want %d", tt.at, fix.Piconet, tt.want)
		}
	}
	if _, err := db.LocateAt(dev2, 500); !errors.Is(err, ErrNotPresent) {
		t.Errorf("unknown device error = %v", err)
	}
}

func TestLocateAtRespectsHistoryLimit(t *testing.T) {
	db := NewWithHistory(2)
	present(db, dev1, 1, 100)
	present(db, dev1, 2, 200)
	present(db, dev1, 3, 300)
	// The fix at t=100 has been evicted.
	if _, err := db.LocateAt(dev1, 150); err == nil {
		t.Error("evicted history still answered")
	}
	if fix, err := db.LocateAt(dev1, 250); err != nil || fix.Piconet != 2 {
		t.Errorf("LocateAt(250) = %+v, %v", fix, err)
	}
}

func TestStatsCounters(t *testing.T) {
	db := New()
	present(db, dev1, 1, 10)
	present(db, dev1, 2, 20)
	absent(db, dev1, 2, 30)
	if _, err := db.Locate(dev1); err == nil {
		t.Fatal("expected not present")
	}
	s := db.Stats()
	if s.Updates != 2 || s.Absences != 1 || s.Queries != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConcurrentUpdatesAndQueries(t *testing.T) {
	db := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := baseband.BDAddr(0x100 + i)
			for j := 0; j < 100; j++ {
				present(db, dev, graph.NodeID(j%5), sim.Tick(j))
				if _, err := db.Locate(dev); err != nil {
					t.Errorf("Locate during churn: %v", err)
					return
				}
				db.All()
			}
			absent(db, dev, graph.NodeID(99), 1000) // stale, ignored
		}()
	}
	wg.Wait()
	if db.Present() != 16 {
		t.Errorf("Present = %d, want 16", db.Present())
	}
}
