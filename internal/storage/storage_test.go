package storage

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// testOpts returns options with automatic snapshots disabled, so tests
// control exactly when checkpoints happen.
func testOpts(dir string) Options {
	return Options{
		Dir:              dir,
		Shards:           4,
		HistoryLimit:     8,
		SnapshotInterval: -1,
		FlushInterval:    time.Millisecond,
	}
}

func mustOpen(t *testing.T, opts Options) *Durable {
	t.Helper()
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sameState fails the test unless the two stores hold identical device
// state (current fixes, occupancy counts, and full histories).
func sameState(t *testing.T, want, got locdb.Store) {
	t.Helper()
	type dumper interface{ Dump() []locdb.DeviceDump }
	wd := want.(interface{ Dump() []locdb.DeviceDump })
	var gdumps []locdb.DeviceDump
	if g, ok := got.(dumper); ok {
		gdumps = g.Dump()
	} else {
		t.Fatalf("got store %T has no Dump", got)
	}
	wdumps := wd.Dump()
	if !reflect.DeepEqual(wdumps, gdumps) {
		t.Fatalf("state mismatch:\n want %+v\n  got %+v", wdumps, gdumps)
	}
	if w, g := want.Stats().Present, got.Stats().Present; w != g {
		t.Fatalf("Present: want %d, got %d", w, g)
	}
}

// present and absent apply one delta as a one-mutation frame through
// ApplyBatch, the store's only write path.
func present(s locdb.Store, dev baseband.BDAddr, room graph.NodeID, at sim.Tick) {
	s.ApplyBatch([]locdb.Mutation{{Op: locdb.MutPresence, Dev: dev, Piconet: room, At: at}})
}

func absent(s locdb.Store, dev baseband.BDAddr, room graph.NodeID, at sim.Tick) {
	s.ApplyBatch([]locdb.Mutation{{Op: locdb.MutAbsence, Dev: dev, Piconet: room, At: at}})
}

// eventCount is a locdb.Sink counting the events it is handed.
type eventCount int

func (c *eventCount) OnEvents(evs []locdb.Event) { *c += eventCount(len(evs)) }

// applyScript walks devices through a deterministic move/absence/drop
// sequence and returns the store for chaining.
func applyScript(s locdb.Store, steps int) {
	for i := 0; i < steps; i++ {
		dev := baseband.BDAddr(0xD000 + uint64(i%23))
		room := graph.NodeID(i * 3 % 11)
		at := sim.Tick(i)
		switch i % 9 {
		case 7:
			absent(s, dev, room, at)
		case 8:
			if i%27 == 8 {
				s.Drop(dev)
			}
		default:
			present(s, dev, room, at)
		}
	}
}

// TestRecoverFromWALOnly: a synced store that dies without any
// checkpoint recovers its full state from WAL replay alone.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 500)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs:\n want %+v\n  got %+v", want, got)
	}
	if re.StorageStats()["replayed_records"] == 0 {
		t.Fatal("recovery claims zero replayed records after WAL-only crash")
	}
}

// TestRecoverFromSnapshotPlusWAL: state checkpointed mid-stream plus the
// WAL written after it recovers exactly, and compaction removed the
// segments the checkpoint covers.
func TestRecoverFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 300)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	applyScript(d, 700) // overlaps and extends the pre-checkpoint script
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] != 2 {
		t.Fatalf("compaction left segments %v, want first segment to be 2", segs)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs:\n want %+v\n  got %+v", want, got)
	}
	st := re.StorageStats()
	if st["restored_devices"] == 0 {
		t.Fatal("recovery did not use the checkpoint")
	}
}

// TestCleanCloseRecovery: Close writes a final checkpoint, so reopening
// replays nothing and still sees everything.
func TestCleanCloseRecovery(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 400)
	want := d.Dump()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered state differs after clean close")
	}
	st := re.StorageStats()
	if st["replayed_records"] != 0 {
		t.Fatalf("clean close still replayed %d records", st["replayed_records"])
	}
	if st["restored_devices"] == 0 {
		t.Fatal("clean close recovery did not use the final checkpoint")
	}
}

// TestTornTailTolerated: garbage appended to the live segment (a crash
// mid-write) is detected by the per-record CRC and replay stops at the
// last intact record.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	applyScript(d, 200)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A half-record of plausible-looking garbage.
	if _, err := f.Write([]byte{opPresence, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatal("torn tail changed recovered state")
	}
}

// TestUnflushedWritesLost documents the group-commit contract: what was
// never flushed is gone after a crash, and what Sync confirmed is not.
func TestUnflushedWritesLost(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.FlushInterval = time.Hour // flusher never fires on its own
	d := mustOpen(t, opts)
	present(d, 1, 1, 10)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	present(d, 2, 2, 20) // never synced
	d.crash()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if _, err := re.Locate(1); err != nil {
		t.Fatal("synced write lost")
	}
	if _, err := re.Locate(2); err == nil {
		t.Fatal("unsynced write survived a crash — flusher contract broken?")
	}
}

// TestConcurrentLoadCrashRecovery: many goroutines hammer the store
// (same devices from competing writers), then the synced state must
// recover exactly. This is the per-device WAL/memory ordering property.
func TestConcurrentLoadCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				dev := baseband.BDAddr(0xE000 + uint64(i%17)) // shared across workers
				room := graph.NodeID((i + w) % 9)
				switch i % 11 {
				case 10:
					absent(d, dev, room, sim.Tick(i))
				default:
					present(d, dev, room, sim.Tick(i))
				}
				if i%13 == 0 {
					d.Locate(dev)
					d.LocateAt(dev, sim.Tick(i/2))
					d.Trajectory(dev, 0, sim.Tick(i))
				}
			}
		}()
	}
	wg.Wait()
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	want := d.Dump()
	d.crash()

	re := mustOpen(t, testOpts(dir))
	defer re.Close()
	if got := re.Dump(); !reflect.DeepEqual(want, got) {
		t.Fatalf("concurrent-load recovery differs:\n want %+v\n  got %+v", want, got)
	}
}

// TestCloseRacesSnapshotTick: Close must never deadlock with a periodic
// snapshot tick (regression: Close used to hold snapMu while joining
// the loop that was itself blocked on snapMu). An aggressive interval
// plus many iterations makes the race land reliably.
func TestCloseRacesSnapshotTick(t *testing.T) {
	for i := 0; i < 30; i++ {
		opts := testOpts(t.TempDir())
		opts.SnapshotInterval = time.Millisecond
		d := mustOpen(t, opts)
		applyScript(d, 50)
		time.Sleep(time.Millisecond) // let a tick be in flight
		done := make(chan error, 1)
		go func() { done <- d.Close() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("iteration %d: Close: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Close deadlocked against a snapshot tick", i)
		}
	}
}

// TestPeriodicSnapshots: the background loop checkpoints on its own and
// compacts the covered segments.
func TestPeriodicSnapshots(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts(dir)
	opts.SnapshotInterval = 20 * time.Millisecond
	d := mustOpen(t, opts)
	applyScript(d, 300)
	deadline := time.Now().Add(5 * time.Second)
	for d.StorageStats()["snapshots"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no automatic snapshot within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableIsAStore: the durable backend answers the whole query
// surface like the memory backend fed the same deltas.
func TestDurableIsAStore(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	defer d.Close()
	mem, err := locdb.NewSharded(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(d, 500)
	applyScript(mem, 500)
	sameState(t, mem, d)

	for i := 0; i < 23; i++ {
		dev := baseband.BDAddr(0xD000 + uint64(i))
		f1, e1 := mem.Locate(dev)
		f2, e2 := d.Locate(dev)
		if (e1 == nil) != (e2 == nil) || f1 != f2 {
			t.Fatalf("Locate(%v) differs", dev)
		}
		for _, at := range []sim.Tick{0, 100, 499} {
			f1, e1 := mem.LocateAt(dev, at)
			f2, e2 := d.LocateAt(dev, at)
			if (e1 == nil) != (e2 == nil) || f1 != f2 {
				t.Fatalf("LocateAt(%v, %d) differs", dev, at)
			}
		}
		if !reflect.DeepEqual(mem.Trajectory(dev, 50, 450), d.Trajectory(dev, 50, 450)) {
			t.Fatalf("Trajectory(%v) differs", dev)
		}
		if !reflect.DeepEqual(mem.Trajectory(dev, 0, math.MaxInt64), d.Trajectory(dev, 0, math.MaxInt64)) {
			t.Fatalf("history of %v differs", dev)
		}
	}
	if !reflect.DeepEqual(mem.All(), d.All()) {
		t.Fatal("All differs")
	}

	// Events flow through the durable wrapper too.
	var got eventCount
	cancel := d.SubscribeSink(&got)
	defer cancel()
	present(d, 0xF0F0, 1, 1)
	if got != 1 {
		t.Fatalf("subscriber saw %d events, want 1", got)
	}
}

// TestOpenRejectsMissingDir: an empty Dir is a configuration error.
func TestOpenRejectsMissingDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open with no dir accepted")
	}
}

// TestSecondOpenerRejected: one data directory, one process — a second
// concurrent Open must fail loudly instead of interleaving WAL records,
// and the lock must be released by both Close and crash.
func TestSecondOpenerRejected(t *testing.T) {
	dir := t.TempDir()
	d1 := mustOpen(t, testOpts(dir))
	if _, err := Open(testOpts(dir)); err == nil {
		t.Fatal("second opener on a live data directory accepted")
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, testOpts(dir)) // lock released by Close
	d2.crash()
	d3 := mustOpen(t, testOpts(dir)) // and by crash (in-process simulation)
	defer d3.Close()
}

// TestFailedWALIsReported: after the WAL breaks, the store keeps
// serving but StorageStats flags the failure and counts the lost
// records instead of pretending they were flushed.
func TestFailedWALIsReported(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, testOpts(dir))
	defer d.crash()
	d.Logf = t.Logf
	present(d, 1, 1, 10)
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	// Break the WAL under it: close the segment file directly.
	d.walMu.Lock()
	d.wal.f.Close()
	d.walMu.Unlock()
	present(d, 2, 2, 20)
	if err := d.Sync(); err == nil {
		t.Fatal("Sync on a broken WAL reported success")
	}
	st := d.StorageStats()
	if st["wal_failed"] != 1 {
		t.Errorf("wal_failed = %d, want 1", st["wal_failed"])
	}
	if st["wal_lost_records"] == 0 {
		t.Error("lost records not counted")
	}
	// Serving continues from memory.
	if _, err := d.Locate(2); err != nil {
		t.Errorf("Locate after WAL failure: %v", err)
	}
}
