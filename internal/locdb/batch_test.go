package locdb

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// randomMutations builds a deterministic mixed workload: presences,
// moves, re-reports (no-ops) and absences over a pool of devices.
func randomMutations(n int, devices int, rooms int, seed int64) []Mutation {
	rng := rand.New(rand.NewSource(seed))
	muts := make([]Mutation, 0, n)
	for i := 0; i < n; i++ {
		m := Mutation{
			Dev:     baseband.BDAddr(0xB000 + uint64(rng.Intn(devices))),
			Piconet: graph.NodeID(1 + rng.Intn(rooms)),
			At:      sim.Tick(i + 1),
			Op:      MutPresence,
		}
		if rng.Intn(5) == 0 {
			m.Op = MutAbsence
		}
		muts = append(muts, m)
	}
	return muts
}

// applySequentially applies the mutations one frame each.
func applySequentially(db *DB, muts []Mutation) int {
	applied := 0
	for i := range muts {
		applied += db.ApplyBatch(muts[i : i+1])
	}
	return applied
}

func dumpJSON(t *testing.T, db *DB) string {
	t.Helper()
	all := db.All()
	type devHist struct {
		Fix  Fix
		Hist []Fix
	}
	out := make([]devHist, 0, len(all))
	for _, f := range all {
		out = append(out, devHist{Fix: f, Hist: history(db, f.Device)})
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestApplyBatchMatchesSequential: one ApplyBatch call must leave the
// database in exactly the state (fixes, history, counters)
// that applying the same mutations one at a time would.
func TestApplyBatchMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 4, DefaultShards} {
		muts := randomMutations(500, 20, 8, 42)

		seq, err := NewSharded(shards, DefaultHistoryLimit)
		if err != nil {
			t.Fatal(err)
		}
		wantApplied := applySequentially(seq, muts)

		bat, err := NewSharded(shards, DefaultHistoryLimit)
		if err != nil {
			t.Fatal(err)
		}
		gotApplied := bat.ApplyBatch(muts)

		if gotApplied != wantApplied {
			t.Errorf("shards=%d: ApplyBatch applied %d, sequential %d", shards, gotApplied, wantApplied)
		}
		if got, want := dumpJSON(t, bat), dumpJSON(t, seq); got != want {
			t.Errorf("shards=%d: batch state diverges from sequential state\nbatch: %s\nseq:   %s", shards, got, want)
		}
		ss, bs := seq.Stats(), bat.Stats()
		if ss.Updates != bs.Updates || ss.Absences != bs.Absences || ss.Present != bs.Present {
			t.Errorf("shards=%d: stats diverge: batch %+v, sequential %+v", shards, bs, ss)
		}
	}
}

// TestApplyBatchChunkedMatchesWhole: splitting a stream into arbitrary
// frames must not change the outcome (frame boundaries are transport
// artifacts, not semantics).
func TestApplyBatchChunkedMatchesWhole(t *testing.T) {
	muts := randomMutations(300, 10, 6, 7)
	whole := New()
	whole.ApplyBatch(muts)

	chunked := New()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < len(muts); {
		n := 1 + rng.Intn(64)
		if i+n > len(muts) {
			n = len(muts) - i
		}
		chunked.ApplyBatch(muts[i : i+n])
		i += n
	}
	if got, want := dumpJSON(t, chunked), dumpJSON(t, whole); got != want {
		t.Errorf("chunked application diverges from whole-batch application")
	}
}

func TestApplyBatchEmptyAndOps(t *testing.T) {
	db := New()
	if got := db.ApplyBatch(nil); got != 0 {
		t.Errorf("ApplyBatch(nil) = %d, want 0", got)
	}
	dev := baseband.BDAddr(0xB1)
	// Presence, duplicate presence (no-op), absence, stale absence.
	got := db.ApplyBatch([]Mutation{
		{Op: MutPresence, Dev: dev, Piconet: 1, At: 1},
		{Op: MutPresence, Dev: dev, Piconet: 1, At: 2},
		{Op: MutAbsence, Dev: dev, Piconet: 1, At: 3},
		{Op: MutAbsence, Dev: dev, Piconet: 1, At: 4},
	})
	if got != 2 {
		t.Errorf("applied = %d, want 2 (no-op and stale absence skipped)", got)
	}
	if db.Present() != 0 {
		t.Errorf("device still present after absence")
	}
}

// TestApplyBatchEvents: subscribers see one event per state-changing
// mutation, after the shard locks are released (a subscriber may call
// back into the DB).
func TestApplyBatchEvents(t *testing.T) {
	db := New()
	var mu sync.Mutex
	var events []Event
	cancel := db.SubscribeSink(eachEvent(func(ev Event) {
		db.Present() // must not deadlock: locks are released during notify
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}))
	defer cancel()

	devA, devB := baseband.BDAddr(0xA1), baseband.BDAddr(0xA2)
	db.ApplyBatch([]Mutation{
		{Op: MutPresence, Dev: devA, Piconet: 1, At: 1},
		{Op: MutPresence, Dev: devA, Piconet: 1, At: 2}, // no-op, no event
		{Op: MutPresence, Dev: devB, Piconet: 2, At: 3},
		{Op: MutAbsence, Dev: devA, Piconet: 1, At: 4},
	})
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(events), events)
	}
	// Per-device order is preserved regardless of shard grouping.
	var aEvents []Event
	for _, ev := range events {
		if ev.Device == devA {
			aEvents = append(aEvents, ev)
		}
	}
	want := []Event{
		{Fix: Fix{Device: devA, Piconet: 1, At: 1}, Present: true},
		{Fix: Fix{Device: devA, Piconet: 1, At: 4}, Present: false},
	}
	if !reflect.DeepEqual(aEvents, want) {
		t.Errorf("device A events = %+v, want %+v", aEvents, want)
	}
}

// recordingJournal captures the journal stream for coalescing checks.
type recordingJournal struct {
	mu   sync.Mutex
	recs []JournalOp
}

func (j *recordingJournal) Record(shard int, op JournalOp, dev baseband.BDAddr, piconet graph.NodeID, at sim.Tick) {
	j.mu.Lock()
	j.recs = append(j.recs, op)
	j.mu.Unlock()
}

// TestApplyBatchJournals: every state-changing mutation of a batch
// reaches the journal hook (inside the shard lock), no-ops do not.
func TestApplyBatchJournals(t *testing.T) {
	db := New()
	j := &recordingJournal{}
	db.SetJournal(j)
	dev := baseband.BDAddr(0xC1)
	applied := db.ApplyBatch([]Mutation{
		{Op: MutPresence, Dev: dev, Piconet: 1, At: 1},
		{Op: MutPresence, Dev: dev, Piconet: 1, At: 2}, // no-op
		{Op: MutPresence, Dev: dev, Piconet: 2, At: 3},
		{Op: MutAbsence, Dev: dev, Piconet: 2, At: 4},
	})
	if applied != 3 {
		t.Fatalf("applied = %d, want 3", applied)
	}
	want := []JournalOp{JournalPresence, JournalPresence, JournalAbsence}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !reflect.DeepEqual(j.recs, want) {
		t.Errorf("journal stream = %v, want %v", j.recs, want)
	}
}

// BenchmarkApplyBatch measures the write path per delta: batched (one
// lock acquisition per shard per frame) versus one-at-a-time.
func BenchmarkApplyBatch(b *testing.B) {
	const frame = 256
	for _, mode := range []string{"single", "batched"} {
		b.Run(mode, func(b *testing.B) {
			db := New()
			muts := randomMutations(frame, 64, 8, 1)
			b.ResetTimer()
			if mode == "single" {
				for i := 0; i < b.N; i++ {
					m := muts[i%frame]
					m.At = sim.Tick(i)
					present(db, m.Dev, m.Piconet, m.At)
				}
			} else {
				buf := make([]Mutation, frame)
				for i := 0; i < b.N; i += frame {
					copy(buf, muts)
					for k := range buf {
						buf[k].At = sim.Tick(i + k)
						buf[k].Op = MutPresence
					}
					db.ApplyBatch(buf)
				}
			}
		})
	}
}
