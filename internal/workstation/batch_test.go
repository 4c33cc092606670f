package workstation

import (
	"math/rand"
	"reflect"
	"testing"

	"bips/internal/baseband"
	"bips/internal/hci"
	"bips/internal/radio"
	"bips/internal/sim"
)

// runTrackingSim drives a small cell with moving devices and returns
// the reporter's observed delta stream plus the workstation stats.
func runTrackingSim(t *testing.T, seed int64, cfg Config, rec Reporter) Stats {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	k := sim.NewKernel(rng.Int63())
	med := radio.NewMedium()
	med.Place(radio.Station{Addr: 1, Pos: radio.Point{X: 0, Y: 0}})
	for i := 0; i < 3; i++ {
		med.Place(radio.Station{Addr: baseband.BDAddr(0xB1 + uint64(i)), Pos: radio.Point{X: float64(i), Y: 0}})
	}
	ctrl := hci.New(k, hci.Config{Addr: 1}, med)
	defer ctrl.Close()
	ws, err := New(k, ctrl, cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ctrl.AttachDevice(testDevice(rng, baseband.BDAddr(0xB1+uint64(i))))
	}
	ws.Start()
	k.RunUntil(60 * sim.TicksPerSecond)
	// Move one device out of range so absences join the stream.
	med.Move(0xB1, radio.Point{X: 99, Y: 0})
	k.RunUntil(150 * sim.TicksPerSecond)
	ws.Stop()
	return ws.Stats()
}

// TestBatchedStreamMatchesUnbatched: buffering must reorder nothing and
// lose nothing — the concatenated batches are exactly the per-delta
// stream of an identical unbuffered run.
func TestBatchedStreamMatchesUnbatched(t *testing.T) {
	plain := &recorder{}
	runTrackingSim(t, 11, Config{Room: 4}, plain)

	batched := &recorder{}
	st := runTrackingSim(t, 11, Config{Room: 4, BatchMax: 4, BatchDelay: 5 * sim.TicksPerSecond}, batched)

	if len(plain.reports) == 0 {
		t.Fatal("simulation produced no deltas; test is vacuous")
	}
	if !reflect.DeepEqual(batched.reports, plain.reports) {
		t.Errorf("batched stream diverges:\nbatched: %+v\nplain:   %+v", batched.reports, plain.reports)
	}
	if st.Batches == 0 || st.Batches != len(batched.batches) {
		t.Errorf("stats.Batches = %d, recorder saw %d", st.Batches, len(batched.batches))
	}
	if st.Buffered != 0 {
		t.Errorf("Buffered = %d after Stop, want 0 (Stop flushes)", st.Buffered)
	}
	for _, b := range batched.batches {
		if len(b) > 4 {
			t.Errorf("batch of %d deltas exceeds BatchMax 4", len(b))
		}
	}
}

// TestBatchFlushDeterminism: the same seed must cut byte-identical
// batches — the property station resume-by-sequence relies on.
func TestBatchFlushDeterminism(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	cfg := Config{Room: 4, BatchMax: 3, BatchDelay: 7 * sim.TicksPerSecond}
	runTrackingSim(t, 23, cfg, a)
	runTrackingSim(t, 23, cfg, b)
	if !reflect.DeepEqual(a.batches, b.batches) {
		t.Errorf("same seed cut different batches:\nA: %+v\nB: %+v", a.batches, b.batches)
	}
}

// TestUnbatchedFramesHoldOneDelta: without a batch policy every delta
// is reported at once, as a frame of its own, and a batch policy
// regroups the same stream without reordering it.
func TestUnbatchedFramesHoldOneDelta(t *testing.T) {
	plain := &recorder{}
	st := runTrackingSim(t, 31, Config{Room: 4}, plain)
	buffered := &recorder{}
	runTrackingSim(t, 31, Config{Room: 4, BatchMax: 8}, buffered)
	if len(plain.reports) == 0 {
		t.Fatal("no deltas; test is vacuous")
	}
	if len(plain.batches) != len(plain.reports) || st.Batches != len(plain.batches) {
		t.Errorf("unbatched run reported %d frames for %d deltas (stats.Batches %d), want one frame per delta",
			len(plain.batches), len(plain.reports), st.Batches)
	}
	if !reflect.DeepEqual(buffered.reports, plain.reports) {
		t.Errorf("buffered stream diverges:\nbuffered: %+v\nplain:    %+v", buffered.reports, plain.reports)
	}
}

func TestBatchConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	ctrl := hci.New(k, hci.Config{Addr: 1}, nil)
	defer ctrl.Close()
	if _, err := New(k, ctrl, Config{Room: 1, BatchMax: -1}, &recorder{}); err == nil {
		t.Error("negative BatchMax accepted")
	}
	ws, err := New(k, ctrl, Config{Room: 1, BatchMax: 5}, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if ws.cfg.BatchDelay != ws.cfg.Cycle.Period {
		t.Errorf("BatchDelay default = %v, want cycle period %v", ws.cfg.BatchDelay, ws.cfg.Cycle.Period)
	}
}
