package ingest

import (
	"fmt"
	"testing"

	"bips/internal/wire"
)

func delta(i int) wire.Presence {
	return wire.Presence{Device: fmt.Sprintf("00:00:00:00:00:%02X", i%256), Room: 1, At: 1, Present: true}
}

func TestBatcherCutAndAck(t *testing.T) {
	b := NewBatcher(3)
	if frames := b.CutFrame(nil); len(frames) != 0 {
		t.Fatalf("CutFrame of nothing cut %+v", frames)
	}
	if _, ok := b.Next(); ok {
		t.Fatal("Next on empty batcher returned a frame")
	}
	f := b.CutFrame([]wire.Presence{delta(1), delta(2), delta(3)})
	if len(f) != 1 || f[0].Seq != 1 || len(f[0].Deltas) != 3 {
		t.Fatalf("first frame = %+v", f)
	}
	f2 := b.CutFrame([]wire.Presence{delta(4)})
	if len(f2) != 1 || f2[0].Seq != 2 || len(f2[0].Deltas) != 1 {
		t.Fatalf("second frame = %+v", f2)
	}

	if got, _ := b.Next(); got.Seq != 1 {
		t.Fatalf("Next = frame %d, want 1", got.Seq)
	}
	b.Ack(1)
	if got, _ := b.Next(); got.Seq != 2 {
		t.Fatalf("after ack 1, Next = frame %d, want 2", got.Seq)
	}
	b.Ack(2)
	if _, ok := b.Next(); ok {
		t.Fatal("frames remain after full ack")
	}
	// Ack regression is ignored.
	b.Ack(1)
	if b.Acked() != 2 {
		t.Fatalf("acked = %d after regression, want 2", b.Acked())
	}
}

func TestBatcherCutFrameSplits(t *testing.T) {
	b := NewBatcher(4)
	deltas := make([]wire.Presence, 10)
	for i := range deltas {
		deltas[i] = delta(i)
	}
	frames := b.CutFrame(deltas)
	if len(frames) != 3 {
		t.Fatalf("CutFrame(10 deltas, max 4) cut %d frames, want 3", len(frames))
	}
	sizes := []int{4, 4, 2}
	for i, f := range frames {
		if f.Seq != uint64(i+1) || len(f.Deltas) != sizes[i] {
			t.Fatalf("frame %d = seq %d size %d, want seq %d size %d", i, f.Seq, len(f.Deltas), i+1, sizes[i])
		}
	}
	if b.UnackedDeltas() != 10 {
		t.Fatalf("UnackedDeltas = %d, want 10", b.UnackedDeltas())
	}
}

// TestBatcherResumeSkipsRegenerated: a restarted station resumes at the
// server's ack; frames it regenerates below the ack are retired by Next
// without ever being sent.
func TestBatcherResumeSkipsRegenerated(t *testing.T) {
	b := NewBatcher(2)
	b.Ack(3) // resume: server already applied frames 1..3 in a previous life
	deltas := make([]wire.Presence, 8)
	for i := range deltas {
		deltas[i] = delta(i)
	}
	b.CutFrame(deltas)
	f, ok := b.Next()
	if !ok || f.Seq != 4 {
		t.Fatalf("Next = %+v ok=%v, want frame 4 (1..3 skipped)", f, ok)
	}
	if b.Skipped() != 3 {
		t.Fatalf("Skipped = %d, want 3", b.Skipped())
	}
}

// TestBatcherRebase: when the server lost the session, the backlog is
// renumbered onto the server's position and replays from there.
func TestBatcherRebase(t *testing.T) {
	b := NewBatcher(1)
	for i := 0; i < 6; i++ {
		b.CutFrame([]wire.Presence{delta(i)})
	}
	b.Ack(4) // frames 1..4 delivered; 5, 6 in the backlog
	b.Rebase(0)
	f, ok := b.Next()
	if !ok || f.Seq != 1 {
		t.Fatalf("after rebase Next = %+v, want renumbered frame 1", f)
	}
	b.Ack(1)
	f, _ = b.Next()
	if f.Seq != 2 {
		t.Fatalf("second rebased frame = %d, want 2", f.Seq)
	}
	b.CutFrame([]wire.Presence{delta(9)})
	b.Ack(2)
	f3, ok := b.Next()
	if !ok || f3.Seq != 3 {
		t.Fatalf("frame cut after rebase = seq %d ok=%v, want 3", f3.Seq, ok)
	}
}

func TestBatcherClampsToWireLimit(t *testing.T) {
	b := NewBatcher(wire.MaxBatchDeltas * 10)
	if b.maxBatch != wire.MaxBatchDeltas {
		t.Fatalf("maxBatch = %d, want clamp to %d", b.maxBatch, wire.MaxBatchDeltas)
	}
}
