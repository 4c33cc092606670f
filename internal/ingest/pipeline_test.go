package ingest

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/locdb"
	"bips/internal/sim"
	"bips/internal/wire"
)

// testResolver accepts every delta for device addresses that parse,
// tracks everything, and rejects the literal device "reject".
func testResolver(p wire.Presence) (locdb.Mutation, bool, error) {
	if p.Device == "reject" {
		return locdb.Mutation{}, false, errors.New("bad device")
	}
	if p.Device == "untracked" {
		return locdb.Mutation{}, false, nil
	}
	dev, err := wire.ParseAddr(p.Device)
	if err != nil {
		return locdb.Mutation{}, false, err
	}
	op := locdb.MutPresence
	if !p.Present {
		op = locdb.MutAbsence
	}
	return locdb.Mutation{Op: op, Dev: dev, Piconet: p.Room, At: p.At}, true, nil
}

func devAddr(i int) string {
	return baseband.BDAddr(0xD000_0000_0000 + uint64(i)).String()
}

func frame(session string, seq uint64, n int, base int) wire.PresenceBatch {
	b := wire.PresenceBatch{Session: session, Seq: seq}
	for i := 0; i < n; i++ {
		b.Deltas = append(b.Deltas, wire.Presence{
			Device: devAddr(base + i), Room: 1, At: sim.Tick(int(seq)*1000 + i), Present: true,
		})
	}
	return b
}

func TestPipelineHelloApplyResume(t *testing.T) {
	db := locdb.New()
	pl := NewPipeline(db, testResolver)

	ack, err := pl.Hello(wire.IngestHello{Session: "s1", Station: "st", Room: 1})
	if err != nil || ack.Acked != 0 {
		t.Fatalf("hello: ack=%+v err=%v", ack, err)
	}
	ack, err = pl.Apply(frame("s1", 1, 3, 0))
	if err != nil || ack.Acked != 1 || ack.Applied != 3 {
		t.Fatalf("frame 1: ack=%+v err=%v", ack, err)
	}
	ack, err = pl.Apply(frame("s1", 2, 2, 10))
	if err != nil || ack.Acked != 2 || ack.Applied != 2 {
		t.Fatalf("frame 2: ack=%+v err=%v", ack, err)
	}
	if db.Present() != 5 {
		t.Fatalf("Present = %d, want 5", db.Present())
	}

	// Duplicate replay: acknowledged, not re-applied.
	before := db.Stats().Updates
	ack, err = pl.Apply(frame("s1", 1, 3, 0))
	if err != nil || !ack.Duplicate || ack.Acked != 2 || ack.Applied != 0 {
		t.Fatalf("duplicate frame: ack=%+v err=%v", ack, err)
	}
	if after := db.Stats().Updates; after != before {
		t.Fatalf("duplicate frame re-applied: updates %d -> %d", before, after)
	}

	// Resume: re-hello reports the cumulative ack.
	ack, err = pl.Hello(wire.IngestHello{Session: "s1", Station: "st", Room: 1})
	if err != nil || ack.Acked != 2 {
		t.Fatalf("resume hello: ack=%+v err=%v", ack, err)
	}
	if got := pl.Stats()["resumes"]; got != 1 {
		t.Fatalf("resumes = %d, want 1", got)
	}
}

func TestPipelineErrors(t *testing.T) {
	pl := NewPipeline(locdb.New(), testResolver)
	if _, err := pl.Hello(wire.IngestHello{Session: "s"}); err != nil {
		t.Fatal(err)
	}

	// Unknown session.
	if _, err := pl.Apply(frame("ghost", 1, 1, 0)); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown session error = %v", err)
	}
	// Malformed frames: empty, zero seq, oversized, no session.
	for name, b := range map[string]wire.PresenceBatch{
		"empty":     {Session: "s", Seq: 1},
		"zero seq":  frameWithSeq("s", 0),
		"oversized": {Session: "s", Seq: 1, Deltas: make([]wire.Presence, wire.MaxBatchDeltas+1)},
		"anonymous": frameWithSeq("", 1),
	} {
		if _, err := pl.Apply(b); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: error = %v, want ErrMalformed", name, err)
		}
	}
	// Far-future and next-but-one frames: both gaps, answered at once.
	for _, seq := range []uint64{66, 2} {
		if _, err := pl.Apply(frame("s", seq, 1, 0)); !errors.Is(err, ErrSeqGap) {
			t.Fatalf("frame %d on a fresh session: error = %v, want ErrSeqGap", seq, err)
		}
	}
	if got := pl.Stats()["seq_gaps"]; got != 2 {
		t.Fatalf("seq_gaps = %d, want 2", got)
	}
}

func frameWithSeq(session string, seq uint64) wire.PresenceBatch {
	f := frame("x", seq, 1, 0)
	f.Session = session
	return f
}

// TestPipelineOutOfOrderFrameRejected: a frame arriving ahead of its
// predecessor is not parked — it is a gap, answered at once, applies
// nothing and leaves the ack alone — and the same frame applies once
// its predecessor has.
func TestPipelineOutOfOrderFrameRejected(t *testing.T) {
	db := locdb.New()
	pl := NewPipeline(db, testResolver)
	if _, err := pl.Hello(wire.IngestHello{Session: "s"}); err != nil {
		t.Fatal(err)
	}
	if _, err := pl.Apply(frame("s", 2, 2, 20)); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("frame 2 before frame 1: error = %v, want ErrSeqGap", err)
	}
	if acked, _ := pl.Acked("s"); acked != 0 || db.Present() != 0 {
		t.Fatalf("rejected frame moved state: acked %d, present %d", acked, db.Present())
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if ack, err := pl.Apply(frame("s", seq, 2, int(seq)*10)); err != nil || ack.Acked != seq {
			t.Fatalf("frame %d: ack=%+v err=%v", seq, ack, err)
		}
	}
	if db.Present() != 4 {
		t.Fatalf("Present = %d, want 4", db.Present())
	}
}

func TestPipelineRejectedAndUntrackedDeltas(t *testing.T) {
	db := locdb.New()
	pl := NewPipeline(db, testResolver)
	if _, err := pl.Hello(wire.IngestHello{Session: "s"}); err != nil {
		t.Fatal(err)
	}
	b := wire.PresenceBatch{Session: "s", Seq: 1, Deltas: []wire.Presence{
		{Device: devAddr(1), Room: 1, At: 1, Present: true},
		{Device: "reject", Room: 1, At: 2, Present: true},
		{Device: "untracked", Room: 1, At: 3, Present: true},
		{Device: devAddr(2), Room: 1, At: 4, Present: true},
	}}
	ack, err := pl.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	// One bad delta is skipped and counted; it does not wedge the
	// session: the ack still advances and the good deltas apply.
	if ack.Acked != 1 || ack.Applied != 2 || ack.Rejected != 1 {
		t.Fatalf("ack = %+v, want acked=1 applied=2 rejected=1", ack)
	}
	if got := pl.Stats()["rejected_deltas"]; got != 1 {
		t.Fatalf("rejected_deltas = %d, want 1", got)
	}
}

func TestPipelineSessionLimit(t *testing.T) {
	pl := NewPipeline(locdb.New(), testResolver, WithMaxSessions(2))
	for i := 0; i < 2; i++ {
		if _, err := pl.Hello(wire.IngestHello{Session: fmt.Sprintf("s%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The table is full of *fresh* sessions (idle < DefaultIdleEvictAfter):
	// nothing may be evicted, the newcomer is rejected.
	if _, err := pl.Hello(wire.IngestHello{Session: "one-too-many"}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("session-limit error = %v", err)
	}
	// Re-hello of a known session is not a new session.
	if _, err := pl.Hello(wire.IngestHello{Session: "s0"}); err != nil {
		t.Fatalf("re-hello rejected: %v", err)
	}
}

// TestPipelineIdleEviction: a full table admits a new session by
// evicting the longest-idle one (abandoned load-generator sessions
// must not permanently exhaust the table), and the evicted station can
// come back as a fresh session.
func TestPipelineIdleEviction(t *testing.T) {
	pl := NewPipeline(locdb.New(), testResolver,
		WithMaxSessions(2), WithIdleEvictAfter(time.Nanosecond))
	if _, err := pl.Hello(wire.IngestHello{Session: "old"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := pl.Hello(wire.IngestHello{Session: "mid"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	if _, err := pl.Hello(wire.IngestHello{Session: "new"}); err != nil {
		t.Fatalf("full table with idle sessions rejected a newcomer: %v", err)
	}
	if _, ok := pl.Acked("old"); ok {
		t.Error("longest-idle session survived the eviction")
	}
	if _, ok := pl.Acked("mid"); !ok {
		t.Error("younger session was evicted instead of the longest-idle one")
	}
	if got := pl.Stats()["evicted_sessions"]; got != 1 {
		t.Errorf("evicted_sessions = %d, want 1", got)
	}
	// The evicted station re-hellos as a fresh session (ack 0 — its
	// client rebases, see the protocol's session-loss rule).
	time.Sleep(2 * time.Millisecond)
	ack, err := pl.Hello(wire.IngestHello{Session: "old"})
	if err != nil || ack.Acked != 0 {
		t.Fatalf("evicted session re-hello: ack=%+v err=%v", ack, err)
	}
}
