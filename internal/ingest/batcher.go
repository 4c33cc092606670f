package ingest

import (
	"bips/internal/wire"
)

// DefaultMaxBatch is the default frame size: large enough to amortize a
// round trip over many deltas, small enough that a frame flushes well
// within one workstation inquiry cycle under campus load.
const DefaultMaxBatch = 64

// Frame is one cut, sequenced batch of deltas. Once cut, a frame's
// (Seq, Deltas) pair never changes — re-sending it after a reconnect
// re-sends exactly the same content, which is what makes the server's
// duplicate detection by sequence number sound.
type Frame struct {
	Seq    uint64
	Deltas []wire.Presence
}

// Batcher is the pure client-side state machine of an ingest session:
// it seals reported batches into sequenced frames and tracks the unacked
// window for resume. It does no I/O and keeps no clock — the caller's
// batch boundaries (the workstation's flush ticks, on simulation time)
// are the frame boundaries — and it is not safe for concurrent use on
// its own; Client wraps it with a lock.
type Batcher struct {
	maxBatch int
	nextSeq  uint64
	acked    uint64
	unacked  []Frame
	skipped  int64
}

// NewBatcher returns an empty batcher cutting frames of at most
// maxBatch deltas (0 or negative selects DefaultMaxBatch; values beyond
// wire.MaxBatchDeltas are clamped to it).
func NewBatcher(maxBatch int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if maxBatch > wire.MaxBatchDeltas {
		maxBatch = wire.MaxBatchDeltas
	}
	return &Batcher{maxBatch: maxBatch, nextSeq: 1}
}

// CutFrame seals a batch (e.g. a workstation flush) into the next
// sequenced frame. Deltas beyond the frame size are split into multiple
// frames; the returned slice lists every frame cut, in order.
func (b *Batcher) CutFrame(deltas []wire.Presence) []Frame {
	var out []Frame
	for len(deltas) > 0 {
		n := len(deltas)
		if n > b.maxBatch {
			n = b.maxBatch
		}
		f := Frame{Seq: b.nextSeq, Deltas: append([]wire.Presence(nil), deltas[:n]...)}
		b.nextSeq++
		b.unacked = append(b.unacked, f)
		out = append(out, f)
		deltas = deltas[n:]
	}
	return out
}

// Next returns the oldest frame that still needs sending: the first
// unacked frame with Seq > Acked. Frames at or below the ack (applied
// by the server in a previous life of this station) are dropped without
// ever being sent.
func (b *Batcher) Next() (Frame, bool) {
	for len(b.unacked) > 0 && b.unacked[0].Seq <= b.acked {
		b.unacked = b.unacked[1:]
		b.skipped++
	}
	if len(b.unacked) == 0 {
		return Frame{}, false
	}
	return b.unacked[0], true
}

// Ack records the server's cumulative ack, dropping every frame at or
// below it. Regressions are ignored (acks are cumulative). An ack
// learned from a (re)hello works the same way and doubles as the
// resume point: it may run ahead of every frame cut so far (a
// restarted station deterministically regenerating its stream), in
// which case the regenerated frames are retired by Next when they are
// eventually cut, without ever being sent.
func (b *Batcher) Ack(acked uint64) {
	if acked <= b.acked {
		return
	}
	b.acked = acked
	for len(b.unacked) > 0 && b.unacked[0].Seq <= acked {
		b.unacked = b.unacked[1:]
	}
}

// Rebase renumbers the unacked frames to follow acked and rewinds the
// sequence counter — the recovery path for a server that lost its
// session table (a restart: the location state recovers from the WAL,
// the in-memory acks do not). The renumbered frames replay on top of
// the recovered state; frames that were applied but whose ack was lost
// re-apply as no-ops (the delta semantics make replay idempotent), so
// rebasing loses nothing and duplicates nothing.
func (b *Batcher) Rebase(acked uint64) {
	b.acked = acked
	seq := acked
	for i := range b.unacked {
		seq++
		b.unacked[i].Seq = seq
	}
	b.nextSeq = seq + 1
}

// Acked returns the highest cumulative ack seen.
func (b *Batcher) Acked() uint64 { return b.acked }

// Skipped counts frames retired by Next without being sent — frames a
// restarted station regenerated that the server had already applied.
func (b *Batcher) Skipped() int64 { return b.skipped }

// Unacked returns the number of cut frames not yet acked (including
// ones Next would drop as pre-acked).
func (b *Batcher) Unacked() int { return len(b.unacked) }

// UnackedDeltas counts the deltas in unacked frames still to send.
func (b *Batcher) UnackedDeltas() int {
	n := 0
	for _, f := range b.unacked {
		if f.Seq > b.acked {
			n += len(f.Deltas)
		}
	}
	return n
}
