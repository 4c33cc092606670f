package locdb

import (
	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/sim"
)

// MutOp tags one batched mutation.
type MutOp uint8

// Batchable mutations. Drop (logout) is deliberately absent: it is a
// control-plane operation, not part of the workstation delta stream.
const (
	MutPresence MutOp = iota + 1
	MutAbsence
)

// Mutation is one presence/absence delta of a batch, the storage-layer
// form of a wire.Presence that has already passed business validation.
type Mutation struct {
	Op      MutOp
	Dev     baseband.BDAddr
	Piconet graph.NodeID
	At      sim.Tick
}

// batchScratch is ApplyBatch's reusable grouping storage, pooled on the
// DB so a steady stream of ingest frames does not allocate a fresh set
// of group slices per frame. Everything in it is value-typed, so
// returning it to the pool retains no references.
type batchScratch struct {
	idx    []int32    // per-mutation destination shard
	counts []int32    // per-shard offsets during the counting sort
	order  []Mutation // mutations regrouped by shard, batch order within
	events []Event
}

// ApplyBatch applies a batch of mutations, acquiring each destination
// shard's lock exactly once — the write-path analogue of the read path's
// batch snapshot. For a frame of B deltas spread over S shards it costs
// S lock acquisitions instead of B, and a journaling backend sees the
// whole batch appended inside those S critical sections, so the WAL
// group-commits it as one coalesced write.
//
// Per-device ordering follows the batch order, and the delta semantics
// apply per mutation (see applyLocked: no-ops and stale absences are
// skipped). Subscribers are notified after all shard locks are
// released, in per-shard application order — with concurrent writers on
// other shards this interleaving is no weaker than the one they already
// observe. It returns the number of mutations that changed state.
func (db *DB) ApplyBatch(muts []Mutation) int {
	if len(muts) == 0 {
		return 0
	}
	sc, _ := db.batchPool.Get().(*batchScratch)
	if sc == nil {
		sc = &batchScratch{}
	}
	// Group by shard with a stable counting sort into pooled scratch:
	// one pass to bucket-count, one to scatter. Stability preserves the
	// batch's relative order within each shard, which is all that
	// matters — every stored fact is per-device, and a device always
	// maps to one shard.
	n := len(db.shards)
	if cap(sc.counts) < n {
		sc.counts = make([]int32, n)
	}
	counts := sc.counts[:n]
	for i := range counts {
		counts[i] = 0
	}
	if cap(sc.idx) < len(muts) {
		sc.idx = make([]int32, len(muts))
	}
	idx := sc.idx[:len(muts)]
	for i := range muts {
		j := int32(db.shardIdxOf(muts[i].Dev))
		idx[i] = j
		counts[j]++
	}
	if cap(sc.order) < len(muts) {
		sc.order = make([]Mutation, len(muts))
	}
	order := sc.order[:len(muts)]
	sum := int32(0)
	for j := range counts {
		c := counts[j]
		counts[j] = sum
		sum += c
	}
	for i := range muts {
		j := idx[i]
		order[counts[j]] = muts[i]
		counts[j]++
	}
	// counts[j] is now the end offset of shard j's run in order.

	applied := 0
	events := sc.events[:0]
	start := int32(0)
	for j := 0; j < n; j++ {
		end := counts[j]
		if end == start {
			continue
		}
		sh := db.shards[j]
		sh.mu.Lock()
		for _, m := range order[start:end] {
			if ev, changed := db.applyLocked(sh, j, m); changed {
				applied++
				events = append(events, ev)
			}
		}
		sh.mu.Unlock()
		start = end
	}
	// The whole frame reaches every subscriber as one OnEvents call:
	// batch-aware sinks (fan-out tree, analytics hot tier) amortize
	// their own locking and state sweeps over the frame, mirroring how
	// the journal above group-commits it as one WAL write.
	db.notifyBatch(events)
	sc.events = events[:0]
	db.batchPool.Put(sc)
	return applied
}
