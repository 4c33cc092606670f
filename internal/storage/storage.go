// Package storage is the durable backend of the BIPS location database:
// an in-memory locdb.DB for serving, an append-only write-ahead log for
// durability, and periodic snapshots for bounded recovery time. It turns
// the central server from a process that forgets the whole campus on
// restart into one that recovers identical presence state and history
// from disk.
//
// # Data layout
//
// A data directory holds numbered WAL segments (wal-<seq>.log) and
// checkpoints (snap-<seq>.json). A checkpoint at sequence N captures the
// complete device state after every record of segments 1..N; recovery
// loads the newest readable checkpoint and replays only the segments
// after it. Taking a checkpoint drains every pending record into the
// closing segment before rotating the WAL, so segments and checkpoints
// never overlap, and compaction simply deletes what the new checkpoint
// covers.
//
// # Write path
//
// The store journals through locdb's Journal hook: every mutation that
// actually changed state (the delta protocol's no-ops never reach the
// hook) appends one fixed-size record to a per-shard buffer while the
// mutating goroutine still holds the shard lock. The delta hot path
// therefore pays one bounds-checked slice append — no extra mutex, no
// encoding, no syscall. A background flusher drains the shard buffers
// every FlushInterval, encodes them, and writes one batch with a single
// write syscall (the group commit). The cost is a bounded durability
// window: on a crash (SIGKILL, power loss) the records of the last
// unflushed interval are lost; the recovered state is a consistent,
// slightly older cut. Sync provides a barrier for callers that need
// stronger guarantees.
//
// Per-device ordering between the memory store and the WAL holds by
// construction: a device's records are appended to its shard's buffer
// inside the same critical section that mutates the shard, so replay
// converges on exactly the state the memory store held (cross-device
// interleaving is immaterial — every stored fact is per-device). Replay
// is additionally idempotent (re-applying a presence the state already
// reflects is a no-op, in history too), which makes recovery insensitive
// to the exact flush boundary.
package storage

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// Defaults for Options.
const (
	// DefaultFlushInterval is the WAL group-commit interval: the upper
	// bound on how much recent history a crash can lose. 10 ms matches
	// the periodic commit-log mode of production stores (for comparison,
	// Cassandra's commitlog_sync_period default); it amortizes the
	// write syscall over large batches while keeping the loss window
	// well under one workstation inquiry cycle.
	DefaultFlushInterval = 10 * time.Millisecond
	// DefaultSnapshotInterval bounds recovery time: at most one
	// interval's worth of WAL is ever replayed on restart.
	DefaultSnapshotInterval = 30 * time.Second

	// replayBatch bounds one recovery ApplyBatch call, so replaying a
	// long WAL never holds more than one batch of mutations in memory.
	replayBatch = 4096
)

// Options configures Open.
type Options struct {
	// Dir is the data directory; it is created if missing.
	Dir string
	// Shards is the in-memory store's shard count; 0 selects
	// locdb.DefaultShards.
	Shards int
	// HistoryLimit bounds per-device history; 0 selects
	// locdb.DefaultHistoryLimit, negative disables history.
	HistoryLimit int
	// SnapshotInterval is the automatic checkpoint period; 0 selects
	// DefaultSnapshotInterval, negative disables automatic checkpoints
	// (Close still writes a final one).
	SnapshotInterval time.Duration
	// FlushInterval is the WAL group-commit period; 0 selects
	// DefaultFlushInterval.
	FlushInterval time.Duration
	// Fsync additionally fsyncs every group commit. It shrinks the
	// crash-loss window from FlushInterval to a single commit at a
	// large throughput cost; rotation, Sync and Close always fsync.
	Fsync bool
}

func (o *Options) fill() error {
	if o.Dir == "" {
		return errors.New("storage: no data directory")
	}
	if o.Shards == 0 {
		o.Shards = locdb.DefaultShards
	}
	if o.HistoryLimit == 0 {
		o.HistoryLimit = locdb.DefaultHistoryLimit
	}
	if o.HistoryLimit < 0 {
		o.HistoryLimit = 0
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = DefaultSnapshotInterval
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = DefaultFlushInterval
	}
	return nil
}

// Durable is the durable locdb.Store: an in-memory DB whose journal
// hook writes through (asynchronously, group-committed) to a WAL.
type Durable struct {
	mem *locdb.DB
	wal *wal
	dir string

	// closed stops the journal hook after Close/crash. Mutations still
	// reach the memory store; they are simply no longer made durable.
	closed atomic.Bool

	// bufs[i] is shard i's pending-record buffer. It is only ever
	// touched under shard i's lock: appends come from the journal hook
	// (mutators hold the lock), drains go through WithShard /
	// CheckpointShard. spares[i] recycles the previously flushed
	// buffer so the steady state allocates nothing.
	bufs   [][]record
	spares [][]record

	// walMu serializes every file-side operation (flush, sync,
	// checkpoint, close) so a drained batch can never cross a segment
	// rotation — the invariant that keeps snapshots and segments
	// non-overlapping. Lock order: walMu before shard locks.
	walMu sync.Mutex

	// snapMu serializes checkpoints (periodic loop, Snapshot, Close).
	snapMu sync.Mutex

	snapshots    atomic.Int64
	lastSnapSeq  atomic.Uint64
	flushedRecs  atomic.Int64
	lostRecs     atomic.Int64
	replayedRecs int64
	restoredDevs int64
	failOnce     sync.Once

	// Logf reports WAL failures; defaults to log.Printf.
	Logf func(format string, args ...any)

	// unlock releases the data-directory lock (lockDir).
	unlock func()

	stopBg chan struct{}
	bgDone sync.WaitGroup
}

// Durable implements locdb.Store.
var _ locdb.Store = (*Durable)(nil)

// Open recovers the store from dir (creating it when empty) and begins
// accepting writes. Recovery = newest readable checkpoint + replay of
// every intact WAL record after it.
func Open(opts Options) (*Durable, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	// One process per data directory: a second opener must fail loudly
	// instead of interleaving records into the same segments.
	unlock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if unlock != nil {
			unlock()
		}
	}()

	mem, err := locdb.NewSharded(opts.Shards, opts.HistoryLimit)
	if err != nil {
		return nil, err
	}
	d := &Durable{
		mem:    mem,
		dir:    opts.Dir,
		bufs:   make([][]record, mem.NumShards()),
		spares: make([][]record, mem.NumShards()),
		stopBg: make(chan struct{}),
	}

	snap, haveSnap, err := loadLatestSnapshot(opts.Dir)
	if err != nil {
		return nil, err
	}
	coveredSeq := uint64(0)
	if haveSnap {
		if err := mem.Restore(snap.Devices); err != nil {
			return nil, fmt.Errorf("storage: restore snapshot %d: %w", snap.Seq, err)
		}
		coveredSeq = snap.Seq
		d.restoredDevs = int64(len(snap.Devices))
	}

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	// Replay takes the live write path: runs of presence/absence records
	// enter through ApplyBatch, and a drop record first applies the run
	// before it, so the drop sees every earlier mutation of its device.
	var run []locdb.Mutation
	replay := func(r record) {
		if r.op == opDrop || len(run) == replayBatch {
			mem.ApplyBatch(run)
			run = run[:0]
		}
		op := locdb.MutPresence
		switch r.op {
		case opDrop:
			mem.Drop(r.dev)
			return
		case opAbsence:
			op = locdb.MutAbsence
		}
		run = append(run, locdb.Mutation{Op: op, Dev: r.dev, Piconet: r.room, At: r.at})
	}
	nextSeq := coveredSeq + 1
	for _, seq := range segs {
		if seq >= nextSeq {
			nextSeq = seq + 1
		}
		if seq <= coveredSeq {
			continue // already reflected in the checkpoint
		}
		n, err := replaySegment(segPath(opts.Dir, seq), replay)
		if err != nil {
			return nil, err
		}
		d.replayedRecs += int64(n)
	}
	mem.ApplyBatch(run)

	w, err := openWAL(opts.Dir, nextSeq, opts.Fsync)
	if err != nil {
		return nil, err
	}
	d.wal = w
	d.lastSnapSeq.Store(coveredSeq)
	d.unlock = unlock
	unlock = nil // ownership moves to the Durable; released on Close/crash

	// The journal hook is installed only after recovery, so replay
	// itself is never re-journaled.
	mem.SetJournal(d)

	d.bgDone.Add(2)
	go d.flushLoop(opts.FlushInterval)
	go d.snapshotLoop(opts.SnapshotInterval)
	return d, nil
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, segmentName(seq))
}

// Record implements locdb.Journal: it runs inside the mutated shard's
// write lock and appends one pending record to that shard's buffer.
func (d *Durable) Record(shard int, op locdb.JournalOp, dev baseband.BDAddr, piconet graph.NodeID, at sim.Tick) {
	if d.closed.Load() {
		return
	}
	var walOp byte
	switch op {
	case locdb.JournalPresence:
		walOp = opPresence
	case locdb.JournalAbsence:
		walOp = opAbsence
	case locdb.JournalDrop:
		walOp = opDrop
	default:
		return
	}
	d.bufs[shard] = append(d.bufs[shard], record{op: walOp, dev: dev, room: piconet, at: at})
}

// flushLoop is the group-commit pump.
func (d *Durable) flushLoop(interval time.Duration) {
	defer d.bgDone.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			_ = d.flush(false)
		case <-d.stopBg:
			return
		}
	}
}

// flush drains every shard's pending records and writes them to the
// open segment as one group commit; sync additionally fsyncs. A write
// failure is sticky in the WAL: the store keeps serving from memory,
// but records drained after the failure are lost — the failure is
// logged once and reported in StorageStats (wal_failed) so operators
// see a store that is no longer durable.
func (d *Durable) flush(sync bool) error {
	d.walMu.Lock()
	defer d.walMu.Unlock()
	batches, owners := d.drainLocked(nil)
	if len(batches) == 0 && !sync {
		return nil
	}
	err := d.wal.writeRecords(batches, sync)
	d.recycle(batches, owners, err == nil)
	if err != nil {
		d.logFailureOnce(err)
	}
	return err
}

// logFailureOnce reports the first WAL failure to the operator log.
func (d *Durable) logFailureOnce(err error) {
	d.failOnce.Do(func() {
		logf := d.Logf
		if logf == nil {
			logf = log.Printf
		}
		logf("storage: WAL write failed, store is NO LONGER DURABLE (serving continues from memory): %v", err)
	})
}

// drainLocked detaches every non-empty shard buffer (each under its
// shard lock), swapping in the recycled spare. When dumps is non-nil it
// additionally checkpoints each shard in the same critical section,
// appending the shard's device dumps. Caller holds walMu.
func (d *Durable) drainLocked(dumps *[]locdb.DeviceDump) (batches [][]record, owners []int) {
	for i := range d.bufs {
		drain := func() {
			if len(d.bufs[i]) > 0 {
				batches = append(batches, d.bufs[i])
				owners = append(owners, i)
				d.bufs[i] = d.spares[i]
				d.spares[i] = nil
			}
		}
		if dumps == nil {
			d.mem.WithShard(i, drain)
		} else {
			*dumps = append(*dumps, d.mem.CheckpointShard(i, drain)...)
		}
	}
	return batches, owners
}

// recycle hands written batches back to their shards for reuse.
// written=false (the commit failed) still recycles the buffers but does
// not count the records as flushed — they were lost, not persisted.
func (d *Durable) recycle(batches [][]record, owners []int, written bool) {
	for i, idx := range owners {
		if written {
			d.flushedRecs.Add(int64(len(batches[i])))
		} else {
			d.lostRecs.Add(int64(len(batches[i])))
		}
		batch := batches[i][:0]
		d.mem.WithShard(idx, func() {
			if d.spares[idx] == nil {
				d.spares[idx] = batch
			}
		})
	}
}

func (d *Durable) snapshotLoop(interval time.Duration) {
	defer d.bgDone.Done()
	if interval < 0 {
		<-d.stopBg
		return
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			_ = d.Snapshot()
		case <-d.stopBg:
			return
		}
	}
}

// --- Store interface (mutations journal through the hook) -----------------

// Drop erases the device in memory and on disk.
func (d *Durable) Drop(dev baseband.BDAddr) bool { return d.mem.Drop(dev) }

// ApplyBatch applies the batch; the journal hook records every changed
// mutation inside its shard's critical section, so the next group
// commit persists the whole batch as one coalesced write.
func (d *Durable) ApplyBatch(muts []locdb.Mutation) int { return d.mem.ApplyBatch(muts) }

// Locate returns the device's current fix.
func (d *Durable) Locate(dev baseband.BDAddr) (locdb.Fix, error) { return d.mem.Locate(dev) }

// LocateAt returns the fix whose run covers tick at.
func (d *Durable) LocateAt(dev baseband.BDAddr, at sim.Tick) (locdb.Fix, error) {
	return d.mem.LocateAt(dev, at)
}

// Trajectory returns the fixes overlapping [from, to].
func (d *Durable) Trajectory(dev baseband.BDAddr, from, to sim.Tick) []locdb.Fix {
	return d.mem.Trajectory(dev, from, to)
}

// All returns every current fix. The slice is a shared immutable
// snapshot.
func (d *Durable) All() []locdb.Fix { return d.mem.All() }

// Dump returns every device's full state from the memory store.
func (d *Durable) Dump() []locdb.DeviceDump { return d.mem.Dump() }

// HistoryLimit reports the memory store's per-device history bound.
func (d *Durable) HistoryLimit() int { return d.mem.HistoryLimit() }

// Stats returns the memory store's activity counters.
func (d *Durable) Stats() locdb.Stats { return d.mem.Stats() }

// NumShards reports the memory store's shard count.
func (d *Durable) NumShards() int { return d.mem.NumShards() }

// SubscribeSink registers a delta consumer; each ApplyBatch frame
// reaches it as one OnEvents call.
func (d *Durable) SubscribeSink(s locdb.Sink) (cancel func()) { return d.mem.SubscribeSink(s) }

// --- Durability operations ------------------------------------------------

// Sync is the durability barrier: every mutation that returned before
// the call is on disk (flushed and fsynced) when it returns.
func (d *Durable) Sync() error { return d.flush(true) }

// Snapshot takes a checkpoint now. Shard by shard, the pending records
// are drained and the state is dumped in one critical section; the
// drained records are written to the closing segment, the WAL rotates,
// and the dump is persisted atomically. Everything the checkpoint
// covers is then compacted away. Queries and mutations of other shards
// keep running throughout.
func (d *Durable) Snapshot() error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	if d.closed.Load() {
		return errors.New("storage: closed")
	}
	return d.checkpoint()
}

// checkpoint drains + dumps + rotates + persists. Caller holds snapMu.
func (d *Durable) checkpoint() error {
	var dumps []locdb.DeviceDump
	d.walMu.Lock()
	batches, owners := d.drainLocked(&dumps)
	// written tracks the write alone: records that reached the fsynced
	// segment are durable (recoverable by replay) even if the rotation
	// after them fails, and must not be reported as lost.
	werr := d.wal.writeRecords(batches, true)
	var coveredSeq uint64
	err := werr
	if err == nil {
		coveredSeq, err = d.wal.rotate()
	}
	d.walMu.Unlock()
	d.recycle(batches, owners, werr == nil)
	if err != nil {
		d.logFailureOnce(err)
		return err
	}
	locdb.SortDumps(dumps)
	snap := snapshot{
		Version:      snapshotVersion,
		Seq:          coveredSeq,
		HistoryLimit: d.mem.HistoryLimit(),
		Devices:      dumps,
	}
	if err := writeSnapshot(d.dir, snap); err != nil {
		return err
	}
	d.snapshots.Add(1)
	d.lastSnapSeq.Store(coveredSeq)
	return compact(d.dir, coveredSeq)
}

// StorageStats reports the durability-side counters (the memory-side
// activity counters come from Stats). The serving layer merges them
// into MsgStats under the "storage." prefix.
func (d *Durable) StorageStats() map[string]int64 {
	records := d.flushedRecs.Load()
	for i := range d.bufs {
		d.mem.WithShard(i, func() { records += int64(len(d.bufs[i])) })
	}
	failed := int64(0)
	d.walMu.Lock()
	if d.wal.err != nil {
		failed = 1
	}
	d.walMu.Unlock()
	return map[string]int64{
		"wal_records":      records,
		"wal_bytes":        records * recSize,
		"wal_failed":       failed,
		"wal_lost_records": d.lostRecs.Load(),
		"snapshots":        d.snapshots.Load(),
		"snapshot_seq":     int64(d.lastSnapSeq.Load()),
		"replayed_records": d.replayedRecs,
		"restored_devices": d.restoredDevs,
	}
}

// Close checkpoints the final state and closes the WAL. The data
// directory is left so a new Open recovers instantly from the snapshot.
// Mutations arriving during Close reach the memory store but are no
// longer made durable; stop the serving layer first.
//
// Shutdown ordering matters: the closed flag flips and the background
// goroutines are joined BEFORE snapMu is taken. Taking snapMu first
// would deadlock with a snapshotLoop tick blocked inside Snapshot()
// waiting for that same mutex; with the flag already set, such an
// in-flight Snapshot acquires snapMu, sees closed, and returns.
func (d *Durable) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.stopBg)
	d.bgDone.Wait()
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	// The final checkpoint drains everything journaled before the
	// closed flag flipped, so a clean shutdown loses nothing.
	err := d.checkpoint()
	d.walMu.Lock()
	if cerr := d.wal.close(); cerr != nil && err == nil {
		err = cerr
	}
	d.walMu.Unlock()
	d.unlock()
	return err
}

// crash simulates SIGKILL for tests: background goroutines stop, the
// pending shard buffers are lost, file handles close, and no final
// checkpoint is written. The next Open must recover from whatever
// already reached disk. It uses the same join-before-snapMu ordering
// as Close (see there).
func (d *Durable) crash() {
	if d.closed.Swap(true) {
		return
	}
	close(d.stopBg)
	d.bgDone.Wait()
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	d.walMu.Lock()
	d.wal.crash()
	d.walMu.Unlock()
	// A real SIGKILL drops the flock with the process; the in-process
	// simulation must drop it explicitly so tests can reopen the dir.
	d.unlock()
}
