// Package locdb implements the BIPS central location database of Section 2:
// it stores, for every tracked device, the piconet (room) it was last seen
// in. Workstations reveal presences at fixed intervals and, to reduce
// computational and communication load, update the database only when they
// detect a new presence or a new absence. The database answers the paper's
// spatio-temporal query ("select the target actual piconet of the mobile
// device BD_ADDR1 ...") and keeps a bounded movement history per device in
// a time-indexed histdb.Index, so the historical forms of the query —
// LocateAt (point in time) and Trajectory (time window) — are binary
// searches over presence runs rather than scans.
//
// The DB here is the in-memory storage engine; the Store interface
// (store.go) is what the serving layer programs against, and
// internal/storage provides the durable backend (write-ahead log +
// snapshots) that wraps this one.
//
// # Sharding
//
// At campus scale one mutex around one map is the serving bottleneck: every
// workstation delta and every Locate contends on it. The database is
// therefore split into N independently locked shards, keyed by a mixed hash
// of the device address. Operations on one device touch exactly one shard,
// so presence deltas and queries for different devices proceed in parallel;
// cross-shard views (All, Dump, Stats) visit the shards one at a time and
// are therefore not a single atomic cut across devices — each shard is
// internally consistent, which is exactly the consistency the paper's
// delta protocol provides anyway (workstation reports race with queries by
// design).
//
// The batch read path is additionally lock-free in the steady state: All
// serves one merged snapshot cached against the shards' version counters
// (snapshot.go), so on a quiescent database it costs one atomic load per
// shard and no lock acquisition.
package locdb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/histdb"
	"bips/internal/sim"
)

// DefaultHistoryLimit bounds the per-device movement history.
const DefaultHistoryLimit = 128

// DefaultShards is the shard count used by New. It is sized for a
// many-core server; WithShards / NewSharded override it.
const DefaultShards = 16

// MaxShards bounds the shard count to something sane.
const MaxShards = 4096

// Errors reported by the database.
var (
	// ErrNotPresent is returned when a device has no known position.
	ErrNotPresent = errors.New("locdb: device not present in any piconet")
	// ErrBadShards is returned for an out-of-range shard count.
	ErrBadShards = errors.New("locdb: shard count out of range")
)

// Fix is one location fact: a device was present in a piconet at a time.
type Fix struct {
	Device  baseband.BDAddr `json:"device"`
	Piconet graph.NodeID    `json:"piconet"`
	// At is the simulation/wall tick the presence was revealed.
	At sim.Tick `json:"at"`
}

// Event is a presence change streamed to subscribers.
type Event struct {
	Fix
	// Present is true for a new presence, false for a new absence. A
	// handover is one presence event in the new room; consumers that keep
	// per-room state derive the departure from their own view of the
	// device's room.
	Present bool `json:"present"`
	// Dropped marks the final event of a Drop (logout): unlike a plain
	// absence, the device's history was erased too, so derived stores
	// that index the movement history (not just the current fix) must
	// forget the device entirely. A Drop of a device that was already
	// absent but still had history carries only the device address.
	Dropped bool `json:"dropped,omitempty"`
}

// shard is one independently locked partition of the database. Every
// device hashes to exactly one shard, which holds its current fix and its
// history.
type shard struct {
	mu      sync.RWMutex
	current map[baseband.BDAddr]Fix
	hist    *histdb.Index

	// version counts mutations; the merged All cache is checked against it.
	version atomic.Uint64

	// Activity counters live per shard so the hot paths never touch a
	// cache line shared across shards; Stats sums them.
	updates  atomic.Int64
	absences atomic.Int64
	queries  atomic.Int64
}

func newShard(historyLimit int) *shard {
	return &shard{
		current: make(map[baseband.BDAddr]Fix),
		hist:    histdb.New(historyLimit),
	}
}

// DB is the central location database. It is safe for concurrent use: in
// the live system every workstation connection updates it concurrently
// with user queries, and the shards keep those updates from serializing
// behind one lock.
type DB struct {
	shards       []*shard
	historyLimit int

	// journal, when installed, records every state change under the
	// owning shard's lock (see journal.go). nil for a pure in-memory
	// database.
	journal Journal

	subsMu  sync.RWMutex
	subs    map[int]Sink
	nextSub int
	// subsList is the subscription-ordered sink list notifyBatch
	// iterates, rebuilt on (un)subscribe and read through one atomic load
	// so the per-frame hot path allocates nothing.
	subsList atomic.Pointer[[]Sink]

	// Merged-snapshot cache: allCur is the last full merge (with the
	// per-shard versions it was built from); allMu serializes rebuilds.
	// See snapshot.go.
	allMu  sync.Mutex
	allCur atomic.Pointer[allSnap]

	// batchPool recycles ApplyBatch's grouping scratch (see batch.go).
	batchPool sync.Pool

	// snapshotQueries counts All calls (the hot per-device counters are
	// per shard).
	snapshotQueries atomic.Int64
}

// New returns an empty database with DefaultShards shards and the default
// history limit.
func New() *DB {
	db, err := NewSharded(DefaultShards, DefaultHistoryLimit)
	if err != nil {
		// Unreachable: the defaults are in range.
		panic(err)
	}
	return db
}

// NewWithHistory returns an empty database keeping at most limit history
// entries per device (0 disables history).
func NewWithHistory(limit int) *DB {
	db, err := NewSharded(DefaultShards, limit)
	if err != nil {
		panic(err)
	}
	return db
}

// NewSharded returns an empty database split into the given number of
// shards, keeping at most limit history entries per device (negative
// limits are clamped to 0, which disables history). shards must be in
// [1, MaxShards]; a single shard reproduces the original global-mutex
// behavior exactly.
func NewSharded(shards, limit int) (*DB, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("%w: %d (want 1..%d)", ErrBadShards, shards, MaxShards)
	}
	if limit < 0 {
		limit = 0
	}
	db := &DB{
		shards:       make([]*shard, shards),
		historyLimit: limit,
		subs:         make(map[int]Sink),
	}
	for i := range db.shards {
		db.shards[i] = newShard(limit)
	}
	return db, nil
}

// NumShards returns the shard count the database was built with.
func (db *DB) NumShards() int { return len(db.shards) }

// HistoryLimit returns the per-device history bound the database was
// built with (0 = history disabled).
func (db *DB) HistoryLimit() int { return db.historyLimit }

// Close implements Store. The in-memory backend holds no external
// resources, so it is a no-op.
func (db *DB) Close() error { return nil }

// shardOf maps a device to its shard. The address bits are mixed
// (splitmix64 finalizer) before reduction so that sequentially allocated
// addresses — the common case for the simulator's device pool — spread
// over all shards instead of clustering.
func (db *DB) shardOf(dev baseband.BDAddr) *shard {
	return db.shards[shardIndex(uint64(dev), len(db.shards))]
}

// shardIdxOf maps a device to its shard index.
func (db *DB) shardIdxOf(dev baseband.BDAddr) int {
	return shardIndex(uint64(dev), len(db.shards))
}

// shardIndex is the pure mapping function, exposed to tests.
func shardIndex(v uint64, n int) int {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int(v % uint64(n))
}

// applyLocked applies one mutation to its shard (index idx). The caller
// holds sh.mu; the returned bool reports whether state changed. Delta
// semantics: re-reporting an unchanged piconet is a no-op, and an
// absence from a piconet the device is no longer in is ignored, so
// out-of-order reports cannot erase a newer fix.
func (db *DB) applyLocked(sh *shard, idx int, m Mutation) (Event, bool) {
	cur, had := sh.current[m.Dev]
	same := had && cur.Piconet == m.Piconet
	ev := Event{Fix: Fix{Device: m.Dev, Piconet: m.Piconet, At: m.At}, Present: m.Op == MutPresence}
	var op JournalOp
	switch {
	case m.Op == MutPresence && !same:
		op = JournalPresence
		sh.current[m.Dev] = ev.Fix
		sh.hist.Append(m.Dev, m.Piconet, m.At)
		sh.updates.Add(1)
	case m.Op == MutAbsence && same:
		op = JournalAbsence
		delete(sh.current, m.Dev)
		sh.absences.Add(1)
	default:
		return Event{}, false
	}
	if db.journal != nil {
		db.journal.Record(idx, op, m.Dev, m.Piconet, m.At)
	}
	sh.version.Add(1)
	return ev, true
}

// Drop removes every trace of a device (logout). It returns whether the
// device had any state to remove. Any drop that removed state is
// announced to subscribers as a one-event frame holding a final Dropped
// absence — from the device's room when it still had a current fix, or
// carrying just the device address when only history remained — so
// per-room views (occupancy, room watchers) and history-derived indexes
// built from the event stream stay consistent across logouts.
func (db *DB) Drop(dev baseband.BDAddr) bool {
	idx := db.shardIdxOf(dev)
	sh := db.shards[idx]
	sh.mu.Lock()
	changed := false
	ev := Event{Fix: Fix{Device: dev}, Present: false, Dropped: true}
	if cur, ok := sh.current[dev]; ok {
		sh.version.Add(1)
		changed = true
		ev.Fix = cur
	}
	if sh.hist.Len(dev) > 0 {
		changed = true
	}
	delete(sh.current, dev)
	sh.hist.Drop(dev)
	if changed && db.journal != nil {
		db.journal.Record(idx, JournalDrop, dev, 0, 0)
	}
	sh.mu.Unlock()
	if changed {
		db.notifyBatch([]Event{ev})
	}
	return changed
}

// Locate answers the paper's spatio-temporal query: the actual piconet of
// the device.
func (db *DB) Locate(dev baseband.BDAddr) (Fix, error) {
	sh := db.shardOf(dev)
	sh.queries.Add(1)
	sh.mu.RLock()
	fix, ok := sh.current[dev]
	sh.mu.RUnlock()
	if !ok {
		return Fix{}, fmt.Errorf("%w: %v", ErrNotPresent, dev)
	}
	return fix, nil
}

// LocateAt answers the historical form of the spatio-temporal query: the
// piconet the device was last reported in at or before tick at. It
// consults the bounded movement history, so it can only see as far back as
// the history limit allows.
func (db *DB) LocateAt(dev baseband.BDAddr, at sim.Tick) (Fix, error) {
	sh := db.shardOf(dev)
	sh.queries.Add(1)
	sh.mu.RLock()
	v, ok := sh.hist.At(dev, at)
	sh.mu.RUnlock()
	if !ok {
		return Fix{}, fmt.Errorf("%w: %v at %v", ErrNotPresent, dev, at)
	}
	return Fix{Device: dev, Piconet: v.Piconet, At: v.At}, nil
}

// Trajectory answers the time-window form of the spatio-temporal query:
// every presence run overlapping [from, to], oldest first — the fix in
// force at from (when the bounded history still records it) followed by
// every move up to and including to. An empty window, an unknown device
// or a window before the recorded history all yield an empty trajectory.
func (db *DB) Trajectory(dev baseband.BDAddr, from, to sim.Tick) []Fix {
	sh := db.shardOf(dev)
	sh.queries.Add(1)
	sh.mu.RLock()
	visits := sh.hist.Range(dev, from, to)
	sh.mu.RUnlock()
	if len(visits) == 0 {
		return nil
	}
	out := make([]Fix, len(visits))
	for i, v := range visits {
		out[i] = Fix{Device: dev, Piconet: v.Piconet, At: v.At}
	}
	return out
}

// All returns every current fix, in ascending device order. The merged
// view is cached against a per-shard version vector: on a quiescent
// database the call is a handful of atomic loads and ZERO allocation —
// no O(devices) rebuild per call — and after mutations exactly one
// caller pays the re-merge (see snapshot.go). The returned slice is
// shared and immutable: callers must not modify it.
func (db *DB) All() []Fix {
	db.snapshotQueries.Add(1)
	return db.allSnapshot().fixes
}

// Present returns the number of devices with a known position.
func (db *DB) Present() int {
	n := 0
	for _, sh := range db.shards {
		sh.mu.RLock()
		n += len(sh.current)
		sh.mu.RUnlock()
	}
	return n
}

// Stats reports database activity counters.
type Stats struct {
	Updates  int64 `json:"updates"`
	Absences int64 `json:"absences"`
	Queries  int64 `json:"queries"`
	Present  int   `json:"present"`
	Shards   int   `json:"shards"`
}

// Stats returns a snapshot of the activity counters. Queries counts both
// per-device Locate calls and full-database All snapshots.
func (db *DB) Stats() Stats {
	st := Stats{
		Queries: db.snapshotQueries.Load(),
		Present: db.Present(),
		Shards:  len(db.shards),
	}
	for _, sh := range db.shards {
		st.Updates += sh.updates.Load()
		st.Absences += sh.absences.Load()
		st.Queries += sh.queries.Load()
	}
	return st
}

// Sink consumes the delta stream one frame at a time: OnEvents carries
// the changes of one ApplyBatch call (or the single Dropped event of a
// Drop), so a consumer (the fan-out tree, the analytics hot tier) pays
// its per-delivery overhead — lock acquisitions, state sweeps — once
// per frame instead of once per delta. The slice is owned by the
// database and recycled after the call returns: consumers must not
// retain it.
//
// OnEvents runs synchronously on the mutating goroutine, after the
// shard locks are released, and must not mutate the database
// re-entrantly in a way that assumes ordering against other updaters:
// with concurrent writers on different shards, deliveries for
// different devices may interleave (the single-threaded simulator
// never hits this; a multi-connection server does).
type Sink interface {
	OnEvents([]Event)
}

// SubscribeSink registers a consumer of the delta stream. Sinks are
// called in subscription order. It returns an unsubscribe function.
func (db *DB) SubscribeSink(s Sink) (cancel func()) {
	db.subsMu.Lock()
	defer db.subsMu.Unlock()
	id := db.nextSub
	db.nextSub++
	db.subs[id] = s
	db.rebuildSubsLocked()
	return func() {
		db.subsMu.Lock()
		defer db.subsMu.Unlock()
		delete(db.subs, id)
		db.rebuildSubsLocked()
	}
}

// rebuildSubsLocked republishes the subscription-ordered sink list.
// The caller holds subsMu.
func (db *DB) rebuildSubsLocked() {
	ids := make([]int, 0, len(db.subs))
	for id := range db.subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	sinks := make([]Sink, 0, len(ids))
	for _, id := range ids {
		sinks = append(sinks, db.subs[id])
	}
	db.subsList.Store(&sinks)
}

// notifyBatch delivers a whole mutation frame to all subscribers in
// subscription order, one OnEvents call per sink. The sink list is
// prebuilt, so a frame with no subscribers — and the common case of a
// stable subscriber set — costs one atomic load and no allocation. The
// events slice is recycled by the caller after the call; sinks must not
// retain it.
func (db *DB) notifyBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	sinks := db.subsList.Load()
	if sinks == nil {
		return
	}
	for _, s := range *sinks {
		s.OnEvents(evs)
	}
}
