// Package fanout implements the shared subscription index behind the
// BIPS push-notification surface: the paper's service vision is
// proximity and presence *notification* ("alert when device X enters
// floor 2"), and this package is the piece that makes notification
// cheap at campus scale.
//
// A Tree holds every live subscription — per-device, per-room, geofence
// zone, occupancy threshold, or catch-all — in per-key indexes
// (device→subscribers, room→subscribers, threshold watchers). The
// location database's delta stream is fed in through PublishBatch, one
// ApplyBatch frame at a time; each delta is routed through the indexes
// so the cost of a presence change scales with the number of *matching*
// subscribers, not the total number registered. A hundred thousand idle
// subscriptions on untouched rooms and devices cost a delta nothing but
// the index lookups that miss them.
//
// The tree keeps its own device→room map, fed by the same deltas (and
// seeded from a restored backend via Seed), so it can derive the
// leave half of a handover, maintain per-room occupancy counts, and
// initialize a zone subscription's inside/outside state — all without
// querying the database on the hot path.
//
// # Staged pipeline: batch → match → deliver
//
// The tree is built for concurrent shard flushes. Its state is split
// the same way locdb splits its shards:
//
//   - The device-keyed state — device and zone subscriptions plus the
//     device→room view — lives in independently locked shards, keyed
//     by the same mixed hash locdb uses, so frames flushed from
//     different locdb shards touch disjoint tree shards and do not
//     contend.
//   - The room-keyed subscription index is sharded the same way by
//     room id.
//   - The derived occupancy state (per-room counts plus threshold
//     watchers and their edge-trigger state) sits behind its own lock,
//     because one room's count is fed by devices on many shards.
//   - Catch-all subscriptions are published as an immutable id-sorted
//     list behind an atomic pointer, so matching them costs one load.
//
// PublishBatch regroups a frame by tree shard with a pooled counting
// sort (the write path's ApplyBatch, mirrored), locks each touched
// shard once, and routes the shard's run of deltas while holding it —
// one lock acquisition and one state sweep per shard per frame instead
// of per event.
//
// Matching never runs the subscriber callbacks: matched (event,
// subscriber) pairs are enqueued on a bounded in-order delivery ring
// drained by the tree's one delivery goroutine, so the mutating
// goroutine's publish cost is index routing plus an enqueue, never
// subscriber work. A full ring briefly blocks the publisher
// (backpressure) rather than dropping — events are bounded by the
// per-connection buffers downstream (internal/server's drop
// accounting), not lost here. A consumer that needs its events in step
// with the mutations that caused them calls Flush after mutating: the
// simulation facade does so at the end of every simulated step chunk.
//
// # Delivery contract
//
// Once Subscribe returns, every later published delta that matches is
// delivered to the callback, and after Cancel returns no further
// callback runs — the guarantee connection teardown and the race
// tests lean on. Events of one device are delivered in publish order,
// and the matching subscribers of one event are invoked in
// subscription order. Callbacks run one at a time on the delivery
// goroutine, MUST NOT block (hand off to a buffered channel and drop
// on overflow, as internal/server does) and must not call back into
// the Tree.
package fanout

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// DefaultShards is the device/room index shard count, matching
// locdb.DefaultShards so a default deployment maps one locdb shard
// flush onto a disjoint set of tree shards.
const DefaultShards = 16

// DefaultRing is the delivery ring capacity in matched (event,
// subscriber) pairs. When the delivery goroutine falls this far behind
// the publishers, they block until it catches up.
const DefaultRing = 4096

// Config configures a Tree.
type Config struct {
	// Shards is the device/room index shard count; 0 selects
	// DefaultShards.
	Shards int
	// Ring is the delivery ring capacity; 0 selects DefaultRing.
	Ring int
}

// Kind selects what a Filter matches.
type Kind string

// Filter kinds.
const (
	// KindAll matches every enter/leave event of every device.
	KindAll Kind = "all"
	// KindDevice matches one device's enter/leave events.
	KindDevice Kind = "device"
	// KindRoom matches one room's enter/leave events.
	KindRoom Kind = "room"
	// KindZone matches one device crossing into or out of a room set
	// (the geofence predicate device-enters-zone).
	KindZone Kind = "zone"
	// KindOccupancy matches one room's occupant count crossing a
	// threshold (the geofence predicate room-occupancy-crosses-K),
	// edge-triggered relative to the count at subscribe time.
	KindOccupancy Kind = "occupancy"
)

// Filter selects the events a subscription delivers. Device is used by
// KindDevice and KindZone, Room by KindRoom and KindOccupancy, Zone by
// KindZone, Threshold (>= 1) by KindOccupancy.
type Filter struct {
	Kind      Kind
	Device    baseband.BDAddr
	Room      graph.NodeID
	Zone      []graph.NodeID
	Threshold int
}

// EventKind classifies a delivered event.
type EventKind string

// Delivered event kinds.
const (
	Enter         EventKind = "enter"
	Leave         EventKind = "leave"
	ZoneEnter     EventKind = "zone-enter"
	ZoneExit      EventKind = "zone-exit"
	OccupancyRise EventKind = "occupancy-rise"
	OccupancyFall EventKind = "occupancy-fall"
)

// Event is one matched notification. Device is zero for occupancy
// events; Occupancy is set only for occupancy events (the new count).
type Event struct {
	Kind      EventKind
	Device    baseband.BDAddr
	Room      graph.NodeID
	At        sim.Tick
	Occupancy int
}

// sub is one registered subscription with its routing state. The
// edge-trigger fields are guarded by the lock of the index holding the
// sub (inZone by the device shard, above by the occupancy lock); gate
// serializes callback invocations against Cancel, which is what makes
// "after Cancel returns no further callback runs" hold even with a
// delivery stage between matching and the callback.
type sub struct {
	id      uint64
	filter  Filter
	deliver func(Event)

	// zone is the zone filter's room set; inZone is the edge-trigger
	// state (was the device inside after the last delta).
	zone   map[graph.NodeID]bool
	inZone bool
	// above is the occupancy filter's edge-trigger state.
	above bool

	gate      sync.Mutex
	cancelled bool
}

// Subscription is a handle returned by Subscribe; Cancel unregisters.
type Subscription struct {
	tree *Tree
	s    *sub
	once sync.Once
}

// Cancel unregisters the subscription. After it returns, the callback
// will not be invoked again — queued ring entries for it are skipped.
// It is idempotent.
func (s *Subscription) Cancel() {
	s.once.Do(func() { s.tree.remove(s.s) })
}

// Stats is a snapshot of the tree's activity.
type Stats struct {
	// Subscriptions is the current number of live subscriptions.
	Subscriptions int
	// Published counts deltas fed through PublishBatch.
	Published int64
	// Delivered counts callback invocations (events matched and
	// handed to subscribers).
	Delivered int64
	// Backlog is the number of matched pairs enqueued on the delivery
	// ring whose callbacks have not finished yet.
	Backlog int
}

// treeShard is one independently locked partition of the device-keyed
// state: the device/zone subscription index and the device→room view.
// Every device hashes to exactly one shard — locdb's hash, so a locdb
// shard flush lands on a stable subset of tree shards.
type treeShard struct {
	mu       sync.Mutex
	byDevice map[baseband.BDAddr]map[uint64]*sub // device + zone subs
	devRoom  map[baseband.BDAddr]graph.NodeID

	// Per-shard match/deliver scratch (guarded by mu): routing runs
	// per delta on the hot path and must not allocate per event.
	matched []*sub
	deliv   []delivery
	ids     []uint64
}

// roomShard is one partition of the room subscription index.
// Publishing only ever takes a room shard lock briefly, inside a device
// shard's critical section, to collect matches (lock order: device
// shard → room shard).
type roomShard struct {
	mu     sync.Mutex
	byRoom map[graph.NodeID]map[uint64]*sub
}

// occState is the derived occupancy state: per-room counts plus the
// threshold watchers and their edge state. One room's count is fed by
// devices on every shard, so it sits behind its own lock (acquired
// after the device shard's, before the ring's); updating a count and
// firing its crossings is one critical section, which keeps the
// rise/fall sequence per room consistent across concurrent flushes.
type occState struct {
	mu        sync.Mutex
	occupancy map[graph.NodeID]int
	watchers  map[graph.NodeID]map[uint64]*sub
	ids       []uint64
	deliv     []delivery
}

// publishScratch is PublishBatch's pooled regrouping storage, the
// fan-out analogue of locdb's batchScratch.
type publishScratch struct {
	idx    []int32
	counts []int32
	order  []locdb.Event
}

// Tree is the shared subscription index. All methods are safe for
// concurrent use.
type Tree struct {
	shards []*treeShard
	rooms  []*roomShard
	occ    occState

	allMu   sync.Mutex
	all     map[uint64]*sub
	allList atomic.Pointer[[]*sub] // immutable, id-sorted

	nextID    atomic.Uint64
	subCount  atomic.Int64
	published atomic.Int64
	delivered atomic.Int64

	// ring is the delivery stage between matching and the callbacks.
	ring    *deliveryRing
	scratch sync.Pool
}

// New returns an empty tree with the default configuration. It owns a
// delivery goroutine; Close releases it.
func New() *Tree { return NewWithConfig(Config{}) }

// NewWithConfig returns an empty tree. It owns a delivery goroutine;
// Close releases it.
func NewWithConfig(cfg Config) *Tree {
	nShards := cfg.Shards
	if nShards < 1 {
		nShards = DefaultShards
	}
	t := &Tree{
		shards: make([]*treeShard, nShards),
		rooms:  make([]*roomShard, nShards),
		all:    make(map[uint64]*sub),
	}
	for i := range t.shards {
		t.shards[i] = &treeShard{
			byDevice: make(map[baseband.BDAddr]map[uint64]*sub),
			devRoom:  make(map[baseband.BDAddr]graph.NodeID),
		}
		t.rooms[i] = &roomShard{byRoom: make(map[graph.NodeID]map[uint64]*sub)}
	}
	t.occ.occupancy = make(map[graph.NodeID]int)
	t.occ.watchers = make(map[graph.NodeID]map[uint64]*sub)
	ringSize := cfg.Ring
	if ringSize < 1 {
		ringSize = DefaultRing
	}
	t.ring = newDeliveryRing(ringSize)
	go t.ring.run(t)
	return t
}

// shardIndex mixes v (splitmix64 finalizer) before reduction, exactly
// like locdb's shard mapping, so sequentially allocated addresses
// spread over all shards and a locdb shard's devices land on a stable
// tree-shard subset.
func shardIndex(v uint64, n int) int {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int(v % uint64(n))
}

func (t *Tree) shardOf(dev baseband.BDAddr) *treeShard {
	return t.shards[shardIndex(uint64(dev), len(t.shards))]
}

func (t *Tree) roomOf(room graph.NodeID) *roomShard {
	return t.rooms[shardIndex(uint64(room), len(t.rooms))]
}

// Close stops the delivery stage after draining everything already
// enqueued. Publishes racing or following Close fall back to inline
// delivery, so no event is lost; quiesce publishers first if
// delivery-order matters at shutdown.
func (t *Tree) Close() { t.ring.close() }

// Flush blocks until every matched pair enqueued before the call has
// been handed to its callback (or skipped as cancelled): the delivery
// barrier for consumers that read results after publishing.
func (t *Tree) Flush() { t.ring.flush() }

// Seed primes the tree's device→room view from a restored backend's
// current fixes (locdb.Store.All). Call it once, after wiring the tree
// to the store's subscription stream but before any traffic flows;
// without it a durable server would restart with every room apparently
// empty until each device moves.
func (t *Tree) Seed(fixes []locdb.Fix) {
	for _, f := range fixes {
		sh := t.shardOf(f.Device)
		sh.mu.Lock()
		if _, ok := sh.devRoom[f.Device]; ok {
			sh.mu.Unlock()
			continue
		}
		sh.devRoom[f.Device] = f.Piconet
		sh.mu.Unlock()
		t.occ.mu.Lock()
		t.occ.occupancy[f.Piconet]++
		t.occ.mu.Unlock()
	}
}

// Subscribe registers a filter with a delivery callback (see the
// package comment for the callback contract). Zone and occupancy
// filters capture their initial inside/above state from the tree's
// current view, so they fire only on crossings that happen after
// registration.
func (t *Tree) Subscribe(f Filter, deliver func(Event)) *Subscription {
	s := &sub{id: t.nextID.Add(1), filter: f, deliver: deliver}
	switch f.Kind {
	case KindDevice:
		sh := t.shardOf(f.Device)
		sh.mu.Lock()
		addIdx(sh.byDevice, f.Device, s)
		sh.mu.Unlock()
	case KindZone:
		s.zone = make(map[graph.NodeID]bool, len(f.Zone))
		for _, r := range f.Zone {
			s.zone[r] = true
		}
		sh := t.shardOf(f.Device)
		sh.mu.Lock()
		if room, ok := sh.devRoom[f.Device]; ok {
			s.inZone = s.zone[room]
		}
		addIdx(sh.byDevice, f.Device, s)
		sh.mu.Unlock()
	case KindRoom:
		rs := t.roomOf(f.Room)
		rs.mu.Lock()
		addIdx(rs.byRoom, f.Room, s)
		rs.mu.Unlock()
	case KindOccupancy:
		t.occ.mu.Lock()
		s.above = t.occ.occupancy[f.Room] >= f.Threshold
		addIdx(t.occ.watchers, f.Room, s)
		t.occ.mu.Unlock()
	default: // KindAll
		t.allMu.Lock()
		t.all[s.id] = s
		t.rebuildAllLocked()
		t.allMu.Unlock()
	}
	t.subCount.Add(1)
	return &Subscription{tree: t, s: s}
}

// rebuildAllLocked republishes the id-sorted catch-all list. The
// caller holds allMu.
func (t *Tree) rebuildAllLocked() {
	list := make([]*sub, 0, len(t.all))
	for _, s := range t.all {
		list = append(list, s)
	}
	slices.SortFunc(list, bySubID)
	t.allList.Store(&list)
}

func addIdx[K comparable](idx map[K]map[uint64]*sub, key K, s *sub) {
	m := idx[key]
	if m == nil {
		m = make(map[uint64]*sub)
		idx[key] = m
	}
	m[s.id] = s
}

func delIdx[K comparable](idx map[K]map[uint64]*sub, key K, s *sub) {
	m := idx[key]
	delete(m, s.id)
	if len(m) == 0 {
		delete(idx, key)
	}
}

// remove unregisters the sub from its index, then closes its gate:
// once the gate reopens with cancelled set, any invocation still in
// flight has finished and no queued ring entry will run it again.
func (t *Tree) remove(s *sub) {
	switch s.filter.Kind {
	case KindDevice, KindZone:
		sh := t.shardOf(s.filter.Device)
		sh.mu.Lock()
		delIdx(sh.byDevice, s.filter.Device, s)
		sh.mu.Unlock()
	case KindRoom:
		rs := t.roomOf(s.filter.Room)
		rs.mu.Lock()
		delIdx(rs.byRoom, s.filter.Room, s)
		rs.mu.Unlock()
	case KindOccupancy:
		t.occ.mu.Lock()
		delIdx(t.occ.watchers, s.filter.Room, s)
		t.occ.mu.Unlock()
	default:
		t.allMu.Lock()
		delete(t.all, s.id)
		t.rebuildAllLocked()
		t.allMu.Unlock()
	}
	s.gate.Lock()
	s.cancelled = true
	s.gate.Unlock()
	t.subCount.Add(-1)
}

// Stats returns a snapshot of the tree's activity counters.
func (t *Tree) Stats() Stats {
	return Stats{
		Subscriptions: int(t.subCount.Load()),
		Published:     t.published.Load(),
		Delivered:     t.delivered.Load(),
		Backlog:       t.ring.backlog(),
	}
}

// Occupancy returns the tree's current occupant count for the room.
func (t *Tree) Occupancy(room graph.NodeID) int {
	t.occ.mu.Lock()
	defer t.occ.mu.Unlock()
	return t.occ.occupancy[room]
}

// OnEvents implements locdb.Sink: one whole ApplyBatch frame.
func (t *Tree) OnEvents(evs []locdb.Event) { t.PublishBatch(evs) }

// PublishBatch routes one frame of location-database deltas through
// the indexes. It may be called concurrently from many connection
// handlers; only writers touching devices of the same tree shard
// serialize. The frame is regrouped by tree shard with a pooled
// counting sort (stable, so per-device order follows the frame order),
// then each touched shard is locked once and its run of deltas routed
// inside that one critical section. The slice is not retained.
//
// A presence delta whose device was already elsewhere is expanded into
// the implied leave of the old room followed by the enter of the new
// one; zone filters evaluate the handover as one crossing, so moving
// between two rooms inside the zone emits nothing. Deltas that
// disagree with the tree's own device view (possible when two writers
// race on one device and their post-commit notifications arrive out of
// order) are dropped rather than double-counted.
func (t *Tree) PublishBatch(evs []locdb.Event) {
	if len(evs) == 0 {
		return
	}
	sc, _ := t.scratch.Get().(*publishScratch)
	if sc == nil {
		sc = &publishScratch{}
	}
	n := len(t.shards)
	if cap(sc.counts) < n {
		sc.counts = make([]int32, n)
	}
	counts := sc.counts[:n]
	for i := range counts {
		counts[i] = 0
	}
	if cap(sc.idx) < len(evs) {
		sc.idx = make([]int32, len(evs))
	}
	idx := sc.idx[:len(evs)]
	for i := range evs {
		j := int32(shardIndex(uint64(evs[i].Device), n))
		idx[i] = j
		counts[j]++
	}
	if cap(sc.order) < len(evs) {
		sc.order = make([]locdb.Event, len(evs))
	}
	order := sc.order[:len(evs)]
	sum := int32(0)
	for j := range counts {
		c := counts[j]
		counts[j] = sum
		sum += c
	}
	for i := range evs {
		j := idx[i]
		order[counts[j]] = evs[i]
		counts[j]++
	}
	// counts[j] is now the end offset of shard j's run in order.
	start := int32(0)
	for j := 0; j < n; j++ {
		end := counts[j]
		if end == start {
			continue
		}
		sh := t.shards[j]
		sh.mu.Lock()
		for _, ev := range order[start:end] {
			t.publishLocked(sh, ev)
		}
		sh.mu.Unlock()
		start = end
	}
	t.scratch.Put(sc)
}

// publishLocked routes one delta. The caller holds sh.mu, the shard
// owning ev.Device; everything the delta touches is either in this
// shard or behind a lock acquired after it (room shard, occupancy,
// ring), so per-device event order is fixed here, under one lock.
func (t *Tree) publishLocked(sh *treeShard, ev locdb.Event) {
	t.published.Add(1)
	dev := ev.Device
	old, had := sh.devRoom[dev]
	if ev.Present {
		if had && old == ev.Piconet {
			return
		}
		if had {
			t.emitLocked(sh, Event{Kind: Leave, Device: dev, Room: old, At: ev.At})
			t.occShift(old, -1, ev.At)
		}
		sh.devRoom[dev] = ev.Piconet
		t.emitLocked(sh, Event{Kind: Enter, Device: dev, Room: ev.Piconet, At: ev.At})
		t.occShift(ev.Piconet, +1, ev.At)
		t.zoneCrossingsLocked(sh, dev, ev.Piconet, true, ev.At)
		return
	}
	if !had || old != ev.Piconet {
		return
	}
	delete(sh.devRoom, dev)
	t.emitLocked(sh, Event{Kind: Leave, Device: dev, Room: old, At: ev.At})
	t.occShift(old, -1, ev.At)
	t.zoneCrossingsLocked(sh, dev, old, false, ev.At)
}

// emitLocked matches one enter/leave event against the catch-all list,
// the device index of the caller's shard, and the room index, then
// hands the matches — in subscription order — to the delivery stage.
// The caller holds sh.mu.
func (t *Tree) emitLocked(sh *treeShard, e Event) {
	matched := sh.matched[:0]
	if all := t.allList.Load(); all != nil {
		matched = append(matched, *all...)
	}
	for _, s := range sh.byDevice[e.Device] {
		if s.filter.Kind == KindDevice {
			matched = append(matched, s)
		}
	}
	rs := t.roomOf(e.Room)
	rs.mu.Lock()
	for _, s := range rs.byRoom[e.Room] {
		matched = append(matched, s)
	}
	rs.mu.Unlock()
	sh.matched = matched
	if len(matched) == 0 {
		return
	}
	slices.SortFunc(matched, bySubID)
	deliv := sh.deliv[:0]
	for _, s := range matched {
		deliv = append(deliv, delivery{s: s, e: e})
	}
	sh.deliv = deliv
	t.ring.enqueue(t, deliv)
}

// occShift applies one occupant-count change and fires the room's
// threshold watchers whose edge state flipped with the new count. The
// count mutation and the crossing evaluation are one critical section
// under the occupancy lock, so concurrent flushes from different
// shards see a consistent rise/fall sequence per room.
func (t *Tree) occShift(room graph.NodeID, delta int, at sim.Tick) {
	o := &t.occ
	o.mu.Lock()
	n := o.occupancy[room] + delta
	if n > 0 {
		o.occupancy[room] = n
	} else {
		delete(o.occupancy, room)
		n = 0
	}
	watchers := o.watchers[room]
	if len(watchers) == 0 {
		o.mu.Unlock()
		return
	}
	ids := o.ids[:0]
	for id := range watchers {
		ids = append(ids, id)
	}
	o.ids = ids
	slices.Sort(ids)
	deliv := o.deliv[:0]
	for _, id := range ids {
		s := watchers[id]
		above := n >= s.filter.Threshold
		if above == s.above {
			continue
		}
		s.above = above
		kind := OccupancyRise
		if !above {
			kind = OccupancyFall
		}
		deliv = append(deliv, delivery{s: s, e: Event{Kind: kind, Room: room, At: at, Occupancy: n}})
	}
	o.deliv = deliv
	if len(deliv) > 0 {
		t.ring.enqueue(t, deliv)
	}
	o.mu.Unlock()
}

// zoneCrossingsLocked fires the device's zone watchers whose
// inside/outside state changed with the delta's final position. room
// is the device's new room when present is true and its last known
// room otherwise; an absent device is outside every zone regardless of
// room. The caller holds sh.mu, which guards the watchers' inZone
// state.
func (t *Tree) zoneCrossingsLocked(sh *treeShard, dev baseband.BDAddr, room graph.NodeID, present bool, at sim.Tick) {
	watchers := sh.byDevice[dev]
	if len(watchers) == 0 {
		return
	}
	ids := sh.ids[:0]
	for id, s := range watchers {
		if s.filter.Kind == KindZone {
			ids = append(ids, id)
		}
	}
	sh.ids = ids
	if len(ids) == 0 {
		return
	}
	slices.Sort(ids)
	deliv := sh.deliv[:0]
	for _, id := range ids {
		s := watchers[id]
		in := present && s.zone[room]
		if in == s.inZone {
			continue
		}
		s.inZone = in
		kind := ZoneEnter
		if !in {
			kind = ZoneExit
		}
		deliv = append(deliv, delivery{s: s, e: Event{Kind: kind, Device: dev, Room: room, At: at}})
	}
	sh.deliv = deliv
	if len(deliv) > 0 {
		t.ring.enqueue(t, deliv)
	}
}

// bySubID orders subscriptions by id, which is registration order.
func bySubID(a, b *sub) int { return cmp.Compare(a.id, b.id) }

// invoke runs one callback behind the sub's gate; a sub cancelled
// while queued is skipped, and a Cancel racing an invocation blocks
// until the callback returns — the Cancel half of the delivery
// contract.
func (t *Tree) invoke(s *sub, e Event) {
	s.gate.Lock()
	if !s.cancelled {
		s.deliver(e)
		t.delivered.Add(1)
	}
	s.gate.Unlock()
}
