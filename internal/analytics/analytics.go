// Package analytics is the cross-device history engine of the BIPS
// location service: an inverted room → presence-interval index
// maintained beside the per-device history (histdb), answering the
// three query families that per-device logs cannot answer without an
// O(devices) scan — contact tracing (which devices shared a room with
// device X, and for how long), room/zone occupancy time series, and
// dwell-time distributions.
//
// # Interval semantics
//
// The engine consumes the same presence-delta stream the fan-out tree
// does (locdb.Store.SubscribeSink) and mirrors histdb's run semantics
// exactly: every presence report opens a run in the reported room, the
// run closes when the device's next report arrives (or extends to the
// query horizon for the newest one), ticks arriving out of order are
// clamped forward, duplicate reports are no-ops, and the per-device
// hot log is bounded by the same history limit. Plain absences do not
// close runs — the paper's delta protocol makes absences invisible to
// history (LocateAt after an absence still answers the last room) —
// but a Drop (logout) erases the device's hot state, matching
// locdb.Drop erasing its history. Because the hot store is a pure
// function of the same inputs histdb sees, its answers are
// byte-comparable against a recomputation from the per-device logs,
// and it can be rebuilt from a locdb dump after a crash.
//
// # Sealed segments and retention
//
// A bounded hot log alone caps how far back analytics can see, so the
// engine periodically seals closed runs into immutable, CRC-guarded,
// delta/varint-compressed segment files (the same
// write-temp/fsync/rename discipline as internal/storage snapshots)
// and trims them from the hot store. Data then lives in three tiers:
// hot (mutable, in memory, bounded per device), sealed (immutable,
// compressed, on disk when a directory is configured), and expired
// (segments older than the retention window are deleted). Sealing is
// tracked with a per-device watermark — the end of the device's last
// sealed run — so recovery seeding from a locdb dump skips exactly the
// runs the segments already hold. Queries answer from the union of the
// sealed and hot tiers, which by construction hold disjoint runs.
package analytics

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bips/internal/baseband"
	"bips/internal/graph"
	"bips/internal/histdb"
	"bips/internal/locdb"
	"bips/internal/sim"
)

// DefaultSealInterval is how often the background sealer checks whether
// enough closed runs accumulated to be worth a segment.
const DefaultSealInterval = 30 * time.Second

// DefaultSealMinRuns is the default sealing threshold: a segment is cut
// once at least this many closed runs sit in the hot tier. Small enough
// to keep the hot tier bounded, large enough that segments amortize
// their header.
const DefaultSealMinRuns = 4096

// MaxContacts bounds one contact-trace answer: the strongest contacts
// by total overlap are kept. A device that shared rooms with more peers
// than this is an aggregate question (occupancy), not a trace.
const MaxContacts = 256

// maxBuckets is the engine-side backstop on occupancy series length;
// the wire layer enforces its own (smaller) bound before a query gets
// here.
const maxBuckets = 1 << 16

// Options configures an Engine.
type Options struct {
	// Dir is where sealed segments live; empty keeps sealed segments in
	// memory only (they are still compressed, but do not survive the
	// process).
	Dir string
	// HistoryLimit is the per-device hot-run bound and must mirror the
	// location store's history limit so eviction stays in lockstep
	// (locdb.Store.HistoryLimit). Zero or negative disables interval
	// indexing entirely.
	HistoryLimit int
	// SealInterval is the background sealer's period. Zero means
	// DefaultSealInterval; negative disables the background sealer
	// (Seal must then be called explicitly).
	SealInterval time.Duration
	// SealMinRuns is the sealing threshold. Zero means
	// DefaultSealMinRuns.
	SealMinRuns int
	// Retain is the retention window in ticks: after a seal, segments
	// whose newest run ended more than Retain ticks before the newest
	// tick seen are deleted. Zero keeps everything forever.
	Retain sim.Tick
}

// devState is one device's hot visit log, mirroring its histdb log
// (possibly minus a sealed-and-trimmed prefix).
type devState struct {
	visits []histdb.Visit
}

// Engine is the analytics engine. One instance subscribes to a
// locdb.Store and serves Contacts, Occupancy and Dwell queries.
type Engine struct {
	dir      string
	limit    int
	interval time.Duration
	sealMin  int
	retain   sim.Tick

	mu        sync.RWMutex
	devs      map[baseband.BDAddr]*devState
	roomDevs  map[graph.NodeID]map[baseband.BDAddr]int // hot visit refcounts
	watermark map[baseband.BDAddr]sim.Tick             // end of last sealed run
	segs      []*segment
	nextSeq   uint64
	sealable  int // positive closed unsealed runs across the hot tier
	maxSeen   sim.Tick

	events     atomic.Int64
	qContacts  atomic.Int64
	qOccupancy atomic.Int64
	qDwell     atomic.Int64
	sealedRuns int64 // under mu
	sealedB    int64 // under mu
	expired    int64 // under mu

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewMemory returns a memory-only engine (no segment directory) with
// the given history limit and default sealing policy. It cannot fail.
func NewMemory(historyLimit int) *Engine {
	e, err := Open(Options{HistoryLimit: historyLimit})
	if err != nil { // unreachable: no directory, nothing to open
		panic(err)
	}
	return e
}

// Open creates an engine and, when a directory is configured, loads
// every sealed segment in it (verifying magic and CRC — a corrupt
// segment fails the open rather than silently narrowing history).
func Open(opts Options) (*Engine, error) {
	e := &Engine{
		dir:       opts.Dir,
		limit:     opts.HistoryLimit,
		interval:  opts.SealInterval,
		sealMin:   opts.SealMinRuns,
		retain:    opts.Retain,
		devs:      make(map[baseband.BDAddr]*devState),
		roomDevs:  make(map[graph.NodeID]map[baseband.BDAddr]int),
		watermark: make(map[baseband.BDAddr]sim.Tick),
	}
	if e.interval == 0 {
		e.interval = DefaultSealInterval
	}
	if e.sealMin <= 0 {
		e.sealMin = DefaultSealMinRuns
	}
	if e.dir != "" {
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, fmt.Errorf("analytics: %w", err)
		}
		if err := e.loadSegments(); err != nil {
			return nil, err
		}
	}
	if e.interval > 0 {
		e.stop = make(chan struct{})
		e.done = make(chan struct{})
		go e.sealLoop()
	}
	return e, nil
}

// loadSegments loads every seg-*.seg file in the directory, rebuilding
// the per-device watermarks and the seal sequence counter.
func (e *Engine) loadSegments() error {
	entries, err := os.ReadDir(e.dir)
	if err != nil {
		return fmt.Errorf("analytics: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(e.dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("analytics: %w", err)
		}
		var seq uint64
		if _, err := fmt.Sscanf(name, "seg-%016d.seg", &seq); err != nil {
			return fmt.Errorf("analytics: segment name %q: %w", name, err)
		}
		seg, err := parseSegment(raw, path, seq)
		if err != nil {
			return fmt.Errorf("analytics: segment %s: %w", name, err)
		}
		e.segs = append(e.segs, seg)
		if seq >= e.nextSeq {
			e.nextSeq = seq + 1
		}
		for dev, end := range seg.devMax {
			if end > e.watermark[dev] {
				e.watermark[dev] = end
			}
		}
		if seg.maxEnd > e.maxSeen {
			e.maxSeen = seg.maxEnd
		}
		e.sealedRuns += seg.runs
		e.sealedB += int64(len(seg.raw))
	}
	return nil
}

// OnEvents implements locdb.Sink: a whole ApplyBatch frame ingested
// under one lock acquisition instead of one per delta, so the hot
// tier's cost on the write path is per frame, not per event. Wire it
// with store.SubscribeSink(engine), then Seed the engine from the
// store's dump before traffic flows.
func (e *Engine) OnEvents(evs []locdb.Event) {
	e.events.Add(int64(len(evs)))
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ev := range evs {
		if ev.At > e.maxSeen {
			e.maxSeen = ev.At
		}
		// A plain absence leaves the history run open (see the package
		// comment), so only presences and drops touch the hot tier.
		switch {
		case ev.Dropped:
			e.dropLocked(ev.Device)
		case ev.Present:
			e.appendLocked(ev.Device, ev.Piconet, ev.At)
		}
	}
}

// appendLocked mirrors histdb.Log.Append byte for byte: clamp the tick
// forward, drop exact duplicates, append, evict past the limit.
func (e *Engine) appendLocked(dev baseband.BDAddr, room graph.NodeID, at sim.Tick) {
	if e.limit <= 0 {
		return
	}
	ds := e.devs[dev]
	if ds == nil {
		ds = &devState{}
		e.devs[dev] = ds
	}
	v := histdb.Visit{Piconet: room, At: at}
	if n := len(ds.visits); n > 0 {
		last := ds.visits[n-1]
		if v.At < last.At {
			v.At = last.At
		}
		if last == v {
			return
		}
		if v.At > last.At {
			e.sealable++ // the run starting at last just closed, positively
		}
	}
	ds.visits = append(ds.visits, v)
	e.roomRef(room, dev, +1)
	if len(ds.visits) > e.limit {
		evicted := ds.visits[:len(ds.visits)-e.limit]
		for i, ev := range evicted {
			e.roomRef(ev.Piconet, dev, -1)
			if ds.visits[i+1].At > ev.At {
				e.sealable--
			}
		}
		ds.visits = ds.visits[len(ds.visits)-e.limit:]
	}
}

// dropLocked erases the device's hot tier (sealed segments keep their
// runs: retention outlives logout).
func (e *Engine) dropLocked(dev baseband.BDAddr) {
	ds := e.devs[dev]
	if ds == nil {
		return
	}
	e.sealable -= positiveClosed(ds.visits)
	for _, v := range ds.visits {
		e.roomRef(v.Piconet, dev, -1)
	}
	delete(e.devs, dev)
	delete(e.watermark, dev)
}

// positiveClosed counts the closed runs with positive length in a
// visit log (zero-length runs contribute to no query and are never
// sealed).
func positiveClosed(visits []histdb.Visit) int {
	n := 0
	for i := 0; i+1 < len(visits); i++ {
		if visits[i+1].At > visits[i].At {
			n++
		}
	}
	return n
}

// roomRef adjusts the hot visit refcount of (room, dev).
func (e *Engine) roomRef(room graph.NodeID, dev baseband.BDAddr, d int) {
	m := e.roomDevs[room]
	if m == nil {
		if d <= 0 {
			return
		}
		m = make(map[baseband.BDAddr]int)
		e.roomDevs[room] = m
	}
	if c := m[dev] + d; c > 0 {
		m[dev] = c
	} else {
		delete(m, dev)
		if len(m) == 0 {
			delete(e.roomDevs, room)
		}
	}
}

// Seed primes the engine from a locdb dump (locdb.Store.Dump): the hot
// tier from the recorded histories, minus the prefix the sealed
// segments already hold (the per-device watermark), and the retention
// clock from the newest current fix and run. Call it once, after
// SubscribeSink and before traffic flows, exactly like
// fanout.Tree.Seed; devices the engine already knows are left
// untouched.
func (e *Engine) Seed(dumps []locdb.DeviceDump) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, d := range dumps {
		if d.Present && d.Current.At > e.maxSeen {
			e.maxSeen = d.Current.At
		}
		if e.limit <= 0 || len(d.History) == 0 {
			continue
		}
		if _, ok := e.devs[d.Device]; ok {
			continue
		}
		visits := make([]histdb.Visit, len(d.History))
		for i, f := range d.History {
			visits[i] = histdb.Visit{Piconet: f.Piconet, At: f.At}
		}
		wm := e.watermark[d.Device]
		for len(visits) >= 2 && visits[1].At <= wm {
			visits = visits[1:]
		}
		e.devs[d.Device] = &devState{visits: visits}
		for _, v := range visits {
			e.roomRef(v.Piconet, d.Device, +1)
		}
		e.sealable += positiveClosed(visits)
		if last := visits[len(visits)-1].At; last > e.maxSeen {
			e.maxSeen = last
		}
	}
}

// sealLoop is the background sealer: every interval, cut a segment if
// the threshold is reached, and apply retention either way.
func (e *Engine) sealLoop() {
	defer close(e.done)
	t := time.NewTicker(e.interval)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-t.C:
			e.mu.Lock()
			if e.sealable >= e.sealMin {
				_ = e.sealLocked() // failure keeps runs hot; next tick retries
			} else {
				e.expireLocked()
			}
			e.mu.Unlock()
		}
	}
}

// Seal cuts a segment from every closed hot run immediately,
// regardless of the threshold.
func (e *Engine) Seal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sealLocked()
}

// Close stops the background sealer and, when a directory is
// configured, seals the remaining closed runs so a clean restart
// starts from full segments.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.stop != nil {
			close(e.stop)
			<-e.done
		}
		if e.dir != "" {
			e.mu.Lock()
			if e.sealable > 0 {
				e.closeErr = e.sealLocked()
			}
			e.mu.Unlock()
		}
	})
	return e.closeErr
}

// Stats returns the engine's counters, merged into MsgStats under the
// "analytics." prefix by the server.
func (e *Engine) Stats() map[string]int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	hotRuns := 0
	for _, ds := range e.devs {
		hotRuns += len(ds.visits)
	}
	return map[string]int64{
		"events":            e.events.Load(),
		"queries_contacts":  e.qContacts.Load(),
		"queries_occupancy": e.qOccupancy.Load(),
		"queries_dwell":     e.qDwell.Load(),
		"hot_devices":       int64(len(e.devs)),
		"hot_runs":          int64(hotRuns),
		"sealable_runs":     int64(e.sealable),
		"segments":          int64(len(e.segs)),
		"sealed_runs":       e.sealedRuns,
		"sealed_bytes":      e.sealedB,
		"expired_segments":  e.expired,
	}
}
