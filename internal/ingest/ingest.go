// Package ingest is the BIPS streaming ingestion subsystem: the
// sessioned, batched, resumable write path that carries presence deltas
// from every workstation cell to the central server's location store.
//
// The paper's architecture is write-heavy at its core — each significant
// room continuously reveals presences and pushes only the deltas — and
// the links carrying those deltas (Bluetooth-backed stations on a campus
// LAN) drop, partition and restart. The subsystem therefore treats the
// many cells feeding one server as a sessioned many-to-one channel with
// explicit sequencing rather than fire-and-forget RPCs:
//
//   - A station opens a session (wire.IngestHello) identified by a
//     stable, station-chosen id, and streams wire.PresenceBatch frames
//     carrying monotonically increasing per-session sequence numbers.
//   - The server acknowledges cumulatively (wire.IngestAck.Acked = N
//     means frames 1..N are applied exactly once). A frame at or below
//     the ack is a duplicate and is acknowledged without re-applying;
//     re-sending after a reconnect is therefore always safe.
//   - Frames of one connection apply in arrival order, so a frame past
//     acked+1 is a sequence gap, answered at once.
//   - On reconnect (or restart) the station re-sends the hello, learns
//     the cumulative ack, drops everything already applied and resumes
//     from the first unacked frame — no lost deltas, no duplicates.
//
// Three pieces implement this: Pipeline (server side: the session table
// plus the grouped apply through locdb's batch-mutation API), Batcher
// (client side: the pure sequencing and resume state machine), and
// Client (client side: a reconnecting stream with backoff, used by
// cmd/bips-station). internal/workstation cuts deterministic
// frames on simulation time for a workstation.Reporter: a Client, or a
// Pipeline session in the in-process deployment (internal/core), so
// every presence delta takes this one write path. See docs/PROTOCOL.md
// section 8 for the wire contract.
package ingest

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bips/internal/locdb"
	"bips/internal/wire"
)

// Pipeline defaults.
const (
	// DefaultMaxSessions bounds the session table (sessions are small
	// but live until evicted).
	DefaultMaxSessions = 65536
	// DefaultIdleEvictAfter is how long a session must have been idle
	// before a full table may evict it to admit a new one. Short-lived
	// clients (load generators) leave sessions behind by design; this
	// keeps them from permanently exhausting the table, while a table
	// full of *active* stations still rejects newcomers rather than
	// evicting live streams. An evicted station that comes back simply
	// resumes from ack 0 (rebase) — a replay, not data loss.
	DefaultIdleEvictAfter = 10 * time.Minute
)

// Pipeline errors, mapped onto wire error codes by the serving layer.
var (
	// ErrUnknownSession reports a batch for a session no hello opened.
	ErrUnknownSession = errors.New("ingest: unknown session (send ingest.hello first)")
	// ErrSeqGap reports a frame past the next one the session expects:
	// its predecessors were never applied.
	ErrSeqGap = errors.New("ingest: sequence gap")
	// ErrSessionLimit reports an exhausted session table.
	ErrSessionLimit = errors.New("ingest: too many sessions")
)

// Resolver validates one delta and translates it into a storage
// mutation. The serving layer supplies it (it owns the building and the
// registry): ok=false skips the delta silently (an untracked device —
// not an error, BIPS only tracks logged-in users); a non-nil error
// marks the delta rejected — it is skipped and counted, but does not
// block the frame (a stale station must not be able to wedge its
// session behind one bad delta).
type Resolver func(p wire.Presence) (m locdb.Mutation, ok bool, err error)

// Option configures a Pipeline.
type Option func(*Pipeline)

// WithMaxSessions overrides DefaultMaxSessions.
func WithMaxSessions(n int) Option {
	return func(pl *Pipeline) { pl.maxSessions = n }
}

// WithIdleEvictAfter overrides DefaultIdleEvictAfter (<= 0 disables
// eviction: a full table always rejects new sessions).
func WithIdleEvictAfter(d time.Duration) Option {
	return func(pl *Pipeline) { pl.idleEvictAfter = d }
}

// session is one station's ingest state. Its lock serializes frame
// application for the session (different sessions apply concurrently).
type session struct {
	mu    sync.Mutex
	acked uint64

	frames     int64
	deltas     int64
	applied    int64
	duplicates int64

	// lastActive (unix nanos, atomic so the eviction scan needs no
	// session lock) is touched on every hello and frame.
	lastActive atomic.Int64
}

// Pipeline is the server-side ingest apply path: the session table and
// the grouped write-through to the location store.
type Pipeline struct {
	db      locdb.Store
	resolve Resolver

	maxSessions    int
	idleEvictAfter time.Duration

	mu       sync.Mutex
	sessions map[string]*session

	statsMu   sync.Mutex
	resumes   int64
	gaps      int64
	rejects   int64
	evictions int64
}

// NewPipeline builds a pipeline over the location store. resolve must
// be non-nil.
func NewPipeline(db locdb.Store, resolve Resolver, opts ...Option) *Pipeline {
	pl := &Pipeline{
		db:             db,
		resolve:        resolve,
		maxSessions:    DefaultMaxSessions,
		idleEvictAfter: DefaultIdleEvictAfter,
		sessions:       make(map[string]*session),
	}
	for _, opt := range opts {
		opt(pl)
	}
	return pl
}

// Hello opens or resumes a session and returns its cumulative ack. The
// caller has already validated the room against the building. Reopening
// a known session keeps its progress (that is the resume contract).
func (pl *Pipeline) Hello(h wire.IngestHello) (wire.IngestAck, error) {
	if h.Session == "" {
		return wire.IngestAck{}, fmt.Errorf("%w: ingest.hello without session", wire.ErrMalformed)
	}
	pl.mu.Lock()
	s, ok := pl.sessions[h.Session]
	if !ok {
		if len(pl.sessions) >= pl.maxSessions && !pl.evictIdleLocked() {
			pl.mu.Unlock()
			return wire.IngestAck{}, fmt.Errorf("%w (%d)", ErrSessionLimit, pl.maxSessions)
		}
		s = &session{}
		pl.sessions[h.Session] = s
	}
	pl.mu.Unlock()

	s.lastActive.Store(time.Now().UnixNano())
	s.mu.Lock()
	acked := s.acked
	s.mu.Unlock()
	if ok && acked > 0 {
		pl.statsMu.Lock()
		pl.resumes++
		pl.statsMu.Unlock()
	}
	return wire.IngestAck{Acked: acked}, nil
}

// Apply applies one frame under the session's sequencing contract and
// returns the session's cumulative ack.
//
//   - Seq <= acked: duplicate; acknowledged without re-applying.
//   - Seq == acked+1: validated as a unit, then applied through the
//     store's batch-mutation API (one lock acquisition per shard).
//   - Seq > acked+1: ErrSeqGap at once. The serving layer applies one
//     connection's frames in arrival order, so a gap is the station's
//     error, never a scheduling race to wait out.
func (pl *Pipeline) Apply(b wire.PresenceBatch) (wire.IngestAck, error) {
	if err := b.Validate(); err != nil {
		return wire.IngestAck{}, err
	}
	pl.mu.Lock()
	s, ok := pl.sessions[b.Session]
	pl.mu.Unlock()
	if !ok {
		return wire.IngestAck{}, fmt.Errorf("%w: %q", ErrUnknownSession, b.Session)
	}

	s.lastActive.Store(time.Now().UnixNano())
	s.mu.Lock()
	defer s.mu.Unlock()
	if b.Seq > s.acked+1 {
		pl.statsMu.Lock()
		pl.gaps++
		pl.statsMu.Unlock()
		return wire.IngestAck{}, fmt.Errorf("%w: frame %d but session acked %d", ErrSeqGap, b.Seq, s.acked)
	}
	s.frames++
	s.deltas += int64(len(b.Deltas))
	if b.Seq <= s.acked {
		s.duplicates++
		return wire.IngestAck{Acked: s.acked, Duplicate: true}, nil
	}

	// b.Seq == s.acked+1: resolve every delta, then apply the frame
	// through the store's batch-mutation API. Invalid deltas are
	// skipped and counted (never retried — the frame content is
	// immutable, so retrying cannot fix them), untracked devices are
	// skipped silently, and the ack advances regardless: one bad delta
	// must not wedge the session.
	muts := make([]locdb.Mutation, 0, len(b.Deltas))
	rejected := 0
	for _, p := range b.Deltas {
		m, track, err := pl.resolve(p)
		if err != nil {
			rejected++
			continue
		}
		if track {
			muts = append(muts, m)
		}
	}
	applied := pl.db.ApplyBatch(muts)
	s.applied += int64(applied)
	s.acked = b.Seq
	if rejected > 0 {
		pl.statsMu.Lock()
		pl.rejects += int64(rejected)
		pl.statsMu.Unlock()
	}
	return wire.IngestAck{Acked: s.acked, Applied: applied, Rejected: rejected}, nil
}

// evictIdleLocked frees one slot in a full session table by deleting
// the longest-idle session, provided it has been idle for at least
// idleEvictAfter — abandoned sessions (a load generator's, a
// decommissioned station's) age out while live streams are never
// evicted. Returns whether a slot was freed. Caller holds pl.mu.
func (pl *Pipeline) evictIdleLocked() bool {
	if pl.idleEvictAfter <= 0 {
		return false
	}
	var oldestID string
	oldest := int64(0)
	for id, s := range pl.sessions {
		if at := s.lastActive.Load(); oldestID == "" || at < oldest {
			oldestID, oldest = id, at
		}
	}
	if oldestID == "" || time.Since(time.Unix(0, oldest)) < pl.idleEvictAfter {
		return false
	}
	delete(pl.sessions, oldestID)
	pl.statsMu.Lock()
	pl.evictions++
	pl.statsMu.Unlock()
	return true
}

// Sessions returns the number of open sessions.
func (pl *Pipeline) Sessions() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.sessions)
}

// Acked returns a session's cumulative ack (0, false for an unknown
// session). Chaos tooling and tests use it to observe resume state.
func (pl *Pipeline) Acked(sessionID string) (uint64, bool) {
	pl.mu.Lock()
	s, ok := pl.sessions[sessionID]
	pl.mu.Unlock()
	if !ok {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked, true
}

// Stats snapshots the pipeline's counters for the serving layer's
// MsgStats merge (flat map, "ingest." prefix added by the caller).
func (pl *Pipeline) Stats() map[string]int64 {
	pl.mu.Lock()
	sessions := make([]*session, 0, len(pl.sessions))
	for _, s := range pl.sessions {
		sessions = append(sessions, s)
	}
	pl.mu.Unlock()
	var frames, deltas, applied, duplicates int64
	for _, s := range sessions {
		s.mu.Lock()
		frames += s.frames
		deltas += s.deltas
		applied += s.applied
		duplicates += s.duplicates
		s.mu.Unlock()
	}
	pl.statsMu.Lock()
	resumes, gaps, rejects, evictions := pl.resumes, pl.gaps, pl.rejects, pl.evictions
	pl.statsMu.Unlock()
	return map[string]int64{
		"sessions":         int64(len(sessions)),
		"frames":           frames,
		"deltas":           deltas,
		"applied":          applied,
		"duplicate_frames": duplicates,
		"resumes":          resumes,
		"seq_gaps":         gaps,
		"rejected_deltas":  rejects,
		"evicted_sessions": evictions,
	}
}
