// Package server implements the BIPS central server machine: it owns the
// user registry, the location database and the building topology, accepts
// presence deltas from workstations, and answers user queries — login,
// logout, locate, and the shortest-path navigation query that is the
// service's headline feature.
//
// The same business-logic methods back two transports: the wire protocol
// over TCP (the Ethernet LAN of the paper, length-prefixed frames) and
// direct in-process calls used by the simulation and the examples;
// either way presence deltas reach the location store only as
// ApplyBatch frames, and over the wire only inside an ingest session.
//
// # Connection pipeline
//
// A connection is a wire.FrameCodec served by a reader/writer goroutine
// pair. The reader receives requests into pooled buffers and either
// handles the cheap reads itself (inlineRead) or hands the request to a
// handler goroutine, with at most MaxInFlight requests executing per
// connection; both routes run handle, which calls the one dispatch
// switch to append the response into a pooled frame. The writer — the
// only goroutine that writes the socket — stages queued responses and
// pushed subscription events in completion order and flushes when the
// queue it drew from goes idle. Responses therefore may arrive out of request
// order — the envelope Seq is the correlation id that ties them back
// together — which is what lets one slow navigation query overlap
// hundreds of cheap requests on the same persistent connection; ingest
// frames alone apply in arrival order (see turn). Business state is safe
// under this concurrency: the registry and the sharded location
// database carry their own locks and the building is immutable after
// construction.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"bips/internal/analytics"
	"bips/internal/building"
	"bips/internal/fanout"
	"bips/internal/graph"
	"bips/internal/ingest"
	"bips/internal/locdb"
	"bips/internal/metrics"
	"bips/internal/registry"
	"bips/internal/wire"
)

// DefaultMaxInFlight bounds concurrently executing requests per
// connection. It trades per-connection memory (one goroutine plus one
// buffered response slot each) against pipeline depth; see
// docs/OPERATIONS.md for tuning guidance.
const DefaultMaxInFlight = 64

// DefaultFlushBytes bounds how many response/event bytes the writer
// stages between flushes: the writer drains its queue opportunistically
// and flushes when the queue goes idle or the staged bytes pass this
// threshold, whichever comes first. It is also the per-connection write
// buffer size, so the threshold is real — bufio cannot flush earlier on
// its own. See docs/OPERATIONS.md for tuning guidance.
const DefaultFlushBytes = 32 << 10

// Option configures a Server at construction.
type Option func(*Server)

// WithMaxInFlight overrides DefaultMaxInFlight. Values below 1 are
// clamped to 1 (strictly serial per-connection handling).
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.maxInFlight = n
	}
}

// WithFlushBytes overrides DefaultFlushBytes: the staged-bytes
// threshold at which the connection writer flushes even though its
// queue still holds work, and the connection's write-buffer size.
// Larger values coalesce more frames per write(2) under bursts at the
// cost of buffered latency and per-connection memory; values below 1
// select the default.
func WithFlushBytes(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.flushBytes = n
		}
	}
}

// Server is the central BIPS server.
type Server struct {
	reg *registry.Registry
	db  locdb.Store
	bld *building.Building

	maxInFlight int
	flushBytes  int

	// ingest is the sessioned workstation write path (hello / batch /
	// ack); see internal/ingest and docs/PROTOCOL.md section 8.
	ingest *ingest.Pipeline

	// analytics is the room → presence-interval index behind the
	// contact-tracing, occupancy and dwell queries; like the fan-out
	// tree it consumes every locdb delta exactly once. ownAnalytics
	// records whether the server created it (and must close it) or it
	// was injected with WithAnalytics.
	analytics    *analytics.Engine
	ownAnalytics bool

	// tree is the shared subscription index behind wire-level and
	// in-process push notifications; every locdb delta is fed into it
	// exactly once. See internal/fanout and docs/PROTOCOL.md section 9.
	tree        *fanout.Tree
	eventBuffer int
	dropLimit   int
	maxSubs     int
	killGrace   time.Duration

	// Metrics. The hot-path counters are resolved once at construction;
	// everything is also reachable through the registry for MsgStats.
	metrics   *metrics.Registry
	reqCount  map[wire.MsgType]*metrics.Counter
	reqOther  *metrics.Counter
	errCount  *metrics.Counter
	malformed *metrics.Counter
	connTotal *metrics.Counter
	latency   *metrics.Histogram
	evPushed  *metrics.Counter
	evDropped *metrics.Counter
	slowKills *metrics.Counter
	// Flush-coalescing counters (see flushWriter): flushes issued,
	// frames and bytes that left in them. frames/flushes is the
	// syscall amortization MsgStats derives as wire.frames_per_flush.
	wireFlushes    *metrics.Counter
	wireFrames     *metrics.Counter
	wireFlushBytes *metrics.Counter

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	wg       sync.WaitGroup
	closed   bool

	// beforeHandle, when non-nil, runs in the handler goroutine before
	// dispatch. Tests use it to stall chosen message types and prove
	// out-of-order completion.
	beforeHandle func(wire.MsgType)

	// Logf logs connection-level failures; defaults to log.Printf.
	Logf func(format string, args ...any)
}

// New assembles a server from its three state components. db is any
// location-store backend: the in-memory locdb.DB or the durable
// storage.Durable (WAL + snapshots) — the server is agnostic.
func New(reg *registry.Registry, db locdb.Store, bld *building.Building, opts ...Option) *Server {
	s := &Server{
		reg:         reg,
		db:          db,
		bld:         bld,
		maxInFlight: DefaultMaxInFlight,
		flushBytes:  DefaultFlushBytes,
		eventBuffer: DefaultEventBuffer,
		dropLimit:   DefaultDropLimit,
		maxSubs:     DefaultMaxSubsPerConn,
		killGrace:   defaultKillGrace,
		metrics:     metrics.NewRegistry(),
		conns:       make(map[net.Conn]bool),
		Logf:        log.Printf,
	}
	s.reqCount = make(map[wire.MsgType]*metrics.Counter)
	for _, t := range wire.AllMsgTypes {
		s.reqCount[t] = s.metrics.Counter("server.requests." + string(t))
	}
	s.reqOther = s.metrics.Counter("server.requests.unknown")
	s.errCount = s.metrics.Counter("server.errors")
	s.malformed = s.metrics.Counter("server.malformed")
	s.connTotal = s.metrics.Counter("server.connections")
	s.latency = s.metrics.Histogram("server.dispatch")
	s.evPushed = s.metrics.Counter("fanout.events_pushed")
	s.evDropped = s.metrics.Counter("fanout.events_dropped")
	s.slowKills = s.metrics.Counter("fanout.slow_kills")
	s.wireFlushes = s.metrics.Counter("wire.flushes")
	s.wireFrames = s.metrics.Counter("wire.frames")
	s.wireFlushBytes = s.metrics.Counter("wire.flush_bytes")
	for _, opt := range opts {
		opt(s)
	}
	s.ingest = ingest.NewPipeline(db, s.resolveDelta)
	// Feed every location delta into the fan-out tree exactly once —
	// batched, through the sink interface, so a whole ingest frame
	// reaches the tree as one PublishBatch — and prime the tree's room
	// view from a restored durable backend (no traffic can flow yet —
	// the caller has not started serving).
	s.tree = fanout.New()
	db.SubscribeSink(s.tree)
	s.tree.Seed(db.All())
	// The analytics engine rides the same delta stream; the sink
	// registration lets it ingest a whole frame under one lock. Seeding
	// from the store's dump restores a durable backend's history after
	// restart.
	if s.analytics == nil {
		s.analytics = analytics.NewMemory(db.HistoryLimit())
		s.ownAnalytics = true
	}
	db.SubscribeSink(s.analytics)
	s.analytics.Seed(db.Dump())
	return s
}

// Registry exposes the user registry (for administrative tooling).
func (s *Server) Registry() *registry.Registry { return s.reg }

// DB exposes the location store.
func (s *Server) DB() locdb.Store { return s.db }

// Building exposes the topology.
func (s *Server) Building() *building.Building { return s.bld }

// Metrics exposes the server's metric registry.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// MaxInFlight reports the per-connection pipeline depth limit.
func (s *Server) MaxInFlight() int { return s.maxInFlight }

// Ingest exposes the workstation ingestion pipeline (for tooling and
// tests observing session state).
func (s *Server) Ingest() *ingest.Pipeline { return s.ingest }

// Fanout exposes the shared subscription index, so in-process
// consumers (the simulation facade's event stream) ride the same tree
// as wire subscribers and observe deltas in the same order.
func (s *Server) Fanout() *fanout.Tree { return s.tree }

// --- Business logic -------------------------------------------------------

// Login authenticates and binds a user to a device.
func (s *Server) Login(req wire.Login) error {
	dev, err := wire.ParseAddr(req.Device)
	if err != nil {
		return err
	}
	return s.reg.Login(registry.UserID(req.User), req.Password, dev)
}

// Logout releases the user's binding and drops the device from the
// location database (BIPS stops tracking on logout).
func (s *Server) Logout(req wire.Logout) error {
	id := registry.UserID(req.User)
	dev, err := s.reg.DeviceOf(id)
	if err != nil {
		return err
	}
	if err := s.reg.Logout(id); err != nil {
		return err
	}
	s.db.Drop(dev)
	return nil
}

// resolveDelta is the ingest pipeline's per-delta business validation:
// it parses the device address, checks the room against the building,
// and reports untracked devices (not logged in) as skip-silently.
func (s *Server) resolveDelta(p wire.Presence) (locdb.Mutation, bool, error) {
	dev, err := wire.ParseAddr(p.Device)
	if err != nil {
		return locdb.Mutation{}, false, err
	}
	if err := s.roomKnown(p.Room); err != nil {
		return locdb.Mutation{}, false, err
	}
	// Only logged-in devices are tracked; silently ignore the rest
	// (anonymous devices may answer inquiries but BIPS does not track
	// them).
	if _, err := s.reg.UserOf(dev); err != nil {
		return locdb.Mutation{}, false, nil
	}
	op := locdb.MutPresence
	if !p.Present {
		op = locdb.MutAbsence
	}
	return locdb.Mutation{Op: op, Dev: dev, Piconet: p.Room, At: p.At}, true, nil
}

// Locate runs the paper's spatio-temporal query with its access checks:
// the querying user must hold the locate right, the target must be
// trackable and logged in.
func (s *Server) Locate(req wire.Locate) (wire.LocateResult, error) {
	dev, err := s.reg.Authorize(registry.UserID(req.Querier), registry.UserID(req.Target))
	if err != nil {
		return wire.LocateResult{}, err
	}
	fix, err := s.db.Locate(dev)
	if err != nil {
		return wire.LocateResult{}, err
	}
	return wire.LocateResult{Room: fix.Piconet, RoomName: s.roomName(fix.Piconet), At: fix.At}, nil
}

// LocateAt runs the historical spatio-temporal query with the same
// access checks as Locate: the piconet the target was in at tick At
// (more precisely, the presence run covering that tick, as far back as
// the bounded history reaches).
func (s *Server) LocateAt(req wire.LocateAt) (wire.LocateResult, error) {
	dev, err := s.reg.Authorize(registry.UserID(req.Querier), registry.UserID(req.Target))
	if err != nil {
		return wire.LocateResult{}, err
	}
	fix, err := s.db.LocateAt(dev, req.At)
	if err != nil {
		return wire.LocateResult{}, err
	}
	return wire.LocateResult{Room: fix.Piconet, RoomName: s.roomName(fix.Piconet), At: fix.At}, nil
}

// Trajectory runs the time-window spatio-temporal query with the same
// access checks as Locate: every presence run of the target overlapping
// [From, To], oldest first. A window before the recorded history yields
// an empty step list, not an error.
func (s *Server) Trajectory(req wire.TrajectoryQuery) (wire.TrajectoryResult, error) {
	dev, err := s.reg.Authorize(registry.UserID(req.Querier), registry.UserID(req.Target))
	if err != nil {
		return wire.TrajectoryResult{}, err
	}
	fixes := s.db.Trajectory(dev, req.From, req.To)
	out := wire.TrajectoryResult{Steps: make([]wire.TrajectoryStep, 0, len(fixes))}
	for _, fix := range fixes {
		out.Steps = append(out.Steps, wire.TrajectoryStep{
			Room: fix.Piconet, RoomName: s.roomName(fix.Piconet), At: fix.At,
		})
	}
	return out, nil
}

// roomName resolves a room id to its display name ("" when the id is
// not in the building — possible for history recorded under an older
// floor plan).
func (s *Server) roomName(id graph.NodeID) string {
	if r, ok := s.bld.Room(id); ok {
		return r.Name
	}
	return ""
}

// Path answers the navigation query: the shortest path from the querier's
// current piconet to the target's current piconet, as a room sequence.
func (s *Server) Path(req wire.PathQuery) (wire.PathResult, error) {
	// The querier must itself be logged in and located.
	qdev, err := s.reg.DeviceOf(registry.UserID(req.Querier))
	if err != nil {
		return wire.PathResult{}, err
	}
	qfix, err := s.db.Locate(qdev)
	if err != nil {
		return wire.PathResult{}, fmt.Errorf("querier position: %w", err)
	}
	loc, err := s.Locate(wire.Locate{Querier: req.Querier, Target: req.Target})
	if err != nil {
		return wire.PathResult{}, err
	}
	p, err := s.bld.ShortestPath(qfix.Piconet, loc.Room)
	if err != nil {
		return wire.PathResult{}, err
	}
	return wire.PathResult{
		Rooms:       p.Nodes,
		Names:       s.bld.PathNames(p),
		TotalMeters: float64(p.Total),
	}, nil
}

// RoomsInfo lists the building's rooms for the wire protocol's floor-plan
// query.
func (s *Server) RoomsInfo() wire.RoomsResult {
	rooms := s.bld.Rooms()
	out := wire.RoomsResult{Rooms: make([]wire.RoomInfo, 0, len(rooms))}
	for _, r := range rooms {
		out.Rooms = append(out.Rooms, wire.RoomInfo{
			ID: r.ID, Name: r.Name, X: r.Center.X, Y: r.Center.Y,
		})
	}
	return out
}

// StatsResult snapshots the server's metrics for the MsgStats query: the
// server's own counters and dispatch-latency histograms plus the location
// database's activity counters under the "locdb." prefix.
func (s *Server) StatsResult() wire.StatsResult {
	snap := s.metrics.Snapshot()
	out := wire.StatsResult{
		Counters:   snap.Counters,
		Histograms: make(map[string]wire.HistogramStats, len(snap.Histograms)),
	}
	for name, h := range snap.Histograms {
		out.Histograms[name] = wire.HistogramStats{
			Count: h.Count,
			Sum:   h.Sum,
			Min:   h.Min,
			Max:   h.Max,
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
	}
	treeStats := s.tree.Stats()
	out.Counters["fanout.subscriptions"] = int64(treeStats.Subscriptions)
	out.Counters["fanout.published"] = treeStats.Published
	out.Counters["fanout.delivered"] = treeStats.Delivered
	out.Counters["fanout.backlog"] = int64(treeStats.Backlog)
	dbStats := s.db.Stats()
	out.Counters["locdb.updates"] = dbStats.Updates
	out.Counters["locdb.absences"] = dbStats.Absences
	out.Counters["locdb.queries"] = dbStats.Queries
	out.Counters["locdb.present"] = int64(dbStats.Present)
	out.Counters["locdb.shards"] = int64(dbStats.Shards)
	for name, v := range s.ingest.Stats() {
		out.Counters["ingest."+name] = v
	}
	for name, v := range s.analytics.Stats() {
		out.Counters["analytics."+name] = v
	}
	// A durable backend additionally reports its WAL/snapshot counters.
	if ss, ok := s.db.(interface{ StorageStats() map[string]int64 }); ok {
		for name, v := range ss.StorageStats() {
			out.Counters["storage."+name] = v
		}
	}
	// Derived syscall-amortization ratio: how many frames left per
	// flush on average. 1 means flush-per-frame (no coalescing win);
	// the harness reports it per workload as wire.frames_per_flush.
	if flushes := out.Counters["wire.flushes"]; flushes > 0 {
		out.Counters["wire.frames_per_flush"] = out.Counters["wire.frames"] / flushes
	}
	return out
}

// --- Wire transport -------------------------------------------------------

// errorCode maps business errors onto wire error codes.
func errorCode(err error) string {
	switch {
	case errors.Is(err, registry.ErrDenied):
		return wire.CodeDenied
	case errors.Is(err, registry.ErrBadPassword),
		errors.Is(err, registry.ErrAlreadyOnline),
		errors.Is(err, registry.ErrDeviceInUse):
		return wire.CodeAuth
	case errors.Is(err, registry.ErrUnknownUser),
		errors.Is(err, registry.ErrNotLoggedIn),
		errors.Is(err, locdb.ErrNotPresent),
		errors.Is(err, building.ErrUnknownRoom),
		errors.Is(err, ingest.ErrUnknownSession),
		errors.Is(err, ErrUnknownSubscription):
		return wire.CodeNotFound
	case errors.Is(err, registry.ErrBadDevice),
		errors.Is(err, registry.ErrEmptyUserID),
		errors.Is(err, ingest.ErrSeqGap),
		errors.Is(err, ingest.ErrSessionLimit),
		errors.Is(err, ErrDuplicateSubscription),
		errors.Is(err, ErrSubscriptionLimit),
		errors.Is(err, wire.ErrMalformed):
		return wire.CodeBadRequest
	case errors.Is(err, errSlowConsumer):
		return wire.CodeSlowConsumer
	default:
		return wire.CodeInternal
	}
}

// appendError appends a MsgError response envelope for err.
func appendError(buf []byte, seq uint64, err error) []byte {
	werr := wire.Error{Code: errorCode(err), Message: err.Error()}
	return wire.AppendEnvelope(buf, wire.MsgError, seq, &werr)
}

// errorFrame encodes a MsgError into a pooled frame for the writer
// queues: the answer to bytes that never became a request (malformed)
// or to a connection condemned as a slow consumer.
func errorFrame(seq uint64, err error) *wire.Buf {
	buf := wire.GetBuf()
	buf.B = appendError(buf.B, seq, err)
	return buf
}

// flushWriter batches frame writes on one connection: each queued
// frame — an encoded response or push event in a pooled buffer the queue
// owned — is staged with SendPayloadNoFlush and released, and the batch
// leaves in one write(2) when the connection writer observes the queue
// it drew from idle (flush-on-idle) or the staged bytes pass the
// server's flush threshold. After a send error it keeps accepting — and
// releasing — frames without touching the dead stream, so producers
// never block on a gone connection. It belongs to the connection writer
// goroutine.
type flushWriter struct {
	srv        *Server
	tr         *wire.FrameCodec
	sendFailed bool
	frames     int // frames staged since the last flush
	bytes      int // wire bytes staged since the last flush
}

// write stages one queued frame, releasing its pooled buffer in every
// outcome.
func (fw *flushWriter) write(buf *wire.Buf) {
	if !fw.sendFailed {
		if err := fw.tr.SendPayloadNoFlush(buf.B); err != nil {
			fw.sendFailed = true
		} else {
			fw.frames++
			fw.bytes += len(buf.B) + wire.FrameHeaderLen
		}
	}
	buf.Release()
	if fw.bytes >= fw.srv.flushBytes {
		fw.flush()
	}
}

// flush pushes everything staged onto the stream and settles the
// coalescing counters. A no-op when nothing is staged.
func (fw *flushWriter) flush() {
	if fw.frames == 0 {
		return
	}
	frames, bytes := fw.frames, fw.bytes
	fw.frames, fw.bytes = 0, 0
	if fw.sendFailed {
		return
	}
	if err := fw.tr.Flush(); err != nil {
		fw.sendFailed = true
		return
	}
	fw.srv.wireFlushes.Inc()
	fw.srv.wireFrames.Add(int64(frames))
	fw.srv.wireFlushBytes.Add(int64(bytes))
}

// inlineRead reports whether a request type is dispatched inline on the
// reader goroutine: cheap read-mostly queries whose handling costs less
// than the goroutine handoff they would otherwise pay. Inline requests
// bypass the MaxInFlight bound (they cannot pile up — the reader handles
// at most one at a time) and never manage subscriptions, so they are
// safe without a handler goroutine.
func inlineRead(t wire.MsgType) bool {
	switch t {
	case wire.MsgLocate, wire.MsgLocateAt, wire.MsgStats:
		return true
	}
	return false
}

// ServeConn handles one protocol connection until EOF. It is exported so
// tests and in-memory deployments can drive the server over net.Pipe.
//
// The connection is served by this goroutine acting as the reader, one
// writer goroutine that alone writes the socket — responses and pushed
// subscription events alike (see writeLoop) — and up to MaxInFlight
// transient handler goroutines, except for the cheap read queries
// (inlineRead), which the reader dispatches itself to skip the
// per-request goroutine handoff. Requests arrive in pooled receive
// buffers and responses leave in pooled send buffers; see
// docs/ARCHITECTURE.md, "Buffer ownership and release rules". A
// malformed message — including a first frame in any framing but the
// length-prefixed one — is answered with a MsgError (correlation id 0,
// since a frame that failed to parse has no trustworthy sequence
// number) and then the connection is closed; a transport error just
// ends the connection.
func (s *Server) ServeConn(conn io.ReadWriter) {
	s.connTotal.Inc()
	tr := wire.NewFrameCodecBuffered(conn, s.flushBytes)

	// Per-connection subscription state, with the pushed-event queue the
	// writer drains next to the response queue. The raw closer (when the
	// stream is closable at all) lets the slow-consumer kill sever the
	// socket without taking transport locks.
	raw, _ := conn.(io.Closer)
	cs := newConnSubs(s, raw)
	out := make(chan *wire.Buf, s.maxInFlight+1)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		cs.writeLoop(&flushWriter{srv: s, tr: tr}, out)
	}()
	var handlers sync.WaitGroup
	sem := make(chan struct{}, s.maxInFlight)
	// The reader owns one receive buffer for the whole connection: an
	// inline request's body is dead once handle returns, so the buffer
	// is simply reused. Only a request handed to a handler goroutine
	// takes the buffer with it (the handler releases it) and the reader
	// replaces its own from the pool.
	readBuf := wire.GetBuf()
	// last is the done channel of the newest frame handed a turn.
	var last chan struct{}
	for {
		var env wire.Envelope
		var err error
		env, readBuf.B, err = tr.RecvBuf(readBuf.B)
		if err != nil {
			if errors.Is(err, wire.ErrMalformed) {
				// Answer with a reason before closing instead of
				// silently dropping the connection.
				s.malformed.Inc()
				out <- errorFrame(0, err)
			}
			break
		}
		if inlineRead(env.Type) {
			out <- s.handle(cs, turn{}, env)
			continue
		}
		var t turn
		if env.Type == wire.MsgPresenceBatch {
			t = turn{prev: last, done: make(chan struct{})}
			last = t.done
		}
		reqBuf := readBuf
		readBuf = wire.GetBuf()
		sem <- struct{}{}
		handlers.Add(1)
		go func(env wire.Envelope) {
			defer handlers.Done()
			defer func() { <-sem }()
			resp := s.handle(cs, t, env)
			// dispatch decoded everything it needs out of env.Body, so
			// the request buffer can go back.
			reqBuf.Release()
			out <- resp
		}(env)
	}
	readBuf.Release()
	// Every handler has returned, so nobody can add subscriptions
	// anymore: cancel the connection's fan-out registrations and close
	// both writer queues, wait for the writer to flush out, then close
	// the underlying stream (when closable) so peers see EOF as soon as
	// the final frame is flushed — in particular after a malformed
	// message was answered.
	handlers.Wait()
	cs.shutdown()
	close(out)
	<-writerDone
	_ = tr.Close()
}

// handle executes one request, on the reader goroutine (inlineRead) or
// a handler goroutine, and returns the encoded response in a pooled
// frame the caller hands to the writer queue.
func (s *Server) handle(cs *connSubs, t turn, env wire.Envelope) *wire.Buf {
	if s.beforeHandle != nil {
		s.beforeHandle(env.Type)
	}
	start := time.Now()
	resp := wire.GetBuf()
	resp.B = s.dispatch(cs, t, env, resp.B)
	s.latency.ObserveDuration(time.Since(start))
	return resp
}

// turn orders a connection's presence.batch frames: the reader hands
// each the previous one's done channel as prev and a fresh done. The handler decodes
// concurrently, then takes the turn (waits on prev) before applying and
// releases it (closes done) after, on every path — decode errors
// included — so frames apply in arrival order. The zero turn orders
// nothing.
type turn struct{ prev, done chan struct{} }

func (t turn) take() {
	if t.prev != nil {
		<-t.prev
	}
}

func (t turn) release() {
	if t.done != nil {
		close(t.done)
	}
}

// DispatchBytes executes one decoded request envelope and returns buf
// extended with the encoded response envelope. It is the transport-free
// entry point the allocation-budget suite and benchmarks measure;
// ServeConn goes through the same code. env.Body may alias a
// caller-owned buffer — it is dead once the call returns. Subscription
// management types are answered bad-request: they need a connection.
func (s *Server) DispatchBytes(env wire.Envelope, buf []byte) []byte {
	return s.dispatch(nil, turn{}, env, buf)
}

// batchPool recycles decoded presence.batch frames: a canonical frame
// decodes into the pooled Deltas array without allocating it. Frames
// above maxPooledDeltas are left to the collector, so one huge frame
// does not pin its array in the pool.
var batchPool = sync.Pool{New: func() any { return new(wire.PresenceBatch) }}

const maxPooledDeltas = 1024

// dispatch executes one request envelope and appends the encoded
// response envelope to buf. It is called from the reader and handler
// goroutines and must stay safe for concurrent use; all mutable state it
// touches is behind the registry and location-database locks. env.Body
// may alias a pooled request buffer — it is dead once this function
// returns. cs carries the connection's subscription state (nil from
// DispatchBytes). t is the frame's turn in its connection's write order
// (see turn).
//
// The hot read and ingest types are decoded and encoded through the wire
// package's zero-allocation paths; everything else goes through
// encoding/json, which costs what it always did.
func (s *Server) dispatch(cs *connSubs, t turn, env wire.Envelope, buf []byte) []byte {
	if c, ok := s.reqCount[env.Type]; ok {
		c.Inc()
	} else {
		s.reqOther.Inc()
	}
	fail := func(err error) []byte {
		s.errCount.Inc()
		return appendError(buf, env.Seq, err)
	}
	ok := func(t wire.MsgType, body any) []byte {
		resp, err := wire.MarshalBody(t, env.Seq, body)
		if err != nil {
			return fail(err)
		}
		return wire.AppendEnvelopeRaw(buf, resp)
	}

	switch env.Type {
	case wire.MsgLocate:
		// The fallback decodes into its own variable so taking its
		// address for UnmarshalBody does not push the hot-path q (and
		// everything reachable from it) onto the heap; likewise the
		// response is spelled out through AppendEnvelopePrefix instead
		// of boxed into AppendEnvelope's Appender parameter.
		var q wire.Locate
		if !q.DecodeBody(env.Body) {
			var slow wire.Locate
			if err := wire.UnmarshalBody(env, &slow); err != nil {
				return fail(err)
			}
			q = slow
		}
		res, err := s.Locate(q)
		if err != nil {
			return fail(err)
		}
		buf = wire.AppendEnvelopePrefix(buf, wire.MsgLocateResult, env.Seq)
		buf = res.AppendTo(buf)
		return append(buf, '}')
	case wire.MsgLocateAt:
		var q wire.LocateAt
		if !q.DecodeBody(env.Body) {
			var slow wire.LocateAt
			if err := wire.UnmarshalBody(env, &slow); err != nil {
				return fail(err)
			}
			q = slow
		}
		res, err := s.LocateAt(q)
		if err != nil {
			return fail(err)
		}
		buf = wire.AppendEnvelopePrefix(buf, wire.MsgLocateResult, env.Seq)
		buf = res.AppendTo(buf)
		return append(buf, '}')
	case wire.MsgPresenceBatch:
		b := batchPool.Get().(*wire.PresenceBatch)
		var err error
		if !b.DecodeBody(env.Body) {
			// encoding/json decodes into a reused slice element without
			// zeroing it: a frame that omits "present" would inherit an
			// earlier frame's value. Start the fallback from nothing.
			*b = wire.PresenceBatch{}
			err = wire.UnmarshalBody(env, b)
		}
		var ack wire.IngestAck
		t.take()
		if err == nil {
			ack, err = s.ingest.Apply(*b)
		}
		t.release()
		if cap(b.Deltas) <= maxPooledDeltas {
			batchPool.Put(b)
		}
		if err != nil {
			return fail(err)
		}
		return wire.AppendEnvelope(buf, wire.MsgIngestAck, env.Seq, &ack)
	case wire.MsgHello:
		var h wire.Hello
		if err := wire.UnmarshalBody(env, &h); err != nil {
			return fail(err)
		}
		if err := s.roomKnown(h.Room); err != nil {
			return fail(err)
		}
		return ok(wire.MsgOK, struct{}{})
	case wire.MsgLogin:
		var l wire.Login
		if err := wire.UnmarshalBody(env, &l); err != nil {
			return fail(err)
		}
		if err := s.Login(l); err != nil {
			return fail(err)
		}
		return ok(wire.MsgOK, struct{}{})
	case wire.MsgLogout:
		var l wire.Logout
		if err := wire.UnmarshalBody(env, &l); err != nil {
			return fail(err)
		}
		if err := s.Logout(l); err != nil {
			return fail(err)
		}
		return ok(wire.MsgOK, struct{}{})
	case wire.MsgTrajectory:
		var q wire.TrajectoryQuery
		if err := wire.UnmarshalBody(env, &q); err != nil {
			return fail(err)
		}
		res, err := s.Trajectory(q)
		if err != nil {
			return fail(err)
		}
		return ok(wire.MsgTrajectoryResult, res)
	case wire.MsgPath:
		var q wire.PathQuery
		if err := wire.UnmarshalBody(env, &q); err != nil {
			return fail(err)
		}
		res, err := s.Path(q)
		if err != nil {
			return fail(err)
		}
		return ok(wire.MsgPathResult, res)
	case wire.MsgIngestHello:
		var h wire.IngestHello
		if err := wire.UnmarshalBody(env, &h); err != nil {
			return fail(err)
		}
		if err := s.roomKnown(h.Room); err != nil {
			return fail(err)
		}
		ackRes, err := s.ingest.Hello(h)
		if err != nil {
			return fail(err)
		}
		return ok(wire.MsgIngestAck, ackRes)
	case wire.MsgSubscribe:
		var sub wire.Subscribe
		if err := wire.UnmarshalBody(env, &sub); err != nil {
			return fail(err)
		}
		if err := sub.Validate(); err != nil {
			return fail(err)
		}
		if cs == nil {
			return fail(fmt.Errorf("%w: %s needs a connection", wire.ErrMalformed, env.Type))
		}
		f, err := s.resolveFilter(sub)
		if err != nil {
			return fail(err)
		}
		if err := cs.add(sub.ID, f); err != nil {
			return fail(err)
		}
		return ok(wire.MsgOK, struct{}{})
	case wire.MsgUnsubscribe:
		var unsub wire.Unsubscribe
		if err := wire.UnmarshalBody(env, &unsub); err != nil {
			return fail(err)
		}
		if err := unsub.Validate(); err != nil {
			return fail(err)
		}
		if cs == nil {
			return fail(fmt.Errorf("%w: %s needs a connection", wire.ErrMalformed, env.Type))
		}
		if err := cs.drop(unsub.ID); err != nil {
			return fail(err)
		}
		return ok(wire.MsgOK, struct{}{})
	case wire.MsgContacts:
		var q wire.ContactsQuery
		if err := wire.UnmarshalBody(env, &q); err != nil {
			return fail(err)
		}
		res, err := s.Contacts(q)
		if err != nil {
			return fail(err)
		}
		return ok(wire.MsgContactsResult, res)
	case wire.MsgOccupancy:
		var q wire.OccupancyQuery
		if err := wire.UnmarshalBody(env, &q); err != nil {
			return fail(err)
		}
		res, err := s.Occupancy(q)
		if err != nil {
			return fail(err)
		}
		return ok(wire.MsgOccupancyResult, res)
	case wire.MsgDwell:
		var q wire.DwellQuery
		if err := wire.UnmarshalBody(env, &q); err != nil {
			return fail(err)
		}
		res, err := s.Dwell(q)
		if err != nil {
			return fail(err)
		}
		return ok(wire.MsgDwellResult, res)
	case wire.MsgRooms:
		return ok(wire.MsgRoomsResult, s.RoomsInfo())
	case wire.MsgStats:
		return ok(wire.MsgStatsResult, s.StatsResult())
	default:
		return fail(fmt.Errorf("%w: unknown message type %q", wire.ErrMalformed, env.Type))
	}
}

// Serve accepts connections until Close. It returns nil after Close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server: closed")
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				// ServeConn already closed the transport; only report
				// unexpected close failures.
				if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) && s.Logf != nil {
					s.Logf("server: close conn: %v", err)
				}
			}()
			s.ServeConn(conn)
		}()
	}
}

// Close stops accepting, closes open connections and waits for handler
// goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	// Connections are gone, so no subscriber callbacks remain; drain
	// and stop the tree's delivery stage before tearing down analytics.
	s.tree.Close()
	if s.ownAnalytics {
		if aerr := s.analytics.Close(); aerr != nil && err == nil {
			err = aerr
		}
	}
	return err
}
