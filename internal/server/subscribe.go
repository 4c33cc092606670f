// Wire-level subscriptions: per-connection subscription state, access
// checks, and the slow-consumer policy.
//
// Every connection owns a connSubs: the map from client-chosen
// subscription ids to fan-out registrations, plus one bounded event
// buffer drained by a pusher goroutine. Fan-out callbacks run on the
// tree's delivery goroutine (or inline on the publishing goroutine
// under WithSyncFanout) and must never block, so they enqueue
// non-blocking and count a drop when the buffer is full; ingest and
// other subscribers never wait on a slow consumer. A connection that keeps dropping past
// the drop limit is killed: a best-effort slow-consumer MsgError, then
// the socket is severed (with a timer backstop in case even the error
// cannot be written).
package server

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"bips/internal/building"
	"bips/internal/fanout"
	"bips/internal/registry"
	"bips/internal/wire"
)

// DefaultEventBuffer is the per-connection event buffer capacity: how
// many pushed events may be queued between the fan-out tree and the
// socket before new ones are dropped.
const DefaultEventBuffer = 256

// DefaultDropLimit is how many dropped events a connection is allowed
// before it is declared a slow consumer and disconnected.
const DefaultDropLimit = 1024

// DefaultMaxSubsPerConn bounds the subscriptions of one connection.
const DefaultMaxSubsPerConn = 1024

// defaultKillGrace is how long the slow-consumer backstop waits for
// the best-effort MsgError to be written before severing the socket
// regardless.
const defaultKillGrace = 2 * time.Second

// Subscription errors.
var (
	// ErrUnknownSubscription reports an unsubscribe for an id this
	// connection never registered (or already cancelled).
	ErrUnknownSubscription = errors.New("server: unknown subscription")
	// ErrDuplicateSubscription reports a subscribe re-using a live id.
	ErrDuplicateSubscription = errors.New("server: subscription id already in use")
	// ErrSubscriptionLimit reports a connection at its subscription cap.
	ErrSubscriptionLimit = errors.New("server: per-connection subscription limit")
	// errSlowConsumer is the reason a never-reading subscriber is
	// disconnected; it maps to wire.CodeSlowConsumer.
	errSlowConsumer = errors.New("server: subscriber too slow: event buffer overflowed past the drop limit")
)

// WithEventBuffer overrides DefaultEventBuffer. Values below 1 are
// clamped to 1.
func WithEventBuffer(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.eventBuffer = n
	}
}

// WithDropLimit overrides DefaultDropLimit. Values below 1 are clamped
// to 1 (the first dropped event already disconnects).
func WithDropLimit(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.dropLimit = n
	}
}

// WithMaxSubsPerConn overrides DefaultMaxSubsPerConn. Values below 1
// are clamped to 1.
func WithMaxSubsPerConn(n int) Option {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.maxSubs = n
	}
}

// connSubs is one connection's subscription state. The subs map is
// mutated only by handler goroutines (dispatch) and the teardown path,
// which runs strictly after every handler finished; push is called
// from fan-out callbacks on arbitrary publishing goroutines.
type connSubs struct {
	srv *Server
	tr  *wire.FrameCodec
	// raw severs the underlying connection without taking transport
	// locks — FrameCodec.Close takes the write mutex, which a send
	// stalled on a full socket holds, so the slow-consumer backstop
	// must bypass it.
	raw io.Closer

	// events holds pushed MsgEvent frames, each encoded once into a
	// pooled buffer at publish time; the queue owns a frame until the
	// pump (or a drop/teardown path) releases it.
	events chan *wire.Buf
	kill   chan struct{}

	startOnce sync.Once
	killOnce  sync.Once
	pumpDone  chan struct{}

	mu     sync.Mutex
	subs   map[string]*fanout.Subscription
	drops  int64
	killed bool
	closed bool
}

func newConnSubs(s *Server, tr *wire.FrameCodec, raw io.Closer) *connSubs {
	return &connSubs{
		srv:      s,
		tr:       tr,
		raw:      raw,
		events:   make(chan *wire.Buf, s.eventBuffer),
		kill:     make(chan struct{}),
		pumpDone: make(chan struct{}),
		subs:     make(map[string]*fanout.Subscription),
	}
}

// add registers one subscription: reserve the id, register on the
// fan-out tree (outside cs.mu — a synchronous tree's callbacks take
// cs.mu under the tree's locks, so holding both here would invert the
// order), then bind the registration to the id.
func (cs *connSubs) add(id string, f fanout.Filter) error {
	cs.mu.Lock()
	if cs.killed || cs.subs == nil {
		cs.mu.Unlock()
		return errSlowConsumer
	}
	if _, dup := cs.subs[id]; dup {
		cs.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrDuplicateSubscription, id)
	}
	if len(cs.subs) >= cs.srv.maxSubs {
		cs.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrSubscriptionLimit, cs.srv.maxSubs)
	}
	cs.subs[id] = nil // reserve the id against concurrent handlers
	cs.mu.Unlock()

	cs.startOnce.Do(func() { go cs.pump() })
	fsub := cs.srv.tree.Subscribe(f, func(e fanout.Event) {
		cs.push(cs.eventFrame(id, e))
	})
	cs.mu.Lock()
	cs.subs[id] = fsub
	cs.mu.Unlock()
	return nil
}

// drop cancels one subscription by id.
func (cs *connSubs) drop(id string) error {
	cs.mu.Lock()
	fsub, ok := cs.subs[id]
	if ok {
		delete(cs.subs, id)
	}
	cs.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSubscription, id)
	}
	if fsub != nil {
		fsub.Cancel()
	}
	return nil
}

// push enqueues one encoded event without ever blocking: it runs
// inside a fan-out callback — on the tree's delivery goroutine, or on
// whatever goroutine applied the presence delta when the tree is
// synchronous. A full buffer drops the event
// (accounted, never silent — and the pooled payload is released);
// crossing the drop limit declares the connection a slow consumer.
func (cs *connSubs) push(m *wire.Buf) {
	cs.mu.Lock()
	if cs.closed || cs.killed {
		cs.mu.Unlock()
		m.Release()
		return
	}
	select {
	case cs.events <- m:
		cs.mu.Unlock()
		cs.srv.evPushed.Inc()
	default:
		cs.drops++
		over := cs.drops >= int64(cs.srv.dropLimit)
		cs.mu.Unlock()
		m.Release()
		cs.srv.evDropped.Inc()
		if over {
			cs.killSlow()
		}
	}
}

// killSlow declares the connection a slow consumer: the pusher is told
// to answer with a slow-consumer MsgError and sever the socket, and a
// timer backstop severs it regardless in case the pusher itself is
// wedged in a write the peer never drains.
func (cs *connSubs) killSlow() {
	cs.killOnce.Do(func() {
		cs.mu.Lock()
		cs.killed = true
		cs.mu.Unlock()
		cs.srv.slowKills.Inc()
		close(cs.kill)
		if cs.raw != nil {
			raw := cs.raw
			time.AfterFunc(cs.srv.killGrace, func() { _ = raw.Close() })
		}
	})
}

// pump is the pusher goroutine: the single reader of the event buffer,
// staging MsgEvent frames onto the transport (frame writes are safe
// against the response writer's concurrent sends) and flushing once per
// burst — a whole PublishBatch fan-out leaves in one write(2) instead
// of one per event. Started lazily with the connection's first
// subscription. A send failure just keeps it draining and releasing
// until teardown.
func (cs *connSubs) pump() {
	defer close(cs.pumpDone)
	fw := &flushWriter{srv: cs.srv, tr: cs.tr}
	for {
		select {
		case m, ok := <-cs.events:
			for ok {
				fw.write(m)
				select {
				case m, ok = <-cs.events:
					continue
				case <-cs.kill:
					cs.pumpKill(fw)
					return
				default:
				}
				break
			}
			// Burst over (or channel closed): flush the batch.
			fw.flush()
			if !ok {
				return
			}
		case <-cs.kill:
			cs.pumpKill(fw)
			return
		}
	}
}

// pumpKill answers the slow-consumer condemnation with a best-effort
// MsgError behind whatever events are already staged, severs the socket,
// and drains the event buffer until shutdown closes it, releasing every
// queued frame.
func (cs *connSubs) pumpKill(fw *flushWriter) {
	fw.write(errorFrame(0, errSlowConsumer))
	fw.flush()
	if cs.raw != nil {
		_ = cs.raw.Close()
	}
	for m := range cs.events {
		m.Release()
	}
}

// shutdown runs on connection teardown, strictly after every handler
// goroutine finished: cancel the fan-out registrations first (Cancel
// returning means no callback is running or will run), then close the
// buffer so the pusher exits.
func (cs *connSubs) shutdown() {
	cs.mu.Lock()
	subs := cs.subs
	cs.subs = nil
	cs.mu.Unlock()
	for _, fsub := range subs {
		if fsub != nil {
			fsub.Cancel()
		}
	}
	// Claim startOnce: if it was still unclaimed the pump never ran and
	// there is nothing to wait for; otherwise wait for it to drain out.
	neverStarted := false
	cs.startOnce.Do(func() { neverStarted = true })
	cs.mu.Lock()
	cs.closed = true
	cs.mu.Unlock()
	close(cs.events)
	if !neverStarted {
		<-cs.pumpDone
	}
}

// dropped reports the connection's drop count (tests).
func (cs *connSubs) dropped() int64 {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.drops
}

// resolveFilter applies the server's business validation and access
// checks to a subscribe request and returns the fan-out filter.
// Device and zone filters target a user and require exactly the
// access Locate requires (querier holds the locate right, target is
// trackable and online); room, occupancy and catch-all filters have no
// target user, so the querier must be logged in and hold the locate
// right. Rooms must exist in the building.
func (s *Server) resolveFilter(req wire.Subscribe) (fanout.Filter, error) {
	querier := registry.UserID(req.Querier)
	roomKnown := func(id building.RoomID) error {
		if _, ok := s.bld.Room(id); !ok {
			return fmt.Errorf("%w: room %d", building.ErrUnknownRoom, id)
		}
		return nil
	}
	switch req.Filter.Kind {
	case wire.FilterDevice, wire.FilterZone:
		dev, err := s.reg.Authorize(querier, registry.UserID(req.Filter.Target))
		if err != nil {
			return fanout.Filter{}, err
		}
		if req.Filter.Kind == wire.FilterDevice {
			return fanout.Filter{Kind: fanout.KindDevice, Device: dev}, nil
		}
		for _, r := range req.Filter.Rooms {
			if err := roomKnown(r); err != nil {
				return fanout.Filter{}, err
			}
		}
		return fanout.Filter{Kind: fanout.KindZone, Device: dev, Zone: req.Filter.Rooms}, nil
	default:
		// all / room / occupancy: no target user to authorize against,
		// so the querier itself must be online and allowed to locate.
		if _, err := s.reg.DeviceOf(querier); err != nil {
			return fanout.Filter{}, err
		}
		if !s.reg.HasRight(querier, registry.RightLocate) {
			return fanout.Filter{}, fmt.Errorf("%w: %s lacks %q", registry.ErrDenied, querier, registry.RightLocate)
		}
		switch req.Filter.Kind {
		case wire.FilterAll:
			return fanout.Filter{Kind: fanout.KindAll}, nil
		case wire.FilterRoom:
			if err := roomKnown(req.Filter.Room); err != nil {
				return fanout.Filter{}, err
			}
			return fanout.Filter{Kind: fanout.KindRoom, Room: req.Filter.Room}, nil
		default: // wire.FilterOccupancy, Validate ruled out the rest
			if err := roomKnown(req.Filter.Room); err != nil {
				return fanout.Filter{}, err
			}
			return fanout.Filter{
				Kind:      fanout.KindOccupancy,
				Room:      req.Filter.Room,
				Threshold: req.Filter.Threshold,
			}, nil
		}
	}
}

// eventBody renders one fan-out event as a MsgEvent body for the
// subscription with the given id. It runs inside the fan-out
// callback; the registry lookup is the only lock it takes, and the
// registry never calls into the tree.
func (s *Server) eventBody(id string, e fanout.Event) wire.Event {
	body := wire.Event{
		Sub:       id,
		Kind:      string(e.Kind),
		Room:      e.Room,
		RoomName:  s.roomName(e.Room),
		At:        e.At,
		Occupancy: e.Occupancy,
	}
	if e.Device != 0 {
		body.Device = wire.FormatAddr(e.Device)
		if user, err := s.reg.UserOf(e.Device); err == nil {
			body.User = string(user)
		}
	}
	return body
}

// eventFrame encodes one fan-out event as a queued push frame: the
// MsgEvent envelope appended straight into a pooled buffer.
func (cs *connSubs) eventFrame(id string, e fanout.Event) *wire.Buf {
	body := cs.srv.eventBody(id, e)
	buf := wire.GetBuf()
	buf.B = wire.AppendEnvelope(buf.B, wire.MsgEvent, 0, &body)
	return buf
}
