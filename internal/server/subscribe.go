// Wire-level subscriptions: per-connection subscription state, access
// checks, and the slow-consumer policy.
//
// Every connection owns a connSubs: the map from client-chosen
// subscription ids to fan-out registrations, plus one bounded event
// queue that the connection writer drains next to its response queue —
// one goroutine writes the socket, whatever the frame. Fan-out
// callbacks run on the tree's delivery goroutine and must never block,
// so they enqueue non-blocking and count a drop when the queue is full;
// ingest and other subscribers never wait on a slow consumer. A
// connection that keeps dropping past the drop limit is killed: a
// best-effort slow-consumer MsgError, then the socket is severed (with a
// timer backstop in case even the error cannot be written).
package server

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

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
// from fan-out callbacks on the tree's delivery goroutine.
type connSubs struct {
	srv *Server
	// raw severs the underlying connection without taking transport
	// locks — FrameCodec.Close takes the write mutex, which a send
	// stalled on a full socket holds, so the slow-consumer backstop
	// must bypass it.
	raw io.Closer

	// events holds pushed MsgEvent frames, each encoded once into a
	// pooled buffer at publish time; the queue owns a frame until the
	// writer (or a drop path) releases it.
	events chan *wire.Buf
	kill   chan struct{}

	mu     sync.Mutex
	subs   map[string]*fanout.Subscription
	drops  int64
	killed bool
}

func newConnSubs(s *Server, raw io.Closer) *connSubs {
	return &connSubs{
		srv:    s,
		raw:    raw,
		events: make(chan *wire.Buf, s.eventBuffer),
		kill:   make(chan struct{}),
		subs:   make(map[string]*fanout.Subscription),
	}
}

// add registers one subscription: reserve the id, register on the
// fan-out tree outside cs.mu (the tree takes its own index locks), then
// bind the registration to the id.
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

// push enqueues one encoded event for the connection writer without
// ever blocking: it runs inside a fan-out callback on the tree's
// delivery goroutine, which every subscriber shares. A full queue drops
// the event (accounted, never silent — and the pooled payload is
// released); crossing the drop limit declares the connection a slow
// consumer, once: the writer is told to answer with a slow-consumer
// MsgError and sever the socket, and a timer backstop severs it
// regardless in case the writer is wedged in a write the peer never
// drains.
func (cs *connSubs) push(m *wire.Buf) {
	cs.mu.Lock()
	if cs.killed {
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
		cs.killed = cs.drops >= int64(cs.srv.dropLimit)
		kill := cs.killed
		cs.mu.Unlock()
		m.Release()
		cs.srv.evDropped.Inc()
		if kill {
			cs.srv.slowKills.Inc()
			close(cs.kill)
			if raw := cs.raw; raw != nil {
				time.AfterFunc(cs.srv.killGrace, func() { _ = raw.Close() })
			}
		}
	}
}

// writeLoop is the connection writer, the one goroutine that writes the
// socket. It takes frames from the response queue and the event queue
// as they come, staging each into the write buffer, and flushes once
// the queue it just took a frame from is idle (or the staged bytes pass
// the flush-bytes threshold) — a pipelined burst of responses or a
// whole PublishBatch fan-out leaves in one write(2) instead of one per
// frame, and a response never waits for an event stream to pause. On a
// slow-consumer kill it answers with the MsgError behind whatever is
// already staged and severs the socket. After a send failure or a kill
// it keeps draining and releasing both queues, so handlers and push
// never block on a dead connection, and returns once teardown has
// closed both.
func (cs *connSubs) writeLoop(fw *flushWriter, out <-chan *wire.Buf) {
	var events <-chan *wire.Buf = cs.events
	kill := cs.kill
	for out != nil || events != nil {
		var m *wire.Buf
		ok := false
		from := &out
		select {
		case m, ok = <-out:
		case m, ok = <-events:
			from = &events
		case <-kill:
			kill = nil
			cs.condemn(fw)
			continue
		}
		if !ok {
			*from = nil // closed by teardown
			continue
		}
		fw.write(m)
		if len(*from) == 0 {
			fw.flush()
		}
	}
}

// condemn answers the slow-consumer kill on the writer: a best-effort
// MsgError behind everything already staged, a flush, the severed
// socket, and no further writes.
func (cs *connSubs) condemn(fw *flushWriter) {
	fw.write(errorFrame(0, errSlowConsumer))
	fw.flush()
	if cs.raw != nil {
		_ = cs.raw.Close()
	}
	fw.sendFailed = true
}

// shutdown runs on connection teardown, strictly after every handler
// goroutine finished: cancel the fan-out registrations first (Cancel
// returning means no callback — and so no push — is running or will
// run), then close the event queue so the writer can drain out.
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
	close(cs.events)
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
			if err := s.roomKnown(r); err != nil {
				return fanout.Filter{}, err
			}
		}
		return fanout.Filter{Kind: fanout.KindZone, Device: dev, Zone: req.Filter.Rooms}, nil
	default:
		// all / room / occupancy: no target user to authorize against,
		// so the querier itself must be online and allowed to locate.
		if err := s.authorizeRoomQuery(querier); err != nil {
			return fanout.Filter{}, err
		}
		switch req.Filter.Kind {
		case wire.FilterAll:
			return fanout.Filter{Kind: fanout.KindAll}, nil
		case wire.FilterRoom:
			if err := s.roomKnown(req.Filter.Room); err != nil {
				return fanout.Filter{}, err
			}
			return fanout.Filter{Kind: fanout.KindRoom, Room: req.Filter.Room}, nil
		default: // wire.FilterOccupancy, Validate ruled out the rest
			if err := s.roomKnown(req.Filter.Room); err != nil {
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

// eventFrame encodes one fan-out event for the subscription with the
// given id as a queued push frame: the MsgEvent envelope appended
// straight into a pooled buffer. It runs inside the fan-out callback;
// the registry lookup is the only lock it takes, and the registry never
// calls into the tree.
func (cs *connSubs) eventFrame(id string, e fanout.Event) *wire.Buf {
	body := wire.Event{
		Sub:       id,
		Kind:      string(e.Kind),
		Room:      e.Room,
		RoomName:  cs.srv.roomName(e.Room),
		At:        e.At,
		Occupancy: e.Occupancy,
	}
	if e.Device != 0 {
		body.Device = wire.FormatAddr(e.Device)
		if user, err := cs.srv.reg.UserOf(e.Device); err == nil {
			body.User = string(user)
		}
	}
	buf := wire.GetBuf()
	buf.B = wire.AppendEnvelope(buf.B, wire.MsgEvent, 0, &body)
	return buf
}
