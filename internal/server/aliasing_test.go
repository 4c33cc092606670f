package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bips/internal/graph"
	"bips/internal/sim"
	"bips/internal/wire"
)

// TestPooledBufferAliasing hammers the pooled frame buffers from every
// direction at once: several pipelined connections issue concurrent
// Locate/LocateAt/Stats requests (the inline reader path and the
// handler-goroutine path) while a mover churns presence so pre-encoded
// event frames race down the same writers. Run under -race this is the
// aliasing detector for the buffer ownership rules — a buffer released
// while the writer still reads it, or reused while a push handler still
// holds the body, shows up as a data race. The semantic assertions
// catch the non-racing corruption mode: a response whose bytes were
// mutated after handoff no longer decodes to a plausible fix.
func TestPooledBufferAliasing(t *testing.T) {
	// Big event buffer and drop limit: the mover outruns net.Pipe
	// consumers by design, and a slow-consumer kill mid-test would turn
	// the hammering into connection errors instead of coverage.
	s := newSubServer(t, WithEventBuffer(4096), WithDropLimit(1<<30))
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	if err := s.ReportDelta(wire.Presence{
		Device: wire.FormatAddr(devB), Room: 6, At: 1, Present: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Alice never moves, so LocateAt has a stable answer no matter how
	// far the mover's churn evicts bob's history.
	if err := s.ReportDelta(wire.Presence{
		Device: wire.FormatAddr(devA), Room: 1, At: 1, Present: true,
	}); err != nil {
		t.Fatal(err)
	}

	const (
		conns   = 6
		workers = 4
		perWork = 150
		moves   = 800
	)

	var events atomic.Int64
	clients := make([]*wire.Client, 0, conns)
	for c := 0; c < conns; c++ {
		cliConn, srvConn := net.Pipe()
		go s.ServeConn(srvConn)
		client := wire.NewClient(wire.NewFrameCodec(cliConn))
		defer client.Close()

		// Push handler: env.Body aliases a pooled client receive buffer
		// that is reused the moment this returns, so everything we keep
		// must be decoded out, not retained. Validate the decode is a
		// plausible event, not garbage from a recycled buffer.
		client.SetPushHandler(func(env wire.Envelope) {
			var e wire.Event
			if err := wire.UnmarshalBody(env, &e); err != nil {
				t.Errorf("undecodable event push: %v", err)
				return
			}
			if e.Room != 5 && e.Room != 6 {
				t.Errorf("event in impossible room: %+v", e)
			}
			if e.Device != wire.FormatAddr(devB) {
				t.Errorf("event for impossible device: %+v", e)
			}
			events.Add(1)
		})
		if err := client.Call(wire.MsgSubscribe, &wire.Subscribe{
			ID: "track", Querier: "alice",
			Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "bob"},
		}, nil); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, client)
	}

	// All connections are subscribed: start the churn. Bob bounces
	// between two adjacent rooms, so every event and every locate
	// answer must land in {5, 6}.
	moverDone := make(chan struct{})
	go func() {
		defer close(moverDone)
		for i := 0; i < moves; i++ {
			_ = s.ReportDelta(wire.Presence{
				Device: wire.FormatAddr(devB), Room: graph.NodeID(5 + i%2), At: sim.Tick(2 + i), Present: true,
			})
		}
	}()

	var wg sync.WaitGroup
	for _, client := range clients {
		client := client
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				req := wire.Locate{Querier: "alice", Target: "bob"}
				reqAt := wire.LocateAt{Querier: "alice", Target: "alice", At: 1}
				for i := 0; i < perWork; i++ {
					switch i % 3 {
					case 0:
						var res wire.LocateResult
						if err := client.Call(wire.MsgLocate, &req, &res); err != nil {
							t.Errorf("locate: %v", err)
							return
						}
						if res.Room != 5 && res.Room != 6 {
							t.Errorf("locate answered impossible room: %+v", res)
							return
						}
						if res.RoomName == "" || res.At < 1 {
							t.Errorf("locate result mangled: %+v", res)
							return
						}
					case 1:
						var res wire.LocateResult
						if err := client.Call(wire.MsgLocateAt, &reqAt, &res); err != nil {
							t.Errorf("locateAt: %v", err)
							return
						}
						if res.Room != 1 || res.At != 1 {
							t.Errorf("locateAt(1) = %+v, want room 1 at 1", res)
							return
						}
					case 2:
						var res wire.StatsResult
						if err := client.Call(wire.MsgStats, wire.StatsQuery{}, &res); err != nil {
							t.Errorf("stats: %v", err)
							return
						}
						if len(res.Counters) == 0 {
							t.Errorf("stats mangled: %+v", res)
							return
						}
					}
				}
			}(w)
		}
	}

	wg.Wait()
	<-moverDone
	// Event delivery is asynchronous; give in-flight pushes a moment.
	deadline := time.Now().Add(5 * time.Second)
	for events.Load() == 0 {
		if time.Now().After(deadline) {
			t.Error("no events observed: the push path was never exercised")
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
}
