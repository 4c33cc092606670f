// Flush-coalescing tests: the connection writer must batch queued
// response and event frames into few underlying writes, the wire.*
// counters must surface the amortization through MsgStats, and none of
// it may change the bytes on the stream (the differential test for that
// lives in internal/wire; here the concern is the connection writer).
package server

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bips/internal/building"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/sim"
	"bips/internal/wire"
)

// newFlushServer is newServer with options and a seeded fixture: alice
// and bob logged in, bob present in room 6 (what Locate and the device
// watcher need).
func newFlushServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	for _, u := range []string{"alice", "bob"} {
		if err := reg.Register(registry.UserID(u), u, pw,
			registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	s := New(reg, locdb.New(), bld, opts...)
	s.Logf = nil
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	if err := s.ReportDelta(wire.Presence{Device: wire.FormatAddr(devB), Room: 6, At: 1, Present: true}); err != nil {
		t.Fatal(err)
	}
	return s
}

// countingConn counts the Write calls that actually reach the
// underlying connection — with buffered codecs, one per flush.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestWriterCoalescesPipelinedResponses drives a deeply pipelined
// workload and asserts the server answered with fewer write calls than
// responses — the point of the flush-on-idle writer — and that the
// wire.* counters account for every coalesced frame.
func TestWriterCoalescesPipelinedResponses(t *testing.T) {
	s := newFlushServer(t)
	cliConn, srvConn := net.Pipe()
	counted := &countingConn{Conn: srvConn}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		s.ServeConn(counted)
	}()
	client := wire.NewClient(wire.NewFrameCodec(cliConn))

	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := wire.Locate{Querier: "alice", Target: "bob"}
			var res wire.LocateResult
			for i := 0; i < perWorker; i++ {
				if err := client.Call(wire.MsgLocate, &req, &res); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	const total = workers * perWorker
	writes := counted.writes.Load()
	if writes >= total {
		t.Errorf("server made %d writes for %d responses; want coalescing below one write per response", writes, total)
	}

	// The client can observe a response while the server is still inside
	// Flush (pipe writes rendezvous with reads), before the writer
	// settles the counters — wait for teardown before reading stats.
	if err := client.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	<-serveDone
	st := s.StatsResult()
	flushes, frames := st.Counters["wire.flushes"], st.Counters["wire.frames"]
	if frames != total {
		t.Errorf("wire.frames = %d, want %d", frames, total)
	}
	if flushes < 1 || flushes > writes {
		t.Errorf("wire.flushes = %d, want within [1, %d writes]", flushes, writes)
	}
	if st.Counters["wire.flush_bytes"] <= 0 {
		t.Errorf("wire.flush_bytes = %d, want > 0", st.Counters["wire.flush_bytes"])
	}
	if fpf, ok := st.Counters["wire.frames_per_flush"]; !ok {
		t.Error("wire.frames_per_flush missing from MsgStats")
	} else if fpf != frames/flushes {
		t.Errorf("wire.frames_per_flush = %d, want %d", fpf, frames/flushes)
	}
	t.Logf("%d responses in %d writes (%d flushes, frames/flush = %d)",
		total, writes, flushes, frames/flushes)
}

// TestFlushCountersPrinted asserts the satellite contract: everything
// MsgStats carries — including the new wire.* flush counters — reaches
// the terminal through wire.PrintStats (what bips-query -stats
// renders) once it is nonzero.
func TestFlushCountersPrinted(t *testing.T) {
	s := newFlushServer(t)
	cliConn, srvConn := net.Pipe()
	go s.ServeConn(srvConn)
	client := wire.NewClient(wire.NewFrameCodec(cliConn))
	defer client.Close()

	req := wire.Locate{Querier: "alice", Target: "bob"}
	var res wire.LocateResult
	for i := 0; i < 4; i++ {
		if err := client.Call(wire.MsgLocate, &req, &res); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	wire.PrintStats(&sb, s.StatsResult())
	out := sb.String()
	for _, name := range []string{"wire.flushes", "wire.frames", "wire.flush_bytes", "wire.frames_per_flush"} {
		if !strings.Contains(out, name) {
			t.Errorf("PrintStats output missing %q:\n%s", name, out)
		}
	}
}

// TestTinyFlushBytesStaysCorrect clamps the threshold to one byte —
// every staged frame immediately crosses it, so the writer degrades to
// flush-per-frame — and asserts the protocol still works end to end.
func TestTinyFlushBytesStaysCorrect(t *testing.T) {
	s := newFlushServer(t, WithFlushBytes(1))
	cliConn, srvConn := net.Pipe()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		s.ServeConn(srvConn)
	}()
	client := wire.NewClient(wire.NewFrameCodec(cliConn))

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := wire.Locate{Querier: "alice", Target: "bob"}
			var res wire.LocateResult
			for i := 0; i < 25; i++ {
				if err := client.Call(wire.MsgLocate, &req, &res); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := client.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	<-serveDone
	st := s.StatsResult()
	if st.Counters["wire.frames"] != 100 {
		t.Errorf("wire.frames = %d, want 100", st.Counters["wire.frames"])
	}
}

// TestEventBurstCoalesced publishes a burst of presence deltas through
// a subscribed connection and asserts the pusher needed fewer writes
// than events: a batch fan-out leaves in few flushes, not one per
// event.
func TestEventBurstCoalesced(t *testing.T) {
	s := newFlushServer(t, WithEventBuffer(1024))
	cliConn, srvConn := net.Pipe()
	counted := &countingConn{Conn: srvConn}
	go s.ServeConn(counted)
	codec := wire.NewFrameCodec(cliConn)
	defer codec.Close()

	sub, err := wire.MarshalBody(wire.MsgSubscribe, 1, wire.Subscribe{
		ID: "track", Querier: "alice",
		Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "bob"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Send(sub); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	ack, buf, err := codec.RecvBuf(buf)
	if err != nil || ack.Type != wire.MsgOK {
		t.Fatalf("subscribe ack = %+v, %v", ack, err)
	}

	// One ApplyBatch frame of alternating deltas: every mutation is one
	// event for the device watcher.
	const burst = 64
	muts := make([]locdb.Mutation, burst)
	for i := range muts {
		op := locdb.MutAbsence
		if i%2 == 1 {
			op = locdb.MutPresence
		}
		muts[i] = locdb.Mutation{Op: op, Dev: devB, Piconet: 6, At: sim.Tick(2 + i)}
	}
	before := counted.writes.Load()
	s.DB().ApplyBatch(muts)
	for i := 0; i < burst; i++ {
		var env wire.Envelope
		env, buf, err = codec.RecvBuf(buf)
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != wire.MsgEvent {
			t.Fatalf("push %d type = %v", i, env.Type)
		}
	}
	writes := counted.writes.Load() - before
	if writes >= burst {
		t.Errorf("burst of %d events took %d writes; want coalescing below one write per event", burst, writes)
	}
	t.Logf("%d events in %d writes", burst, writes)
}
