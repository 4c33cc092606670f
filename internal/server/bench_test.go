package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bips/internal/building"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/sim"
	"bips/internal/wire"
)

func benchServer(b *testing.B, shards int, opts ...Option) *Server {
	b.Helper()
	bld, err := building.AcademicDepartment()
	if err != nil {
		b.Fatal(err)
	}
	reg := registry.New()
	db, err := locdb.NewSharded(shards, locdb.DefaultHistoryLimit)
	if err != nil {
		b.Fatal(err)
	}
	s := New(reg, db, bld, opts...)
	s.Logf = nil
	if err := reg.Register("alice", "alice", pw, registry.RightLocate, registry.RightTrackable); err != nil {
		b.Fatal(err)
	}
	if err := reg.Register("bob", "bob", pw, registry.RightLocate, registry.RightTrackable); err != nil {
		b.Fatal(err)
	}
	if err := s.Login(wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devA)}); err != nil {
		b.Fatal(err)
	}
	if err := s.Login(wire.Login{User: "bob", Password: pw, Device: wire.FormatAddr(devB)}); err != nil {
		b.Fatal(err)
	}
	if err := s.ReportDelta(wire.Presence{Device: wire.FormatAddr(devB), Room: 6, At: 1, Present: true}); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkDispatchLocate measures the pure request-execution path (no
// sockets) through the append-style hot path ServeConn uses: fast body
// decode, registry authorization, sharded locdb lookup, append-encode
// into a reused buffer.
func BenchmarkDispatchLocate(b *testing.B) {
	s := benchServer(b, locdb.DefaultShards)
	env, err := wire.MarshalBody(wire.MsgLocate, 1, wire.Locate{Querier: "alice", Target: "bob"})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var buf []byte
		for pb.Next() {
			buf = s.DispatchBytes(env, buf[:0])
			if len(buf) == 0 || buf[0] != '{' {
				b.Fatalf("response = %q", buf)
			}
		}
	})
}

// benchServeConnPipelined measures the full per-connection pipeline —
// v2 framing, reader, bounded in-flight handlers, writer — over an
// in-memory connection with a client pipelining at the given depth.
func benchServeConnPipelined(b *testing.B, pipeline int) {
	s := benchServer(b, locdb.DefaultShards)
	cliConn, srvConn := net.Pipe()
	go s.ServeConn(srvConn)
	client := wire.NewClient(wire.NewFrameCodec(cliConn))
	defer client.Close()

	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / pipeline
	for w := 0; w < pipeline; w++ {
		n := per
		if w == 0 {
			n += b.N % pipeline
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			// Pointer bodies keep the client on the append-encode and
			// fast-decode paths (no per-call interface boxing).
			req := wire.Locate{Querier: "alice", Target: "bob"}
			var res wire.LocateResult
			for i := 0; i < n; i++ {
				if err := client.Call(wire.MsgLocate, &req, &res); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// BenchmarkServeConnPipelined is the depth-16 configuration every
// BENCH_*.json record tracks.
func BenchmarkServeConnPipelined(b *testing.B) {
	benchServeConnPipelined(b, 16)
}

// BenchmarkServeConnPipelinedDepth sweeps the pipeline depth: d1 is the
// strictly synchronous client (request, response, request — flush
// coalescing cannot help), deeper pipelines give the group-commit
// client and the flush-on-idle writer room to amortize write(2) calls
// across queued frames.
func BenchmarkServeConnPipelinedDepth(b *testing.B) {
	for _, d := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			benchServeConnPipelined(b, d)
		})
	}
}

// BenchmarkFanoutEventPush measures the full event push path, one event
// at a time: a presence change flows through locdb's subscriber notify,
// the fan-out tree's filters and delivery ring, and the connection
// writer, and leaves as a pooled pre-encoded frame. The client drains
// with a raw frame codec and one reused receive buffer so the number
// reflects the server side. What the mutating goroutine alone pays is
// BenchmarkFanoutWritePath.
func BenchmarkFanoutEventPush(b *testing.B) {
	s := benchServer(b, locdb.DefaultShards)
	cliConn, srvConn := net.Pipe()
	go s.ServeConn(srvConn)
	codec := wire.NewFrameCodec(cliConn)
	defer codec.Close()

	sub, err := wire.MarshalBody(wire.MsgSubscribe, 1, wire.Subscribe{
		ID: "track", Querier: "alice",
		Filter: wire.SubFilter{Kind: wire.FilterDevice, Target: "bob"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := codec.Send(sub); err != nil {
		b.Fatal(err)
	}
	var buf []byte
	ack, buf, err := codec.RecvBuf(buf)
	if err != nil || ack.Type != wire.MsgOK {
		b.Fatalf("subscribe ack = %+v, %v", ack, err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate leave/enter so every mutation is exactly one event.
		p := wire.Presence{Device: wire.FormatAddr(devB), Room: 6, At: 2 + sim.Tick(i), Present: i%2 == 1}
		if err := s.ReportDelta(p); err != nil {
			b.Fatal(err)
		}
		var env wire.Envelope
		env, buf, err = codec.RecvBuf(buf)
		if err != nil {
			b.Fatal(err)
		}
		if env.Type != wire.MsgEvent {
			b.Fatalf("push type = %v", env.Type)
		}
	}
}

// BenchmarkFanoutWritePath measures what the MUTATING goroutine pays
// per event when a wire subscriber is attached: matching plus a ring
// enqueue, with the subscriber's encode-and-enqueue on the delivery
// goroutine. Events are applied in bursts smaller than the buffers (no
// drops, no ring saturation) and the inter-burst drain runs off the
// timer, so the figure isolates the write path.
func BenchmarkFanoutWritePath(b *testing.B) {
	const burst = 512
	// The buffer holds a full burst times the per-event fan-out, so the
	// figure measures cost, not drops.
	s := benchServer(b, locdb.DefaultShards, WithEventBuffer(8*burst))
	cliConn, srvConn := net.Pipe()
	go s.ServeConn(srvConn)
	codec := wire.NewFrameCodec(cliConn)
	defer codec.Close()

	// Four matching subscriptions — a device watcher, a room watcher and
	// two catch-alls — so each event fans out the way a watched corridor
	// does.
	filters := []wire.SubFilter{
		{Kind: wire.FilterDevice, Target: "bob"},
		{Kind: wire.FilterRoom, Room: 6},
		{Kind: wire.FilterAll},
		{Kind: wire.FilterAll},
	}
	for i, f := range filters {
		sub, err := wire.MarshalBody(wire.MsgSubscribe, uint64(1+i), wire.Subscribe{
			ID: fmt.Sprintf("s%d", i), Querier: "alice", Filter: f,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := codec.Send(sub); err != nil {
			b.Fatal(err)
		}
		var ackBuf []byte
		ack, _, err := codec.RecvBuf(ackBuf)
		if err != nil || ack.Type != wire.MsgOK {
			b.Fatalf("subscribe ack = %+v, %v", ack, err)
		}
	}
	perEvent := int64(len(filters))

	// The drainer keeps the connection read, off the timer's critical
	// path, and counts deliveries so each burst can be drained to
	// completion before the next starts.
	var received atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		var buf []byte
		for {
			env, nbuf, err := codec.RecvBuf(buf)
			if err != nil {
				return
			}
			buf = nbuf
			if env.Type == wire.MsgEvent {
				received.Add(1)
			}
		}
	}()

	tick := sim.Tick(1)
	sent := int64(0)
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := burst
		if rem := b.N - n; rem < k {
			k = rem
		}
		for i := 0; i < k; i++ {
			tick++
			// Alternate leave/enter (the fixture seeds bob present in
			// room 6, so absence first): one event per mutation.
			p := wire.Presence{Device: wire.FormatAddr(devB), Room: 6, At: tick, Present: tick%2 == 1}
			if err := s.ReportDelta(p); err != nil {
				b.Fatal(err)
			}
		}
		n += k
		sent += int64(k)
		b.StopTimer()
		for received.Load() < sent*perEvent {
			time.Sleep(50 * time.Microsecond)
		}
		b.StartTimer()
	}
	b.StopTimer()
	codec.Close()
	<-drained
}

// BenchmarkEventBurstFlush measures the connection writer under burst
// fan-out: one ApplyBatch produces a queue of events that the writer
// stages and flushes together, so the per-event cost amortizes the
// write(2). The writes/event metric shows the coalescing directly — a
// flush-per-event writer would report 1.0.
func BenchmarkEventBurstFlush(b *testing.B) {
	const burst = 64
	s := benchServer(b, locdb.DefaultShards, WithEventBuffer(4*burst))
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
		b.Fatal(err)
	}
	if err := codec.Send(sub); err != nil {
		b.Fatal(err)
	}
	var buf []byte
	ack, buf, err := codec.RecvBuf(buf)
	if err != nil || ack.Type != wire.MsgOK {
		b.Fatalf("subscribe ack = %+v, %v", ack, err)
	}

	muts := make([]locdb.Mutation, burst)
	tick := sim.Tick(1)
	startWrites := counted.writes.Load()
	b.ResetTimer()
	for n := 0; n < b.N; {
		k := burst
		if rem := b.N - n; rem < k {
			k = rem
		}
		for i := 0; i < k; i++ {
			tick++
			// Alternate leave/enter (bob is seeded present): one event
			// per mutation for the device watcher.
			op := locdb.MutAbsence
			if tick%2 == 1 {
				op = locdb.MutPresence
			}
			muts[i] = locdb.Mutation{Op: op, Dev: devB, Piconet: 6, At: tick}
		}
		s.DB().ApplyBatch(muts[:k])
		for i := 0; i < k; i++ {
			var env wire.Envelope
			env, buf, err = codec.RecvBuf(buf)
			if err != nil {
				b.Fatal(err)
			}
			if env.Type != wire.MsgEvent {
				b.Fatalf("push type = %v", env.Type)
			}
		}
		n += k
	}
	b.StopTimer()
	b.ReportMetric(float64(counted.writes.Load()-startWrites)/float64(b.N), "writes/event")
}
