package server_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/graph"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/server"
	"bips/internal/wire"
)

const pw = "pw"

var (
	devA = baseband.BDAddr(0xB1)
	devB = baseband.BDAddr(0xB2)
)

func newServer(t *testing.T, opts ...server.Option) *server.Server {
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
	s := server.New(reg, locdb.New(), bld, opts...)
	s.Logf = t.Logf
	return s
}

// servePipe hands one end of an in-memory connection to the server and
// returns the client end.
func servePipe(t *testing.T, s *server.Server) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(b)
	}()
	t.Cleanup(func() {
		a.Close()
		b.Close()
		<-done
	})
	return a
}

// TestMalformedV1GetsErrorResponse: a line that is not JSON must be
// answered with MsgError (code bad-request) before the connection closes —
// not silently dropped.
func TestMalformedV1GetsErrorResponse(t *testing.T) {
	s := newServer(t)
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write([]byte("{this is not json}\n")); err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec(conn)
	env, err := codec.Recv()
	if err != nil {
		t.Fatalf("expected an error response, got transport error %v", err)
	}
	if env.Type != wire.MsgError || env.Seq != 0 {
		t.Fatalf("response = %+v, want MsgError seq 0", env)
	}
	var werr wire.Error
	if err := wire.UnmarshalBody(env, &werr); err != nil {
		t.Fatal(err)
	}
	if werr.Code != wire.CodeBadRequest {
		t.Errorf("code = %q, want %q", werr.Code, wire.CodeBadRequest)
	}
	// The server closes its end after answering.
	if _, err := codec.Recv(); err == nil {
		t.Error("connection still open after malformed message")
	}
}

// TestMalformedV2GetsErrorResponse: a v2 frame with a hostile length
// prefix is rejected with MsgError over the v2 framing, then closed.
func TestMalformedV2GetsErrorResponse(t *testing.T) {
	s := newServer(t)
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	var hdr [wire.FrameHeaderLen]byte
	hdr[0] = wire.FrameMagic
	hdr[1] = wire.FrameVersion
	binary.BigEndian.PutUint32(hdr[2:], wire.MaxFramePayload+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	codec := wire.NewFrameCodec(conn)
	env, err := codec.Recv()
	if err != nil {
		t.Fatalf("expected an error response, got transport error %v", err)
	}
	if env.Type != wire.MsgError {
		t.Fatalf("response = %+v, want MsgError", env)
	}
	var werr wire.Error
	if err := wire.UnmarshalBody(env, &werr); err != nil {
		t.Fatal(err)
	}
	if werr.Code != wire.CodeBadRequest {
		t.Errorf("code = %q, want %q", werr.Code, wire.CodeBadRequest)
	}
	if _, err := codec.Recv(); err == nil {
		t.Error("connection still open after malformed frame")
	}
}

// TestUnknownProtocolByte: a first byte that is neither '{' (v1) nor the
// v2 magic gets a best-effort v1 error and a closed connection.
func TestUnknownProtocolByte(t *testing.T) {
	s := newServer(t)
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n")); err != nil {
		t.Fatal(err)
	}
	codec := wire.NewCodec(conn)
	env, err := codec.Recv()
	if err != nil {
		t.Fatalf("expected an error response, got transport error %v", err)
	}
	if env.Type != wire.MsgError {
		t.Fatalf("response = %+v, want MsgError", env)
	}
}

// TestV1LineBounded: a v1 line is bounded at wire.MaxFramePayload like a
// v2 payload. A peer streaming bytes without ever sending a newline is
// answered bad-request (seq 0) and disconnected instead of growing the
// server's receive buffer forever; a line of exactly the limit is still
// a request.
func TestV1LineBounded(t *testing.T) {
	// line returns a v1 rooms request padded to n bytes before the newline.
	line := func(n int) []byte {
		head, tail := `{"type":"rooms","seq":7,"body":{"pad":"`, `"}}`
		b := append([]byte(head), bytes.Repeat([]byte{'x'}, n-len(head)-len(tail))...)
		return append(append(b, tail...), '\n')
	}
	cases := []struct {
		name     string
		raw      []byte
		wantType wire.MsgType
		wantSeq  uint64
	}{
		{"2 MiB without newline", bytes.Repeat([]byte{'{'}, 2<<20), wire.MsgError, 0},
		{"one byte over", line(wire.MaxFramePayload + 1), wire.MsgError, 0},
		{"exactly at the limit", line(wire.MaxFramePayload), wire.MsgRoomsResult, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			conn := servePipe(t, s)
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			// net.Pipe is synchronous: the write only completes (or fails,
			// once the server hangs up) while the server reads.
			go conn.Write(tc.raw)

			codec := wire.NewCodec(conn)
			env, err := codec.Recv()
			if err != nil {
				t.Fatalf("expected a response, got transport error %v", err)
			}
			if env.Type != tc.wantType || env.Seq != tc.wantSeq {
				t.Fatalf("response = %s seq %d, want %s seq %d", env.Type, env.Seq, tc.wantType, tc.wantSeq)
			}
			if tc.wantType != wire.MsgError {
				return
			}
			var werr wire.Error
			if err := wire.UnmarshalBody(env, &werr); err != nil {
				t.Fatal(err)
			}
			if werr.Code != wire.CodeBadRequest {
				t.Errorf("code = %q, want %q", werr.Code, wire.CodeBadRequest)
			}
			if _, err := codec.Recv(); !errors.Is(err, io.EOF) {
				t.Errorf("after the error reply: %v, want EOF", err)
			}
		})
	}
}

// TestV1V2FallbackNegotiation: one server, one listener, both protocol
// versions on concurrent connections. This is the compatibility contract:
// deploying a v2 server must not strand a single v1 client.
func TestV1V2FallbackNegotiation(t *testing.T) {
	s := newServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	dial := func(v2 bool) *wire.Client {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if v2 {
			return wire.NewClient(wire.NewFrameCodec(conn))
		}
		return wire.NewClient(wire.NewCodec(conn))
	}
	v1 := dial(false)
	v2 := dial(true)

	if err := v1.Call(wire.MsgLogin, wire.Login{
		User: "alice", Password: pw, Device: wire.FormatAddr(devA),
	}, nil); err != nil {
		t.Fatalf("v1 login: %v", err)
	}
	if err := v2.Call(wire.MsgLogin, wire.Login{
		User: "bob", Password: pw, Device: wire.FormatAddr(devB),
	}, nil); err != nil {
		t.Fatalf("v2 login: %v", err)
	}
	// Cross-check: presence reported over v2, located over v1.
	if err := v2.Call(wire.MsgPresence, wire.Presence{
		Device: wire.FormatAddr(devB), Room: 6, At: 9, Present: true,
	}, nil); err != nil {
		t.Fatalf("v2 presence: %v", err)
	}
	var loc wire.LocateResult
	if err := v1.Call(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}, &loc); err != nil {
		t.Fatalf("v1 locate: %v", err)
	}
	if loc.Room != 6 {
		t.Errorf("locate room = %d, want 6", loc.Room)
	}
	v1.Close()
	v2.Close()
	if err := s.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned: %v", err)
	}
}

// TestPipelinedOutOfOrderCompletion: a stalled early request must not
// block a later request on the same connection, and both responses must
// carry their own correlation ids. The raw codec (not Client) is used so
// the on-wire response order is observable.
func TestPipelinedOutOfOrderCompletion(t *testing.T) {
	s := newServer(t)
	release := make(chan struct{})
	s.SetBeforeHandle(func(mt wire.MsgType) {
		if mt == wire.MsgRooms {
			<-release
		}
	})
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	codec := wire.NewFrameCodec(conn)

	slow, err := wire.MarshalBody(wire.MsgRooms, 1, wire.RoomsQuery{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := wire.MarshalBody(wire.MsgHello, 2, wire.Hello{Station: "x", Room: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Send(slow); err != nil {
		t.Fatal(err)
	}
	if err := codec.Send(fast); err != nil {
		t.Fatal(err)
	}

	// The fast request completes first even though it was sent second.
	first, err := codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 2 || first.Type != wire.MsgOK {
		t.Fatalf("first response = type %q seq %d, want ok seq 2", first.Type, first.Seq)
	}
	close(release)
	second, err := codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if second.Seq != 1 || second.Type != wire.MsgRoomsResult {
		t.Fatalf("second response = type %q seq %d, want rooms.result seq 1", second.Type, second.Seq)
	}
}

// TestMaxInFlightBoundsPipeline: with MaxInFlight(1) the pipeline is
// strictly serial, so a stalled request delays the next one — proving the
// bound is enforced.
func TestMaxInFlightBoundsPipeline(t *testing.T) {
	s := newServer(t, server.WithMaxInFlight(1))
	if got := s.MaxInFlight(); got != 1 {
		t.Fatalf("MaxInFlight = %d", got)
	}
	entered := make(chan wire.MsgType, 4)
	release := make(chan struct{})
	s.SetBeforeHandle(func(mt wire.MsgType) {
		entered <- mt
		if mt == wire.MsgRooms {
			<-release
		}
	})
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	codec := wire.NewFrameCodec(conn)

	slow, _ := wire.MarshalBody(wire.MsgRooms, 1, wire.RoomsQuery{})
	fast, _ := wire.MarshalBody(wire.MsgHello, 2, wire.Hello{Station: "x", Room: 1})
	if err := codec.Send(slow); err != nil {
		t.Fatal(err)
	}
	if err := codec.Send(fast); err != nil {
		t.Fatal(err)
	}
	if mt := <-entered; mt != wire.MsgRooms {
		t.Fatalf("first handled type = %q", mt)
	}
	select {
	case mt := <-entered:
		t.Fatalf("second request (%q) entered despite in-flight limit 1", mt)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if mt := <-entered; mt != wire.MsgHello {
		t.Fatalf("second handled type = %q", mt)
	}
	// Serial pipeline: responses come back in order.
	for wantSeq := uint64(1); wantSeq <= 2; wantSeq++ {
		env, err := codec.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if env.Seq != wantSeq {
			t.Fatalf("response seq = %d, want %d", env.Seq, wantSeq)
		}
	}
}

// TestBatchRoundTrip: one MsgBatch envelope executes its requests in
// order, inner errors do not abort the batch, and nesting is rejected.
func TestBatchRoundTrip(t *testing.T) {
	s := newServer(t)
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	client := wire.NewClient(wire.NewFrameCodec(conn))

	var b wire.Batch
	if err := b.Add(wire.MsgLogin, wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devA)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(wire.MsgLogin, wire.Login{User: "bob", Password: pw, Device: wire.FormatAddr(devB)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(wire.MsgPresence, wire.Presence{Device: wire.FormatAddr(devB), Room: 6, At: 50, Present: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}); err != nil {
		t.Fatal(err)
	}
	// This one fails (ghost is unknown) but must not poison the batch.
	if err := b.Add(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "ghost"}); err != nil {
		t.Fatal(err)
	}

	var res wire.BatchResult
	if err := client.Call(wire.MsgBatch, b, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Responses) != 5 {
		t.Fatalf("got %d responses, want 5", len(res.Responses))
	}
	for i := 0; i < 3; i++ {
		if err := res.Decode(i, nil); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	var loc wire.LocateResult
	if err := res.Decode(3, &loc); err != nil {
		t.Fatal(err)
	}
	if loc.Room != 6 {
		t.Errorf("batched locate room = %d, want 6", loc.Room)
	}
	var werr *wire.Error
	if err := res.Decode(4, nil); !errors.As(err, &werr) || werr.Code != wire.CodeNotFound {
		t.Errorf("inner error = %v, want not-found", err)
	}

	// Nested batches are rejected with an inner error.
	var nested wire.Batch
	if err := nested.Add(wire.MsgBatch, wire.Batch{}); err != nil {
		t.Fatal(err)
	}
	var nres wire.BatchResult
	if err := client.Call(wire.MsgBatch, nested, &nres); err != nil {
		t.Fatal(err)
	}
	if err := nres.Decode(0, nil); !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
		t.Errorf("nested batch error = %v, want bad-request", err)
	}
}

// TestStatsQuery: MsgStats reports the request counters, the dispatch
// histogram and the location-database counters.
func TestStatsQuery(t *testing.T) {
	s := newServer(t)
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	client := wire.NewClient(wire.NewFrameCodec(conn))

	if err := client.Call(wire.MsgLogin, wire.Login{
		User: "bob", Password: pw, Device: wire.FormatAddr(devB),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Call(wire.MsgPresence, wire.Presence{
		Device: wire.FormatAddr(devB), Room: 6, At: 9, Present: true,
	}, nil); err != nil {
		t.Fatal(err)
	}
	var res wire.StatsResult
	if err := client.Call(wire.MsgStats, wire.StatsQuery{}, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Counters["server.requests.login"]; got != 1 {
		t.Errorf("login counter = %d, want 1", got)
	}
	if got := res.Counters["server.requests.presence"]; got != 1 {
		t.Errorf("presence counter = %d, want 1", got)
	}
	if got := res.Counters["locdb.updates"]; got != 1 {
		t.Errorf("locdb.updates = %d, want 1", got)
	}
	if got := res.Counters["locdb.present"]; got != 1 {
		t.Errorf("locdb.present = %d, want 1", got)
	}
	if got := res.Counters["server.connections"]; got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
	h, ok := res.Histograms["server.dispatch"]
	if !ok || h.Count < 2 {
		t.Errorf("dispatch histogram = %+v (ok=%v)", h, ok)
	}
	if h.P50 <= 0 || h.Max < h.P50 {
		t.Errorf("histogram percentiles inconsistent: %+v", h)
	}
}

// TestV2EOFMidFrame: a connection dropped mid-frame ends the connection
// without a response (it is indistinguishable from a crash, not a
// protocol violation worth answering — but it must not hang the server).
func TestV2EOFMidFrame(t *testing.T) {
	s := newServer(t)
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(b)
	}()
	var hdr [wire.FrameHeaderLen]byte
	hdr[0] = wire.FrameMagic
	hdr[1] = wire.FrameVersion
	binary.BigEndian.PutUint32(hdr[2:], 100)
	a.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := a.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("only half")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after mid-frame EOF")
	}
	b.Close()
}

// TestConcurrentConnectionsShardedDB drives many TCP connections against
// one server to exercise the reader/writer/handler machinery and the
// sharded database together under the race detector.
func TestConcurrentConnectionsShardedDB(t *testing.T) {
	bld, err := building.AcademicDepartment()
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	db, err := locdb.NewSharded(8, 16)
	if err != nil {
		t.Fatal(err)
	}
	const users = 8
	for i := 0; i < users; i++ {
		id := registry.UserID(rune('a' + i))
		if err := reg.Register(id, string(id), pw, registry.RightLocate, registry.RightTrackable); err != nil {
			t.Fatal(err)
		}
	}
	s := server.New(reg, db, bld)
	s.Logf = t.Logf
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	errc := make(chan error, users)
	for i := 0; i < users; i++ {
		i := i
		go func() {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			var client *wire.Client
			if i%2 == 0 {
				client = wire.NewClient(wire.NewFrameCodec(conn))
			} else {
				client = wire.NewClient(wire.NewCodec(conn))
			}
			defer client.Close()
			user := string(rune('a' + i))
			dev := baseband.BDAddr(0xC00 + uint64(i))
			if err := client.Call(wire.MsgLogin, wire.Login{User: user, Password: pw, Device: wire.FormatAddr(dev)}, nil); err != nil {
				errc <- err
				return
			}
			for step := 0; step < 50; step++ {
				room := 1 + (i+step)%10
				if err := client.Call(wire.MsgPresence, wire.Presence{
					Device: wire.FormatAddr(dev), Room: graph.NodeID(room), At: 1, Present: true,
				}, nil); err != nil {
					errc <- err
					return
				}
				var loc wire.LocateResult
				if err := client.Call(wire.MsgLocate, wire.Locate{Querier: user, Target: user}, &loc); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for i := 0; i < users; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	<-serveDone
}
