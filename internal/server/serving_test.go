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

// TestUnknownProtocolByte: the first frame's header decides the
// protocol. A stream that opens with anything but the frame magic and
// version — a newline-JSON line of the removed v1 framing, an HTTP
// request, megabytes that never form a header — is answered with one
// framed bad-request at correlation id 0, then EOF.
func TestUnknownProtocolByte(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
	}{
		{"v1 line", []byte(`{"type":"rooms","seq":1}` + "\n")},
		{"unknown byte", []byte("GET / HTTP/1.1\r\n")},
		{"2 MiB without a header", bytes.Repeat([]byte{'{'}, 2<<20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newServer(t)
			conn := servePipe(t, s)
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			// net.Pipe is synchronous: the write only completes (or fails,
			// once the server hangs up) while the server reads.
			go conn.Write(tc.raw)

			codec := wire.NewFrameCodec(conn)
			env, err := codec.Recv()
			if err != nil {
				t.Fatalf("expected an error response, got transport error %v", err)
			}
			if env.Type != wire.MsgError || env.Seq != 0 {
				t.Fatalf("response = %s seq %d, want %s seq 0", env.Type, env.Seq, wire.MsgError)
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

// TestRemovedTypesKeepConnection: presence and batch are no longer part
// of the protocol, so they are unknown request types — the client's
// error, answered bad-request — and the connection stays open: it then
// answers locate, and the refused presence moved nobody.
func TestRemovedTypesKeepConnection(t *testing.T) {
	s := newServer(t)
	for user, dev := range map[string]baseband.BDAddr{"alice": devA, "bob": devB} {
		if err := s.Login(wire.Login{User: user, Password: pw, Device: wire.FormatAddr(dev)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ReportDelta(wire.Presence{Device: wire.FormatAddr(devB), Room: 6, At: 9, Present: true}); err != nil {
		t.Fatal(err)
	}
	conn := servePipe(t, s)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	client := wire.NewClient(wire.NewFrameCodec(conn))

	removed := []struct {
		t    wire.MsgType
		body any
	}{
		{"presence", wire.Presence{Device: wire.FormatAddr(devB), Room: 3, At: 20, Present: true}},
		{"batch", map[string][]wire.Envelope{"requests": {{Type: wire.MsgRooms, Seq: 1}}}},
	}
	for _, r := range removed {
		err := client.Call(r.t, r.body, nil)
		var werr *wire.Error
		if !errors.As(err, &werr) || werr.Code != wire.CodeBadRequest {
			t.Errorf("%s = %v, want a %s error", r.t, err, wire.CodeBadRequest)
		}
	}
	var loc wire.LocateResult
	if err := client.Call(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}, &loc); err != nil {
		t.Fatalf("locate after the removed types: %v", err)
	}
	if loc.Room != 6 {
		t.Errorf("locate room = %d, want 6", loc.Room)
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
	if err := server.StationReport(client, wire.Presence{
		Device: wire.FormatAddr(devB), Room: 6, At: 9, Present: true,
	}); err != nil {
		t.Fatal(err)
	}
	var res wire.StatsResult
	if err := client.Call(wire.MsgStats, wire.StatsQuery{}, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Counters["server.requests.login"]; got != 1 {
		t.Errorf("login counter = %d, want 1", got)
	}
	if got := res.Counters["server.requests.presence.batch"]; got != 1 {
		t.Errorf("presence.batch counter = %d, want 1", got)
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
			client := wire.NewClient(wire.NewFrameCodec(conn))
			defer client.Close()
			user := string(rune('a' + i))
			dev := baseband.BDAddr(0xC00 + uint64(i))
			if err := client.Call(wire.MsgLogin, wire.Login{User: user, Password: pw, Device: wire.FormatAddr(dev)}, nil); err != nil {
				errc <- err
				return
			}
			for step := 0; step < 50; step++ {
				room := 1 + (i+step)%10
				if err := server.StationReport(client, wire.Presence{
					Device: wire.FormatAddr(dev), Room: graph.NodeID(room), At: 1, Present: true,
				}); err != nil {
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
