package server

import (
	"errors"
	"net"
	"testing"

	"bips/internal/baseband"
	"bips/internal/building"
	"bips/internal/locdb"
	"bips/internal/registry"
	"bips/internal/wire"
)

const pw = "pw"

var (
	devA = baseband.BDAddr(0xB1)
	devB = baseband.BDAddr(0xB2)
)

func newServer(t *testing.T) *Server {
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
	s := New(reg, locdb.New(), bld)
	s.Logf = t.Logf
	return s
}

func login(t *testing.T, s *Server, user string, dev baseband.BDAddr) {
	t.Helper()
	if err := s.Login(wire.Login{User: user, Password: pw, Device: wire.FormatAddr(dev)}); err != nil {
		t.Fatal(err)
	}
}

func TestLoginLogout(t *testing.T) {
	s := newServer(t)
	login(t, s, "alice", devA)
	if err := s.Login(wire.Login{User: "alice", Password: pw, Device: wire.FormatAddr(devB)}); err == nil {
		t.Error("double login accepted")
	}
	if err := s.Logout(wire.Logout{User: "alice"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Logout(wire.Logout{User: "alice"}); err == nil {
		t.Error("double logout accepted")
	}
}

func TestLoginBadDevice(t *testing.T) {
	s := newServer(t)
	if err := s.Login(wire.Login{User: "alice", Password: pw, Device: "junk"}); err == nil {
		t.Error("junk device accepted")
	}
}

func TestPresenceAndLocate(t *testing.T) {
	s := newServer(t)
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)

	if err := s.ReportDelta(wire.Presence{
		Device: wire.FormatAddr(devB), Room: 6, At: 100, Present: true,
	}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Locate(wire.Locate{Querier: "alice", Target: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Room != 6 || res.RoomName != "Library" || res.At != 100 {
		t.Errorf("locate = %+v", res)
	}
}

func TestPresenceUnknownRoomRejected(t *testing.T) {
	s := newServer(t)
	err := s.ReportDelta(wire.Presence{Device: wire.FormatAddr(devA), Room: 99, At: 1, Present: true})
	if !errors.Is(err, building.ErrUnknownRoom) {
		t.Errorf("error = %v", err)
	}
}

func TestPresenceAnonymousDeviceIgnored(t *testing.T) {
	s := newServer(t)
	// devA is not logged in: the delta is dropped without error.
	if err := s.ReportDelta(wire.Presence{
		Device: wire.FormatAddr(devA), Room: 3, At: 1, Present: true,
	}); err != nil {
		t.Fatal(err)
	}
	if s.DB().Stats().Present != 0 {
		t.Error("anonymous device tracked")
	}
}

func TestLogoutDropsLocation(t *testing.T) {
	s := newServer(t)
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	if err := s.ReportDelta(wire.Presence{
		Device: wire.FormatAddr(devB), Room: 6, At: 1, Present: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Logout(wire.Logout{User: "bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Locate(wire.Locate{Querier: "alice", Target: "bob"}); err == nil {
		t.Error("located a logged-out user")
	}
}

func TestPathQuery(t *testing.T) {
	s := newServer(t)
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	for _, p := range []wire.Presence{
		{Device: wire.FormatAddr(devA), Room: 1, At: 10, Present: true},
		{Device: wire.FormatAddr(devB), Room: 10, At: 20, Present: true},
	} {
		if err := s.ReportDelta(p); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Path(wire.PathQuery{Querier: "alice", Target: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMeters != 60 {
		t.Errorf("total = %v, want 60", res.TotalMeters)
	}
	if res.Rooms[0] != 1 || res.Rooms[len(res.Rooms)-1] != 10 {
		t.Errorf("rooms = %v", res.Rooms)
	}
	if res.Names[0] != "Lobby" || res.Names[len(res.Names)-1] != "Cafeteria" {
		t.Errorf("names = %v", res.Names)
	}
}

func TestPathRequiresBothPositions(t *testing.T) {
	s := newServer(t)
	login(t, s, "alice", devA)
	login(t, s, "bob", devB)
	// Neither located yet.
	if _, err := s.Path(wire.PathQuery{Querier: "alice", Target: "bob"}); err == nil {
		t.Error("path without querier position succeeded")
	}
	if err := s.ReportDelta(wire.Presence{
		Device: wire.FormatAddr(devA), Room: 1, At: 10, Present: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Path(wire.PathQuery{Querier: "alice", Target: "bob"}); err == nil {
		t.Error("path without target position succeeded")
	}
}

// dialPipe wires a wire.Client to a served in-memory connection.
func dialPipe(t *testing.T, s *Server) *wire.Client {
	t.Helper()
	a, b := net.Pipe()
	go s.ServeConn(b)
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return wire.NewClient(wire.NewFrameCodec(a))
}

func TestWireEndToEnd(t *testing.T) {
	s := newServer(t)
	client := dialPipe(t, s)

	if err := client.Call(wire.MsgLogin, wire.Login{
		User: "alice", Password: pw, Device: wire.FormatAddr(devA),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Call(wire.MsgLogin, wire.Login{
		User: "bob", Password: pw, Device: wire.FormatAddr(devB),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Call(wire.MsgHello, wire.Hello{Station: "x", Room: 1}, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range []wire.Presence{
		{Device: wire.FormatAddr(devA), Room: 1, At: 5, Present: true},
		{Device: wire.FormatAddr(devB), Room: 5, At: 6, Present: true},
	} {
		if err := StationReport(client, p); err != nil {
			t.Fatal(err)
		}
	}
	var loc wire.LocateResult
	if err := client.Call(wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}, &loc); err != nil {
		t.Fatal(err)
	}
	if loc.Room != 5 {
		t.Errorf("locate room = %d, want 5", loc.Room)
	}
	var path wire.PathResult
	if err := client.Call(wire.MsgPath, wire.PathQuery{Querier: "alice", Target: "bob"}, &path); err != nil {
		t.Fatal(err)
	}
	if path.TotalMeters != 48 { // four 12m hops along the north corridor
		t.Errorf("path total = %v, want 48", path.TotalMeters)
	}
}

func TestWireErrorCodes(t *testing.T) {
	s := newServer(t)
	client := dialPipe(t, s)

	cases := []struct {
		name string
		t    wire.MsgType
		body any
		code string
	}{
		{"bad password", wire.MsgLogin, wire.Login{User: "alice", Password: "x", Device: wire.FormatAddr(devA)}, wire.CodeAuth},
		{"unknown user", wire.MsgLogin, wire.Login{User: "ghost", Password: pw, Device: wire.FormatAddr(devA)}, wire.CodeNotFound},
		{"locate offline", wire.MsgLocate, wire.Locate{Querier: "alice", Target: "bob"}, wire.CodeNotFound},
		{"bad hello room", wire.MsgHello, wire.Hello{Station: "x", Room: 999}, wire.CodeNotFound},
		{"unknown type", wire.MsgType("bogus"), struct{}{}, wire.CodeBadRequest},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := client.Call(tt.t, tt.body, nil)
			var werr *wire.Error
			if !errors.As(err, &werr) {
				t.Fatalf("error = %v, want wire.Error", err)
			}
			if werr.Code != tt.code {
				t.Errorf("code = %q, want %q", werr.Code, tt.code)
			}
		})
	}
}

func TestServeOverTCP(t *testing.T) {
	s := newServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := wire.NewClient(wire.NewFrameCodec(conn))
	if err := client.Call(wire.MsgLogin, wire.Login{
		User: "alice", Password: pw, Device: wire.FormatAddr(devA),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Logf("client close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned: %v", err)
	}
}
