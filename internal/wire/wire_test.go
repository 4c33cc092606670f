package wire

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"bips/internal/baseband"
)

func TestAddrRoundTrip(t *testing.T) {
	a := baseband.BDAddr(0x001122334455)
	s := FormatAddr(a)
	got, err := ParseAddr(s)
	if err != nil || got != a {
		t.Errorf("round trip = %v, %v", got, err)
	}
	if _, err := ParseAddr("nonsense"); err == nil {
		t.Error("bad address accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewFrameCodec(a), NewFrameCodec(b)

	go func() {
		env, err := MarshalBody(MsgLocate, 7, Locate{Querier: "alice", Target: "bob"})
		if err != nil {
			t.Error(err)
			return
		}
		if err := ca.Send(env); err != nil {
			t.Error(err)
		}
	}()
	env, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != MsgLocate || env.Seq != 7 {
		t.Errorf("envelope = %+v", env)
	}
	var body Locate
	if err := UnmarshalBody(env, &body); err != nil {
		t.Fatal(err)
	}
	if body.Querier != "alice" || body.Target != "bob" {
		t.Errorf("body = %+v", body)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	c := NewFrameCodec(struct {
		io.Reader
		io.Writer
	}{strings.NewReader("this is not json\n"), io.Discard})
	if _, err := c.Recv(); err == nil {
		t.Error("garbage line decoded")
	}
}

func TestCodecSendAfterClose(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewFrameCodec(a)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	if err := c.Send(Envelope{Type: MsgOK}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

// echoServer answers every request with an OK (or error) envelope of the
// same sequence number.
func echoServer(t *testing.T, conn net.Conn, respond func(Envelope) Envelope) {
	t.Helper()
	codec := NewFrameCodec(conn)
	go func() {
		for {
			env, err := codec.Recv()
			if err != nil {
				return
			}
			if err := codec.Send(respond(env)); err != nil {
				return
			}
		}
	}()
}

func TestClientCall(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b, func(req Envelope) Envelope {
		resp, err := MarshalBody(MsgLocateResult, req.Seq, LocateResult{Room: 4, RoomName: "Lab 1"})
		if err != nil {
			t.Error(err)
		}
		return resp
	})
	client := NewClient(NewFrameCodec(a))
	defer client.Close()

	var res LocateResult
	if err := client.Call(MsgLocate, Locate{Querier: "a", Target: "b"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Room != 4 || res.RoomName != "Lab 1" {
		t.Errorf("result = %+v", res)
	}
}

func TestClientErrorResponse(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b, func(req Envelope) Envelope {
		resp, err := MarshalBody(MsgError, req.Seq, Error{Code: CodeDenied, Message: "no"})
		if err != nil {
			t.Error(err)
		}
		return resp
	})
	client := NewClient(NewFrameCodec(a))
	defer client.Close()

	err := client.Call(MsgLocate, Locate{}, nil)
	var werr *Error
	if !errors.As(err, &werr) {
		t.Fatalf("error = %v, want *wire.Error", err)
	}
	if werr.Code != CodeDenied {
		t.Errorf("code = %q", werr.Code)
	}
	if !strings.Contains(werr.Error(), "denied") {
		t.Errorf("Error() = %q", werr.Error())
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	a, b := net.Pipe()
	echoServer(t, b, func(req Envelope) Envelope {
		// Answer with the request body so callers can verify their
		// own response.
		return Envelope{Type: MsgOK, Seq: req.Seq, Body: req.Body}
	})
	client := NewClient(NewFrameCodec(a))
	defer client.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			user := strings.Repeat("x", i+1)
			var out Logout
			if err := client.Call(MsgLogout, Logout{User: user}, &out); err != nil {
				t.Error(err)
				return
			}
			if out.User != user {
				t.Errorf("response mismatch: %q != %q", out.User, user)
			}
		}()
	}
	wg.Wait()
}

func TestClientPeerDisconnectUnblocksCalls(t *testing.T) {
	a, b := net.Pipe()
	client := NewClient(NewFrameCodec(a))
	defer client.Close()

	done := make(chan error, 1)
	go func() {
		done <- client.Call(MsgLocate, Locate{}, nil)
	}()
	// Give the call a moment to register, then kill the peer.
	b.Close()
	if err := <-done; err == nil {
		t.Error("call succeeded after peer disconnect")
	}
	// Subsequent calls fail fast.
	if err := client.Call(MsgLocate, Locate{}, nil); err == nil {
		t.Error("call after failure succeeded")
	}
}

func TestEnvelopeJSONShape(t *testing.T) {
	env, err := MarshalBody(MsgPresenceBatch, 3, PresenceBatch{Session: "s", Seq: 1, Deltas: []Presence{{
		Device: "AA:BB:CC:DD:EE:FF", Room: 2, At: 100, Present: true,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	var b PresenceBatch
	if err := UnmarshalBody(env, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Deltas) != 1 {
		t.Fatalf("batch = %+v", b)
	}
	if p := b.Deltas[0]; p.Device != "AA:BB:CC:DD:EE:FF" || p.Room != 2 || p.At != 100 || !p.Present {
		t.Errorf("presence = %+v", p)
	}
}
