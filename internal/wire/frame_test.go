package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
)

type rwBuffer struct {
	bytes.Buffer
}

func TestFrameRoundTrip(t *testing.T) {
	var buf rwBuffer
	c := NewFrameCodec(&buf)
	want, err := MarshalBody(MsgLocate, 42, Locate{Querier: "a", Target: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(want); err != nil {
		t.Fatal(err)
	}
	// Check the raw header while it is observable.
	raw := buf.Bytes()
	if raw[0] != FrameMagic || raw[1] != FrameVersion {
		t.Fatalf("header = % x", raw[:FrameHeaderLen])
	}
	if n := binary.BigEndian.Uint32(raw[2:]); int(n) != len(raw)-FrameHeaderLen {
		t.Fatalf("length prefix %d, payload %d", n, len(raw)-FrameHeaderLen)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Seq != want.Seq || string(got.Body) != string(want.Body) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestFrameRecvMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  func() []byte
	}{
		{"bad magic", func() []byte {
			return []byte{0x7B, FrameVersion, 0, 0, 0, 0}
		}},
		{"bad version", func() []byte {
			return []byte{FrameMagic, 0x99, 0, 0, 0, 0}
		}},
		{"oversized length", func() []byte {
			b := []byte{FrameMagic, FrameVersion, 0, 0, 0, 0}
			binary.BigEndian.PutUint32(b[2:], MaxFramePayload+1)
			return b
		}},
		{"truncated header", func() []byte {
			return []byte{FrameMagic, FrameVersion, 0}
		}},
		{"truncated payload", func() []byte {
			b := []byte{FrameMagic, FrameVersion, 0, 0, 0, 10}
			return append(b, "half"...)
		}},
		{"payload not json", func() []byte {
			b := []byte{FrameMagic, FrameVersion, 0, 0, 0, 4}
			return append(b, "!!!!"...)
		}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			c := NewFrameCodec(&rwBuffer{Buffer: *bytes.NewBuffer(tt.raw())})
			_, err := c.Recv()
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("Recv error = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestFrameRecvCleanEOF(t *testing.T) {
	c := NewFrameCodec(&rwBuffer{})
	if _, err := c.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("Recv on empty stream = %v, want io.EOF", err)
	}
}

// TestFrameSendOversized: the codec refuses to send what the peer's
// reader would reject, on the marshaling and the append-encoded path.
func TestFrameSendOversized(t *testing.T) {
	huge := Envelope{Type: MsgHello, Body: []byte(`"` + strings.Repeat("x", MaxFramePayload) + `"`)}
	var buf rwBuffer
	c := NewFrameCodec(&buf)
	if err := c.Send(huge); err == nil {
		t.Error("oversized Send accepted")
	}
	if err := c.sendAppendNoFlush(MsgHello, 1, rawPad(huge.Body)); err == nil {
		t.Error("oversized append-encoded send accepted")
	}
	if err := c.Flush(); err != nil || buf.Len() != 0 {
		t.Errorf("refused sends left %d bytes on the stream (flush: %v)", buf.Len(), err)
	}
}

func TestFrameConcurrentSend(t *testing.T) {
	a, b := net.Pipe()
	sender := NewFrameCodec(a)
	receiver := NewFrameCodec(b)
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			env, err := MarshalBody(MsgHello, uint64(i), Hello{Station: "s"})
			if err != nil {
				t.Error(err)
				return
			}
			if err := sender.Send(env); err != nil {
				t.Error(err)
			}
		}()
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		env, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seen[env.Seq] {
			t.Fatalf("seq %d received twice (frame interleaving corruption)", env.Seq)
		}
		seen[env.Seq] = true
	}
	wg.Wait()
	a.Close()
	b.Close()
}
