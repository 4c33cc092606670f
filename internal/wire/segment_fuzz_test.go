package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
)

// chunkedReader serves data in segments that end at the given cut
// positions, simulating a sender whose flush boundaries land anywhere —
// including inside a frame header. Each Read returns at most one
// segment, so the reader sees the same short-read pattern a socket
// would produce.
type chunkedReader struct {
	data []byte
	cuts []int
	off  int
}

func (r *chunkedReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	end := len(r.data)
	for _, c := range r.cuts {
		if c > r.off && c < end {
			end = c
			break
		}
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	return n, nil
}

// readWriter pairs a reader with a discarding writer so the read-only
// fixtures satisfy the codec constructor.
type readWriter struct {
	io.Reader
	io.Writer
}

func newChunkedTransport(data []byte, cuts []int) *FrameCodec {
	return NewFrameCodec(readWriter{&chunkedReader{data: data, cuts: cuts}, io.Discard})
}

// buildFrameStream encodes envelopes whose bodies are derived from raw
// fuzz bytes (JSON-escaped by the encoder, so any input is valid),
// framed by hand with a six-byte header in front of each, and returns
// the wire bytes, the offset at which each frame ends, and the reference
// envelopes.
func buildFrameStream(payloads [][]byte) ([]byte, []int, []Envelope) {
	var stream []byte
	var ends []int
	var want []Envelope
	for i, p := range payloads {
		seq := uint64(i + 1)
		body := Locate{Querier: string(p), Target: fmt.Sprintf("t%d", i)}
		payload := AppendEnvelope(nil, MsgLocate, seq, body)
		stream = append(stream, FrameMagic, FrameVersion,
			byte(len(payload)>>24), byte(len(payload)>>16), byte(len(payload)>>8), byte(len(payload)))
		stream = append(stream, payload...)
		ends = append(ends, len(stream))
		// Body is left empty in the reference: the differential check
		// below compares segmented against unsegmented decoding.
		want = append(want, Envelope{Type: MsgLocate, Seq: seq})
	}
	return stream, ends, want
}

// recvAll drains every frame from c, copying bodies out of the reused
// receive buffer.
func recvAll(c *FrameCodec) ([]Envelope, error) {
	var got []Envelope
	var buf []byte
	for {
		var env Envelope
		var err error
		env, buf, err = c.RecvBuf(buf)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return got, nil
			}
			return got, err
		}
		env.Body = append([]byte(nil), env.Body...)
		got = append(got, env)
	}
}

// FuzzFrameReadSegmentation checks that the reader is agnostic to where
// the sender's flush boundaries fall: the same stream must decode to
// the same envelopes no matter how it is segmented — even when a
// segment ends inside the six-byte header. The cuts come from the
// fuzzer, so it hunts exactly for the split the header-peek path might
// mishandle.
func FuzzFrameReadSegmentation(f *testing.F) {
	f.Add([]byte("alice"), []byte{3, 7, 1})
	f.Add([]byte(`quo"te\and`+"\n"), []byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{}, []byte{0xFF, 2})
	f.Fuzz(func(t *testing.T, seed []byte, cutBytes []byte) {
		// A handful of frames with fuzz-derived bodies: first raw, then
		// shifted variants so frame lengths differ.
		payloads := [][]byte{seed}
		for i := 1; i < 4; i++ {
			p := append(bytes.Repeat([]byte{byte('a' + i)}, i), seed...)
			payloads = append(payloads, p)
		}
		stream, _, want := buildFrameStream(payloads)

		// Reference: one unbroken read.
		wantGot, err := recvAll(newChunkedTransport(stream, nil))
		if err != nil {
			t.Fatalf("unsegmented stream failed: %v", err)
		}
		if len(wantGot) != len(want) {
			t.Fatalf("unsegmented stream: %d envelopes, want %d", len(wantGot), len(want))
		}

		// Fuzz-chosen cuts: each byte is a delta to the next boundary.
		var cuts []int
		pos := 0
		for _, d := range cutBytes {
			pos += int(d)
			if pos >= len(stream) {
				break
			}
			cuts = append(cuts, pos)
		}
		sort.Ints(cuts)
		got, err := recvAll(newChunkedTransport(stream, cuts))
		if err != nil {
			t.Fatalf("segmented stream (cuts %v) failed: %v", cuts, err)
		}
		if len(got) != len(wantGot) {
			t.Fatalf("segmented stream (cuts %v): %d envelopes, want %d", cuts, len(got), len(wantGot))
		}
		for i := range got {
			if got[i].Type != wantGot[i].Type || got[i].Seq != wantGot[i].Seq || !bytes.Equal(got[i].Body, wantGot[i].Body) {
				t.Fatalf("segmented envelope %d = %+v, want %+v (cuts %v)", i, got[i], wantGot[i], cuts)
			}
		}
	})
}

// TestFrameHeaderSplitAtEveryByte walks a single cut across every
// position of a two-frame stream — in particular each of the six header
// bytes of both frames — and requires identical decoding each time.
func TestFrameHeaderSplitAtEveryByte(t *testing.T) {
	stream, _, want := buildFrameStream([][]byte{[]byte("alice"), []byte("bob")})
	for cut := 1; cut < len(stream); cut++ {
		got, err := recvAll(newChunkedTransport(stream, []int{cut}))
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(got) != len(want) {
			t.Fatalf("cut at %d: %d envelopes, want %d", cut, len(got), len(want))
		}
		for i := range got {
			if got[i].Type != want[i].Type || got[i].Seq != want[i].Seq {
				t.Fatalf("cut at %d: envelope %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
	}
}

// TestFrameTruncatedInsideHeader confirms a stream that ends mid-header
// is reported as a framing error, not silently dropped or misread.
func TestFrameTruncatedInsideHeader(t *testing.T) {
	stream, _, _ := buildFrameStream([][]byte{[]byte("alice")})
	for cut := 1; cut < FrameHeaderLen; cut++ {
		c := newChunkedTransport(stream[:cut], nil)
		_, _, err := c.RecvBuf(nil)
		if !errors.Is(err, ErrMalformed) {
			t.Fatalf("truncated header (%d bytes): err = %v, want ErrMalformed", cut, err)
		}
	}
}

// TestStreamTruncatedAtEveryOffset ends a three-frame stream at every
// offset. Every frame that arrived whole is decoded; a stream that ends
// on a frame boundary is a clean EOF; one that ends inside a frame is
// ErrMalformed.
func TestStreamTruncatedAtEveryOffset(t *testing.T) {
	stream, ends, _ := buildFrameStream([][]byte{[]byte("alice"), []byte("bob"), []byte("carol")})
	for cut := 1; cut < len(stream); cut++ {
		whole, clean := 0, false
		for _, end := range ends {
			if end <= cut {
				whole++
			}
			if end == cut {
				clean = true
			}
		}
		got, err := recvAll(newChunkedTransport(stream[:cut], nil))
		if len(got) != whole {
			t.Fatalf("cut at %d: %d envelopes, want %d", cut, len(got), whole)
		}
		if clean && err != nil {
			t.Fatalf("cut at %d on a frame boundary: %v", cut, err)
		}
		if !clean && !errors.Is(err, ErrMalformed) {
			t.Fatalf("cut at %d inside a frame: err = %v, want ErrMalformed", cut, err)
		}
	}
}
