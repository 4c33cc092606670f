// The connection type: length-prefixed frames over one buffered reader
// and one staged buffered writer.
//
// Every frame is a six-byte header in front of its payload:
//
//	offset 0 : magic   0xB2
//	offset 1 : version 0x02
//	offset 2 : payload length, big-endian uint32 (max MaxFramePayload)
//	offset 6 : payload — one JSON-encoded Envelope
//
// A stream whose first frame does not start with the magic and version
// is rejected by that frame's header check (ErrMalformed); there is no
// other framing to fall back to. The write mutex, the staged writer with
// flushing as an explicit policy, the pooled-buffer receive and the
// MaxFramePayload bound in both directions all live here. The Seq field
// is the correlation id that lets a server complete pipelined requests
// out of order. See docs/PROTOCOL.md for the full specification and a
// worked hex example.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Frame constants.
const (
	// FrameMagic is the first byte of every frame.
	FrameMagic = 0xB2
	// FrameVersion is the protocol revision carried in byte 1.
	FrameVersion = 0x02
	// FrameHeaderLen is the fixed header size: magic + version + length.
	FrameHeaderLen = 6
	// MaxFramePayload bounds one frame's payload, so a corrupt or
	// hostile peer cannot make the reader buffer without limit.
	MaxFramePayload = 1 << 20
)

// ErrMalformed reports bytes that could not be parsed as a protocol
// message — as opposed to transport errors like a closed connection. A
// server that sees it can still answer MsgError before closing; a plain
// I/O error means the peer is gone.
var ErrMalformed = errors.New("wire: malformed message")

// FrameCodec is a protocol connection: envelopes in length-prefixed
// frames over a persistent stream. The send methods are safe for
// concurrent callers and keep each frame atomic; the receive methods are
// for one reader goroutine.
//
// Flushing is an explicit policy rather than a side effect of every
// send: SendPayloadNoFlush stages one framed payload in the write
// buffer and Flush pushes everything staged — by any sender — onto the
// stream in a single write, so a caller draining a queue of N frames
// pays one write(2) instead of N. Send and SendPayload are the
// stage-then-flush forms. The write buffer flushes itself when full.
type FrameCodec struct {
	writeMu sync.Mutex
	w       *bufio.Writer
	// hdr is the send-side header scratch, guarded by writeMu. A local
	// array would escape through bufio's io.Writer plumbing and cost an
	// allocation per frame.
	hdr    [FrameHeaderLen]byte
	r      *bufio.Reader
	closer io.Closer
	closed bool
}

// NewFrameCodec wraps a stream in the frame codec. If rw implements
// io.Closer, Close closes it.
func NewFrameCodec(rw io.ReadWriter) *FrameCodec {
	return NewFrameCodecBuffered(rw, 0)
}

// NewFrameCodecBuffered is NewFrameCodec with an explicit write-buffer
// size: how many bytes SendPayloadNoFlush can stage before the buffer
// flushes itself. Sizes <= 0 select the bufio default.
func NewFrameCodecBuffered(rw io.ReadWriter, wbuf int) *FrameCodec {
	c := &FrameCodec{
		w: bufio.NewWriterSize(rw, wbuf),
		r: bufio.NewReader(rw),
	}
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	}
	return c
}

// Send marshals one envelope and sends it as a single frame, flushed.
func (c *FrameCodec) Send(env Envelope) error {
	payload, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return c.sendPayload(payload, true)
}

// SendPayload sends one already-encoded envelope payload (the JSON
// document, without any framing), flushed. The payload is copied into
// the write buffer before the call returns, so the caller may release or
// reuse its buffer immediately.
func (c *FrameCodec) SendPayload(payload []byte) error {
	return c.sendPayload(payload, true)
}

// SendPayloadNoFlush stages one framed payload in the write buffer; it
// leaves only on Flush (or when the buffer fills). Same ownership
// contract as SendPayload.
func (c *FrameCodec) SendPayloadNoFlush(payload []byte) error {
	return c.sendPayload(payload, false)
}

// sendPayload stages one framed payload and optionally flushes.
func (c *FrameCodec) sendPayload(payload []byte, flush bool) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("wire: frame payload %d exceeds %d", len(payload), MaxFramePayload)
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	putHeader(c.hdr[:], len(payload))
	if _, err := c.w.Write(c.hdr[:]); err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	if _, err := c.w.Write(payload); err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	if flush {
		return c.flushLocked()
	}
	return nil
}

// putHeader fills the six-byte frame header for a payload of n bytes.
func putHeader(hdr []byte, n int) {
	hdr[0] = FrameMagic
	hdr[1] = FrameVersion
	binary.BigEndian.PutUint32(hdr[2:], uint32(n))
}

// sendAppendNoFlush stages one append-encoded envelope without
// flushing, encoding straight into the write buffer's free space: a
// header placeholder, the envelope, then the length backfilled. When the
// envelope fits (the common case) the closing Write degenerates to a
// self-copy and the frame costs no pooled buffer and no memmove; when
// append had to reallocate, Write copies — and may flush earlier staged
// frames, which is the write buffer's documented spill behavior. Pass
// body as a pointer so the interface conversion does not allocate.
func (c *FrameCodec) sendAppendNoFlush(t MsgType, seq uint64, body Appender) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	scratch := append(c.w.AvailableBuffer(), c.hdr[:]...) // placeholder; backfilled below
	scratch = AppendEnvelope(scratch, t, seq, body)
	payload := len(scratch) - FrameHeaderLen
	if payload > MaxFramePayload {
		return fmt.Errorf("wire: frame payload %d exceeds %d", payload, MaxFramePayload)
	}
	putHeader(scratch, payload)
	if _, err := c.w.Write(scratch); err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	return nil
}

// Flush writes everything staged onto the underlying stream.
func (c *FrameCodec) Flush() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.flushLocked()
}

func (c *FrameCodec) flushLocked() error {
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Recv reads one envelope into a fresh buffer. Bytes that cannot be a
// valid frame (bad magic, unknown version, oversized payload, payload
// that is not an envelope) are reported as ErrMalformed; clean EOF
// between frames is io.EOF.
func (c *FrameCodec) Recv() (Envelope, error) {
	env, _, err := c.RecvBuf(nil)
	return env, err
}

// RecvBuf receives one envelope into a caller-owned buffer: buf is
// reused when its capacity suffices (pass the B of a pooled Buf) and the
// returned slice replaces it. The returned Envelope's Body ALIASES the
// returned buffer — it is valid only until the caller reuses or releases
// the buffer. The returned buffer is valid even on error so a pooled
// caller never loses it.
func (c *FrameCodec) RecvBuf(buf []byte) (Envelope, []byte, error) {
	buf, err := c.readFrame(buf)
	if err != nil {
		return Envelope{}, buf, err
	}
	env, err := DecodeEnvelope(buf)
	if err != nil {
		return Envelope{}, buf, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return env, buf, nil
}

// readFrame reads one frame's payload into buf. The header is parsed
// in place via Peek — a local array read through io.ReadFull would
// escape into the io.Reader interface and cost an allocation per frame.
func (c *FrameCodec) readFrame(buf []byte) ([]byte, error) {
	hdr, err := c.r.Peek(FrameHeaderLen)
	if err != nil {
		// Mirror io.ReadFull: nothing read passes the error through
		// (io.EOF on clean close); a torn header is a framing error.
		if len(hdr) == 0 || !errors.Is(err, io.EOF) {
			return buf, err
		}
		return buf, fmt.Errorf("%w: truncated frame header", ErrMalformed)
	}
	magic, version := hdr[0], hdr[1]
	n := binary.BigEndian.Uint32(hdr[2:])
	// The peeked slice dies at the next reader call, so consume the
	// header (always fully buffered after a successful Peek) before
	// validating, exactly where io.ReadFull left the stream.
	if _, err := c.r.Discard(FrameHeaderLen); err != nil {
		return buf, err
	}
	if magic != FrameMagic {
		return buf, fmt.Errorf("%w: bad frame magic 0x%02X", ErrMalformed, magic)
	}
	if version != FrameVersion {
		return buf, fmt.Errorf("%w: unsupported frame version 0x%02X", ErrMalformed, version)
	}
	if n > MaxFramePayload {
		return buf, fmt.Errorf("%w: frame payload %d exceeds %d", ErrMalformed, n, MaxFramePayload)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(c.r, buf); err != nil {
		// ReadFull reports a stream that ends right behind the header as
		// plain io.EOF; with payload bytes owed that is as torn as one
		// that ends mid-payload.
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			return buf, fmt.Errorf("%w: truncated frame payload", ErrMalformed)
		}
		return buf, err
	}
	return buf, nil
}

// Close closes the underlying stream when it is closable.
func (c *FrameCodec) Close() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}
