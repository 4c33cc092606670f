// The connection type: one framing over one buffered reader and one
// staged buffered writer.
//
// Envelopes are identical in both protocol versions; only the framing
// differs, and FrameCodec carries it as one field chosen at
// construction (or by the server's one-byte sniff):
//
//   - v2 (NewFrameCodec): a six-byte header in front of each payload
//
//     offset 0 : magic   0xB2  (never '{', so a server can sniff the version)
//     offset 1 : version 0x02
//     offset 2 : payload length, big-endian uint32 (max MaxFramePayload)
//     offset 6 : payload — one JSON-encoded Envelope
//
//   - v1 (NewCodec): the payload followed by a newline — easy to debug
//     with netcat, but the reader has to scan for the delimiter. Because
//     the first byte of every v1 message is '{', the whole remaining
//     byte space was free for the v2 magic.
//
// Everything else — the write mutex, the staged writer with flushing as
// an explicit policy, the pooled-buffer receive, the MaxFramePayload
// bound in both directions — is shared. The Seq field is the correlation
// id that lets a server complete pipelined requests out of order. See
// docs/PROTOCOL.md for the full specification and a worked hex example.
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

// Frame constants for protocol v2.
const (
	// FrameMagic is the first byte of every v2 frame. JSON (v1) messages
	// always start with '{' (0x7B), so one peeked byte decides the
	// version.
	FrameMagic = 0xB2
	// FrameVersion is the protocol revision carried in byte 1.
	FrameVersion = 0x02
	// FrameHeaderLen is the fixed header size: magic + version + length.
	FrameHeaderLen = 6
	// MaxFramePayload bounds one envelope's encoding — a v2 frame's
	// payload, a v1 line without its newline — so a corrupt or hostile
	// peer cannot make the reader buffer without limit.
	MaxFramePayload = 1 << 20
)

// ErrMalformed reports bytes that could not be parsed as a protocol
// message — as opposed to transport errors like a closed connection. A
// server that sees it can still answer MsgError before closing; a plain
// I/O error means the peer is gone.
var ErrMalformed = errors.New("wire: malformed message")

// FrameCodec is a protocol connection: envelopes framed as v2
// length-prefixed frames or v1 newline-terminated lines over a
// persistent stream. The send methods are safe for concurrent callers
// and keep each frame atomic; the receive methods are for one reader
// goroutine.
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
	v1     bool // newline framing instead of the length-prefixed header
	closer io.Closer
	closed bool
}

// NewFrameCodec wraps a stream in the v2 framing. If rw implements
// io.Closer, Close closes it.
func NewFrameCodec(rw io.ReadWriter) *FrameCodec {
	return newFrameCodec(rw, bufio.NewReader(rw), 0, false)
}

// NewFrameCodecBuffered is NewFrameCodec with an explicit write-buffer
// size: how many bytes SendPayloadNoFlush can stage before the buffer
// flushes itself. Sizes <= 0 select the bufio default.
func NewFrameCodecBuffered(rw io.ReadWriter, wbuf int) *FrameCodec {
	return newFrameCodec(rw, bufio.NewReader(rw), wbuf, false)
}

// NewCodec wraps a stream in the v1 framing: one JSON document per
// line. If rw implements io.Closer, Close closes it.
func NewCodec(rw io.ReadWriter) *FrameCodec {
	return newFrameCodec(rw, bufio.NewReader(rw), 0, true)
}

// newFrameCodec builds a FrameCodec over an already-buffered reader, so
// the server-side sniffer can hand over the reader it peeked into. wbuf
// sizes the write buffer (<= 0: the bufio default).
func newFrameCodec(rw io.ReadWriter, r *bufio.Reader, wbuf int, v1 bool) *FrameCodec {
	c := &FrameCodec{
		w:  bufio.NewWriterSize(rw, wbuf),
		r:  r,
		v1: v1,
	}
	if cl, ok := rw.(io.Closer); ok {
		c.closer = cl
	}
	return c
}

// ServerTransport sniffs which protocol version the peer speaks and
// returns the connection in the matching framing: the first byte of a v2
// connection is FrameMagic, of a v1 connection '{'. This is the whole
// negotiation — a v1 client needs no changes to keep working against a
// v2 server. Any other first byte yields ErrMalformed together with a
// best-effort v1 connection the caller can use to answer MsgError before
// closing. wbuf sizes the write buffer a flush-coalescing writer stages
// into (<= 0: the bufio default, 4 KiB).
func ServerTransport(rw io.ReadWriter, wbuf int) (*FrameCodec, error) {
	br := bufio.NewReader(rw)
	first, err := br.Peek(1)
	if err != nil {
		return nil, err
	}
	switch first[0] {
	case FrameMagic:
		return newFrameCodec(rw, br, wbuf, false), nil
	case '{':
		return newFrameCodec(rw, br, wbuf, true), nil
	default:
		return newFrameCodec(rw, br, wbuf, true), fmt.Errorf("%w: unknown protocol byte 0x%02X", ErrMalformed, first[0])
	}
}

// FrameOverhead reports the framing bytes each payload costs on the
// stream: the v2 header or the v1 newline.
func (c *FrameCodec) FrameOverhead() int {
	if c.v1 {
		return 1
	}
	return FrameHeaderLen
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
	if !c.v1 {
		putHeader(c.hdr[:], len(payload))
		if _, err := c.w.Write(c.hdr[:]); err != nil {
			return fmt.Errorf("wire: write: %w", err)
		}
	}
	if _, err := c.w.Write(payload); err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	if c.v1 {
		if err := c.w.WriteByte('\n'); err != nil {
			return fmt.Errorf("wire: write: %w", err)
		}
	}
	if flush {
		return c.flushLocked()
	}
	return nil
}

// putHeader fills the six-byte v2 header for a payload of n bytes.
func putHeader(hdr []byte, n int) {
	hdr[0] = FrameMagic
	hdr[1] = FrameVersion
	binary.BigEndian.PutUint32(hdr[2:], uint32(n))
}

// sendAppendNoFlush stages one append-encoded envelope without
// flushing, encoding straight into the write buffer's free space: for
// v2 a header placeholder, the envelope, then the length backfilled; for
// v1 the envelope and its newline. When the envelope fits (the common
// case) the closing Write degenerates to a self-copy and the frame costs
// no pooled buffer and no memmove; when append had to reallocate, Write
// copies — and may flush earlier staged frames, which is the write
// buffer's documented spill behavior. Pass body as a pointer so the
// interface conversion does not allocate.
func (c *FrameCodec) sendAppendNoFlush(t MsgType, seq uint64, body Appender) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.closed {
		return ErrClosed
	}
	scratch := c.w.AvailableBuffer()
	overhead := 0
	if !c.v1 {
		overhead = FrameHeaderLen
		scratch = append(scratch, c.hdr[:]...) // placeholder; backfilled below
	}
	scratch = AppendEnvelope(scratch, t, seq, body)
	payload := len(scratch) - overhead
	if payload > MaxFramePayload {
		return fmt.Errorf("wire: frame payload %d exceeds %d", payload, MaxFramePayload)
	}
	if c.v1 {
		scratch = append(scratch, '\n')
	} else {
		putHeader(scratch, payload)
	}
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
// valid frame (bad magic, unknown version, oversized payload or line,
// payload that is not an envelope) are reported as ErrMalformed; clean
// EOF between frames is io.EOF.
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
	var err error
	if c.v1 {
		buf, err = c.readLine(buf)
	} else {
		buf, err = c.readFrame(buf)
	}
	if err != nil {
		return Envelope{}, buf, err
	}
	env, err := DecodeEnvelope(buf)
	if err != nil {
		return Envelope{}, buf, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return env, buf, nil
}

// readFrame reads one v2 frame's payload into buf. The header is parsed
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

// readLine reads one v1 line into buf, accumulated fragment by fragment
// without the per-message allocation of bufio.ReadBytes. A final
// unterminated line is still returned. The line is bounded like a v2
// payload: a peer streaming bytes without a newline is cut off at
// MaxFramePayload instead of growing the buffer forever.
func (c *FrameCodec) readLine(buf []byte) ([]byte, error) {
	buf = buf[:0]
	for {
		frag, err := c.r.ReadSlice('\n')
		buf = append(buf, frag...)
		line := len(buf)
		if err == nil {
			line-- // the newline is framing, not payload
		}
		if line > MaxFramePayload {
			return buf, fmt.Errorf("%w: line exceeds %d bytes", ErrMalformed, MaxFramePayload)
		}
		if err == nil || !errors.Is(err, bufio.ErrBufferFull) {
			if len(buf) == 0 {
				return buf, err
			}
			return buf, nil
		}
	}
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
