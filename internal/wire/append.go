// Zero-allocation encode/decode path for the hot message types.
//
// The encoding/json round trip dominates the serving-tier allocation
// profile (46 allocs per pipelined locate before this path), so the hot
// types carry hand-rolled append-style encoders (AppendTo) and strict
// decoders (DecodeBody) that are verified byte-identical to
// encoding/json by differential and fuzz tests (append_test.go). The
// rules that keep this safe:
//
//   - AppendTo output MUST equal json.Marshal output byte for byte —
//     including encoding/json's HTML escaping of '<', '>', '&' — so
//     frames are indistinguishable from the marshaled form and
//     docs/PROTOCOL.md's hex examples stay valid.
//   - DecodeBody accepts exactly the canonical encoding this package
//     produces and reports false on anything else; callers MUST fall
//     back to UnmarshalBody so foreign-but-valid JSON keeps working.
//   - The shared scanners accept only what encoding/json decodes to the
//     same value: a string with invalid UTF-8 (json reads U+FFFD) and a
//     number with a leading zero (json refuses it) are not canonical.
//     FuzzPresenceBatchDecode holds every DecodeBody to this.
//   - A receiver reused across frames (PresenceBatch from a pool) is
//     reset to its zero value before falling back: encoding/json leaves
//     a field the body omits as it was, so an old frame's value would
//     survive. DecodeBody itself sets every field it reuses.
//   - Pooled buffers (Buf) have a single owner at any instant. The
//     owner — and only the owner — calls Release exactly once, after
//     which the buffer and any Envelope.Body aliasing it are invalid.
//     See docs/ARCHITECTURE.md, "Buffer ownership and release rules".
package wire

import (
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"bips/internal/graph"
	"bips/internal/sim"
)

// Appender is implemented by message bodies that can encode themselves
// by appending their canonical JSON to buf, byte-identical to
// json.Marshal, without allocating (beyond growing buf).
type Appender interface {
	AppendTo(buf []byte) []byte
}

// BodyDecoder is implemented by message bodies that can decode the
// canonical encoding this package produces without allocating
// intermediate state. DecodeBody reports false when body is not in
// canonical form — the caller must then fall back to UnmarshalBody,
// which accepts any valid JSON. On false the receiver may be partially
// overwritten.
type BodyDecoder interface {
	DecodeBody(body []byte) bool
}

// Buf is a pooled frame buffer. Get one with GetBuf, append into B
// (always through the returned slice: B = append(B, ...)), and Release
// it when — and only when — you are its current owner and are done with
// every view into it. Ownership transfers are explicit and linear:
// reader → handler for request buffers, handler → writer for response
// buffers. Double release or use after release corrupts the pool; the
// -race aliasing tests exist to catch exactly that.
type Buf struct {
	B []byte
}

// maxPooledBuf bounds what Release returns to the pool, so one huge
// frame (a 4096-delta presence batch) does not pin megabytes forever.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{
	New: func() any { return &Buf{B: make([]byte, 0, 512)} },
}

// GetBuf returns an empty pooled buffer. The caller becomes its owner.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// Release returns the buffer to the pool. After Release the buffer, and
// every byte slice or Envelope.Body that aliased it, must not be
// touched.
func (b *Buf) Release() {
	if cap(b.B) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, replicating
// encoding/json's escaping exactly: HTML escaping on ('<', '>', '&'
// become \u003c, \u003e, \u0026), short escapes for quote, backslash,
// newline, carriage return and tab, \u00xx for other control bytes,
// U+2028/U+2029 escaped, and each invalid UTF-8 byte encoded as the
// replacement-character escape \ufffd.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\':
				buf = append(buf, '\\', '\\')
			case '"':
				buf = append(buf, '\\', '"')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// AppendEnvelope appends the canonical encoding of an envelope carrying
// body. A nil body yields an envelope without a body key, exactly like
// marshaling an Envelope with an empty Body (omitempty). Pass body as a
// pointer so the interface conversion does not allocate.
func AppendEnvelope(buf []byte, t MsgType, seq uint64, body Appender) []byte {
	buf = append(buf, `{"type":`...)
	buf = appendJSONString(buf, string(t))
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendUint(buf, seq, 10)
	if body != nil {
		buf = append(buf, `,"body":`...)
		buf = body.AppendTo(buf)
	}
	return append(buf, '}')
}

// AppendEnvelopePrefix appends everything of the canonical envelope
// encoding up to and including `,"body":`. The caller appends the body
// value with the concrete type's AppendTo and a closing '}' — the
// spelled-out form of AppendEnvelope for hot paths where boxing the
// body into the Appender interface would force a stack-allocated
// response onto the heap.
func AppendEnvelopePrefix(buf []byte, t MsgType, seq uint64) []byte {
	buf = append(buf, `{"type":`...)
	buf = appendJSONString(buf, string(t))
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendUint(buf, seq, 10)
	return append(buf, `,"body":`...)
}

// AppendEnvelopeRaw appends the canonical encoding of an envelope whose
// body is already-encoded JSON (or absent when empty), byte-identical
// to json.Marshal of the same Envelope when env.Body is compact.
func AppendEnvelopeRaw(buf []byte, env Envelope) []byte {
	buf = append(buf, `{"type":`...)
	buf = appendJSONString(buf, string(env.Type))
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendUint(buf, env.Seq, 10)
	if len(env.Body) > 0 {
		buf = append(buf, `,"body":`...)
		buf = append(buf, env.Body...)
	}
	return append(buf, '}')
}

// EmptyBody is the Appender for bodies with no fields — the MsgOK
// response.
type EmptyBody struct{}

// AppendTo implements Appender.
func (EmptyBody) AppendTo(buf []byte) []byte { return append(buf, '{', '}') }

// AppendTo implements Appender.
func (q Locate) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"querier":`...)
	buf = appendJSONString(buf, q.Querier)
	buf = append(buf, `,"target":`...)
	buf = appendJSONString(buf, q.Target)
	return append(buf, '}')
}

// AppendTo implements Appender.
func (q LocateAt) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"querier":`...)
	buf = appendJSONString(buf, q.Querier)
	buf = append(buf, `,"target":`...)
	buf = appendJSONString(buf, q.Target)
	buf = append(buf, `,"at":`...)
	buf = strconv.AppendInt(buf, int64(q.At), 10)
	return append(buf, '}')
}

// AppendTo implements Appender.
func (r LocateResult) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"room":`...)
	buf = strconv.AppendInt(buf, int64(r.Room), 10)
	buf = append(buf, `,"roomName":`...)
	buf = appendJSONString(buf, r.RoomName)
	buf = append(buf, `,"at":`...)
	buf = strconv.AppendInt(buf, int64(r.At), 10)
	return append(buf, '}')
}

// AppendTo implements Appender.
func (p Presence) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"device":`...)
	buf = appendJSONString(buf, p.Device)
	buf = append(buf, `,"room":`...)
	buf = strconv.AppendInt(buf, int64(p.Room), 10)
	buf = append(buf, `,"at":`...)
	buf = strconv.AppendInt(buf, int64(p.At), 10)
	buf = append(buf, `,"present":`...)
	if p.Present {
		buf = append(buf, `true`...)
	} else {
		buf = append(buf, `false`...)
	}
	return append(buf, '}')
}

// AppendTo implements Appender.
func (b PresenceBatch) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"session":`...)
	buf = appendJSONString(buf, b.Session)
	buf = append(buf, `,"seq":`...)
	buf = strconv.AppendUint(buf, b.Seq, 10)
	buf = append(buf, `,"deltas":`...)
	if b.Deltas == nil {
		buf = append(buf, `null`...)
	} else {
		buf = append(buf, '[')
		for i := range b.Deltas {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = b.Deltas[i].AppendTo(buf)
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// AppendTo implements Appender.
func (h IngestHello) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"session":`...)
	buf = appendJSONString(buf, h.Session)
	buf = append(buf, `,"station":`...)
	buf = appendJSONString(buf, h.Station)
	buf = append(buf, `,"room":`...)
	buf = strconv.AppendInt(buf, int64(h.Room), 10)
	return append(buf, '}')
}

// AppendTo implements Appender.
func (a IngestAck) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"acked":`...)
	buf = strconv.AppendUint(buf, a.Acked, 10)
	buf = append(buf, `,"applied":`...)
	buf = strconv.AppendInt(buf, int64(a.Applied), 10)
	if a.Rejected != 0 {
		buf = append(buf, `,"rejected":`...)
		buf = strconv.AppendInt(buf, int64(a.Rejected), 10)
	}
	if a.Duplicate {
		buf = append(buf, `,"duplicate":true`...)
	}
	return append(buf, '}')
}

// AppendTo implements Appender.
func (e Event) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"sub":`...)
	buf = appendJSONString(buf, e.Sub)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, e.Kind)
	if e.Device != "" {
		buf = append(buf, `,"device":`...)
		buf = appendJSONString(buf, e.Device)
	}
	if e.User != "" {
		buf = append(buf, `,"user":`...)
		buf = appendJSONString(buf, e.User)
	}
	buf = append(buf, `,"room":`...)
	buf = strconv.AppendInt(buf, int64(e.Room), 10)
	if e.RoomName != "" {
		buf = append(buf, `,"roomName":`...)
		buf = appendJSONString(buf, e.RoomName)
	}
	buf = append(buf, `,"at":`...)
	buf = strconv.AppendInt(buf, int64(e.At), 10)
	if e.Occupancy != 0 {
		buf = append(buf, `,"occupancy":`...)
		buf = strconv.AppendInt(buf, int64(e.Occupancy), 10)
	}
	return append(buf, '}')
}

// AppendTo implements Appender.
func (e Error) AppendTo(buf []byte) []byte {
	buf = append(buf, `{"code":`...)
	buf = appendJSONString(buf, e.Code)
	buf = append(buf, `,"message":`...)
	buf = appendJSONString(buf, e.Message)
	return append(buf, '}')
}

// DecodeEnvelope parses one frame payload into an Envelope. Canonical
// payloads (the encoding this package itself produces) are parsed
// without allocating: the MsgType is interned and Body ALIASES payload
// — it is valid exactly as long as payload is, which for pooled receive
// buffers means until Release. Anything non-canonical falls back to
// json.Unmarshal, which copies. A payload that is not a JSON envelope
// at all yields ErrMalformed.
func DecodeEnvelope(payload []byte) (Envelope, error) {
	if env, ok := decodeEnvelopeFast(payload); ok {
		return env, nil
	}
	var env Envelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return Envelope{}, err
	}
	return env, nil
}

// decodeEnvelopeFast parses exactly the canonical envelope encoding:
// {"type":"...","seq":N} or {"type":"...","seq":N,"body":...} with an
// escape-free known type, no surrounding whitespace, and a valid JSON
// body. ok is false on any deviation.
func decodeEnvelopeFast(p []byte) (env Envelope, ok bool) {
	const pre = `{"type":"`
	if len(p) < len(pre)+2 || string(p[:len(pre)]) != pre {
		return Envelope{}, false
	}
	i := len(pre)
	j := i
	for j < len(p) && p[j] != '"' {
		if p[j] == '\\' {
			return Envelope{}, false
		}
		j++
	}
	if j >= len(p) {
		return Envelope{}, false
	}
	t, ok := msgTypes[string(p[i:j])]
	if !ok {
		return Envelope{}, false
	}
	env.Type = t
	i = j + 1
	const seqKey = `,"seq":`
	if len(p)-i < len(seqKey)+2 || string(p[i:i+len(seqKey)]) != seqKey {
		return Envelope{}, false
	}
	i += len(seqKey)
	if p[i] < '0' || p[i] > '9' {
		return Envelope{}, false
	}
	// JSON forbids leading zeros: "00" or "01" is not a number.
	if p[i] == '0' && i+1 < len(p) && p[i+1] >= '0' && p[i+1] <= '9' {
		return Envelope{}, false
	}
	var seq uint64
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		d := uint64(p[i] - '0')
		if seq > (^uint64(0)-d)/10 {
			return Envelope{}, false
		}
		seq = seq*10 + d
		i++
	}
	env.Seq = seq
	if i == len(p)-1 && p[i] == '}' {
		return env, true
	}
	const bodyKey = `,"body":`
	if len(p)-i < len(bodyKey)+2 || string(p[i:i+len(bodyKey)]) != bodyKey {
		return Envelope{}, false
	}
	i += len(bodyKey)
	if p[len(p)-1] != '}' {
		return Envelope{}, false
	}
	body := p[i : len(p)-1]
	// canonicalJSONValue is a cheap certain-yes scan over the dense
	// encoding this package emits; json.Valid is the authority for
	// everything it is unsure about, so the accepted set is identical.
	if len(body) == 0 || (!canonicalJSONValue(body) && !json.Valid(body)) {
		return Envelope{}, false
	}
	env.Body = json.RawMessage(body)
	return env, true
}

// canonicalJSONValue reports whether b is certainly one complete JSON
// value in the dense canonical encoding this package emits: no
// whitespace, escape-free strings, exact number grammar. A true result
// implies json.Valid(b); false means only "not certainly canonical" —
// valid-but-foreign JSON (escapes, whitespace, deep nesting) also
// reports false, and the caller must let json.Valid decide. It exists
// because json.Valid's byte-at-a-time state machine dominated the frame
// decode profile, and nearly every frame on the wire is canonical.
func canonicalJSONValue(b []byte) bool {
	i, ok := scanCanonicalValue(b, 0, 0)
	return ok && i == len(b)
}

// maxCanonicalDepth bounds scanCanonicalValue's recursion; deeper
// nesting falls back to json.Valid's iterative scanner.
const maxCanonicalDepth = 64

// scanCanonicalValue scans one canonical JSON value starting at b[i]
// and returns the index just past it. ok is false whenever the input
// is not certainly canonical.
func scanCanonicalValue(b []byte, i, depth int) (int, bool) {
	if depth > maxCanonicalDepth || i >= len(b) {
		return 0, false
	}
	switch c := b[i]; {
	case c == '{':
		i++
		if i < len(b) && b[i] == '}' {
			return i + 1, true
		}
		for {
			var ok bool
			i, ok = scanCanonicalString(b, i)
			if !ok || i >= len(b) || b[i] != ':' {
				return 0, false
			}
			i, ok = scanCanonicalValue(b, i+1, depth+1)
			if !ok || i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case ',':
				i++
			case '}':
				return i + 1, true
			default:
				return 0, false
			}
		}
	case c == '[':
		i++
		if i < len(b) && b[i] == ']' {
			return i + 1, true
		}
		for {
			var ok bool
			i, ok = scanCanonicalValue(b, i, depth+1)
			if !ok || i >= len(b) {
				return 0, false
			}
			switch b[i] {
			case ',':
				i++
			case ']':
				return i + 1, true
			default:
				return 0, false
			}
		}
	case c == '"':
		return scanCanonicalString(b, i)
	case c == 't':
		return scanCanonicalLit(b, i, "true")
	case c == 'f':
		return scanCanonicalLit(b, i, "false")
	case c == 'n':
		return scanCanonicalLit(b, i, "null")
	case c == '-' || ('0' <= c && c <= '9'):
		return scanCanonicalNumber(b, i)
	}
	return 0, false
}

// scanCanonicalString scans an escape-free JSON string at b[i]. A
// backslash is not an error, just uncertainty — the fallback handles
// escapes. Control bytes below 0x20 are invalid unescaped either way.
func scanCanonicalString(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1, true
		case c == '\\' || c < 0x20:
			return 0, false
		}
	}
	return 0, false
}

func scanCanonicalLit(b []byte, i int, lit string) (int, bool) {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return 0, false
	}
	return i + len(lit), true
}

// scanCanonicalNumber scans exactly the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanCanonicalNumber(b []byte, i int) (int, bool) {
	if b[i] == '-' {
		if i++; i >= len(b) {
			return 0, false
		}
	}
	switch {
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, false
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	return i, true
}

// msgTypes maps the wire name of every type in AllMsgTypes onto its
// shared MsgType constant, so a decoded envelope does not allocate a
// fresh string per frame. A name missing here forces the json.Unmarshal
// fallback, which preserves the decode-anything tolerance for foreign
// or future peers.
var msgTypes = func() map[string]MsgType {
	m := make(map[string]MsgType, len(AllMsgTypes))
	for _, t := range AllMsgTypes {
		m[string(t)] = t
	}
	return m
}()

// expectLit matches lit at p[i:] and returns the index past it.
func expectLit(p []byte, i int, lit string) (int, bool) {
	if len(p)-i < len(lit) || string(p[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// scanPlainString parses a JSON string at p[i:] whose content has no
// escapes (the common case for ids and room names); the returned slice
// aliases p. Invalid UTF-8 is refused: encoding/json would decode it to
// U+FFFD, so the bytes would not be the value.
func scanPlainString(p []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(p) || p[i] != '"' {
		return nil, i, false
	}
	i++
	j := i
	ascii := true
	for j < len(p) && p[j] != '"' {
		if p[j] == '\\' || p[j] < 0x20 {
			return nil, i, false
		}
		if p[j] >= utf8.RuneSelf {
			ascii = false
		}
		j++
	}
	if j >= len(p) || (!ascii && !utf8.Valid(p[i:j])) {
		return nil, i, false
	}
	return p[i:j], j + 1, true
}

// scanInt parses an optionally-negative decimal integer at p[i:]. Like
// JSON, it refuses leading zeros ("01", "-00").
func scanInt(p []byte, i int) (v int64, next int, ok bool) {
	neg := false
	if i < len(p) && p[i] == '-' {
		neg = true
		i++
	}
	u, i, ok := scanUint(p, i)
	if !ok || u > 1<<62 {
		return 0, i, false
	}
	v = int64(u)
	if neg {
		v = -v
	}
	return v, i, true
}

// scanUint parses a decimal unsigned integer at p[i:]. Like JSON, it
// refuses leading zeros ("01", "00").
func scanUint(p []byte, i int) (v uint64, next int, ok bool) {
	if i >= len(p) || p[i] < '0' || p[i] > '9' {
		return 0, i, false
	}
	if p[i] == '0' && i+1 < len(p) && p[i+1] >= '0' && p[i+1] <= '9' {
		return 0, i, false
	}
	for i < len(p) && p[i] >= '0' && p[i] <= '9' {
		d := uint64(p[i] - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, i, false
		}
		v = v*10 + d
		i++
	}
	return v, i, true
}

// DecodeBody implements BodyDecoder.
func (q *Locate) DecodeBody(body []byte) bool {
	i, ok := expectLit(body, 0, `{"querier":`)
	if !ok {
		return false
	}
	qr, i, ok := scanPlainString(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"target":`)
	if !ok {
		return false
	}
	tg, i, ok := scanPlainString(body, i)
	if !ok || i != len(body)-1 || body[i] != '}' {
		return false
	}
	q.Querier = string(qr)
	q.Target = string(tg)
	return true
}

// DecodeBody implements BodyDecoder.
func (q *LocateAt) DecodeBody(body []byte) bool {
	i, ok := expectLit(body, 0, `{"querier":`)
	if !ok {
		return false
	}
	qr, i, ok := scanPlainString(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"target":`)
	if !ok {
		return false
	}
	tg, i, ok := scanPlainString(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"at":`)
	if !ok {
		return false
	}
	at, i, ok := scanInt(body, i)
	if !ok || i != len(body)-1 || body[i] != '}' {
		return false
	}
	q.Querier = string(qr)
	q.Target = string(tg)
	q.At = sim.Tick(at)
	return true
}

// DecodeBody implements BodyDecoder.
func (r *LocateResult) DecodeBody(body []byte) bool {
	i, ok := expectLit(body, 0, `{"room":`)
	if !ok {
		return false
	}
	room, i, ok := scanInt(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"roomName":`)
	if !ok {
		return false
	}
	name, i, ok := scanPlainString(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"at":`)
	if !ok {
		return false
	}
	at, i, ok := scanInt(body, i)
	if !ok || i != len(body)-1 || body[i] != '}' {
		return false
	}
	r.Room = graph.NodeID(room)
	r.RoomName = string(name)
	r.At = sim.Tick(at)
	return true
}

// DecodeBody implements BodyDecoder.
func (a *IngestAck) DecodeBody(body []byte) bool {
	*a = IngestAck{}
	i, ok := expectLit(body, 0, `{"acked":`)
	if !ok {
		return false
	}
	acked, i, ok := scanUint(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"applied":`)
	if !ok {
		return false
	}
	applied, i, ok := scanInt(body, i)
	if !ok {
		return false
	}
	a.Acked = acked
	a.Applied = int(applied)
	if j, ok := expectLit(body, i, `,"rejected":`); ok {
		rej, k, ok := scanInt(body, j)
		if !ok {
			return false
		}
		a.Rejected = int(rej)
		i = k
	}
	if j, ok := expectLit(body, i, `,"duplicate":true`); ok {
		a.Duplicate = true
		i = j
	}
	return i == len(body)-1 && body[i] == '}'
}

// DecodeBody implements BodyDecoder. It decodes into the receiver's
// Deltas backing array and sets every field of each element it reuses,
// so a pooled receiver needs no reset between canonical frames.
// "deltas":null cuts Deltas to length 0 and keeps its array where
// encoding/json would set nil; Validate rejects both.
func (b *PresenceBatch) DecodeBody(body []byte) bool {
	i, ok := expectLit(body, 0, `{"session":`)
	if !ok {
		return false
	}
	sess, i, ok := scanPlainString(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"seq":`)
	if !ok {
		return false
	}
	seq, i, ok := scanUint(body, i)
	if !ok {
		return false
	}
	i, ok = expectLit(body, i, `,"deltas":`)
	if !ok {
		return false
	}
	b.Deltas = b.Deltas[:0]
	if j, ok := expectLit(body, i, `null`); ok {
		i = j
	} else if j, ok := expectLit(body, i, `[]`); ok {
		i = j
	} else if i, ok = expectLit(body, i, `[`); !ok {
		return false
	} else {
		for {
			if n := len(b.Deltas); n < cap(b.Deltas) {
				b.Deltas = b.Deltas[:n+1]
			} else {
				b.Deltas = append(b.Deltas, Presence{})
			}
			if i, ok = b.Deltas[len(b.Deltas)-1].decodeAt(body, i); !ok || i >= len(body) {
				return false
			}
			if body[i] == ']' {
				i++
				break
			}
			if body[i] != ',' {
				return false
			}
			i++
		}
	}
	if i != len(body)-1 || body[i] != '}' {
		return false
	}
	b.Session = string(sess)
	b.Seq = seq
	return true
}

// decodeAt decodes the canonical encoding of one Presence at body[i:]
// into p, setting every field, and returns the index just past it.
func (p *Presence) decodeAt(body []byte, i int) (int, bool) {
	i, ok := expectLit(body, i, `{"device":`)
	if !ok {
		return i, false
	}
	dev, i, ok := scanPlainString(body, i)
	if !ok {
		return i, false
	}
	i, ok = expectLit(body, i, `,"room":`)
	if !ok {
		return i, false
	}
	room, i, ok := scanInt(body, i)
	if !ok || int64(graph.NodeID(room)) != room {
		return i, false
	}
	i, ok = expectLit(body, i, `,"at":`)
	if !ok {
		return i, false
	}
	at, i, ok := scanInt(body, i)
	if !ok {
		return i, false
	}
	if j, ok := expectLit(body, i, `,"present":true}`); ok {
		p.Present, i = true, j
	} else if j, ok := expectLit(body, i, `,"present":false}`); ok {
		p.Present, i = false, j
	} else {
		return i, false
	}
	p.Device = string(dev)
	p.Room = graph.NodeID(room)
	p.At = sim.Tick(at)
	return i, true
}
