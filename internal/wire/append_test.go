// Differential tests for the zero-allocation encode/decode path: every
// AppendTo encoder, the envelope appenders and the fast decoders are
// checked byte-for-byte against encoding/json — first over a curated
// table (including every type in AllMsgTypes, extending the
// PROTOCOL.md hex-example conformance pattern to the whole registry),
// then by fuzzing. Any divergence is a wire-compatibility bug: frames
// must be indistinguishable from the json.Marshal form.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"

	"bips/internal/graph"
	"bips/internal/sim"
)

// trickyStrings exercises every escaping branch of appendJSONString.
var trickyStrings = []string{
	"",
	"alice",
	`quote " backslash \ done`,
	"newline\ntab\tret\rnull\x00bell\x07",
	"html <b>&amp;</b> escaping",
	"unicode: café 日本語 \U0001f600",
	"line sep \u2028 para sep \u2029 end",
	"invalid utf8: \xff\xfe mid \xc3(",
	"del \x7f kept",
	"ends with control \x1f",
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	return raw
}

func TestAppendJSONStringMatchesJSON(t *testing.T) {
	for _, s := range trickyStrings {
		got := appendJSONString(nil, s)
		want := mustJSON(t, s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q)\n got %s\nwant %s", s, got, want)
		}
	}
}

// appenderSamples returns Appender bodies covering every implementation
// and its omitempty branches.
func appenderSamples() []Appender {
	return []Appender{
		EmptyBody{},
		Locate{},
		Locate{Querier: "alice", Target: "bob"},
		Locate{Querier: trickyStrings[4], Target: trickyStrings[6]},
		LocateAt{Querier: "alice", Target: "bob", At: -7},
		LocateAt{Querier: "a", Target: "b", At: 1 << 40},
		LocateResult{},
		LocateResult{Room: 6, RoomName: "Lab <6>", At: 42},
		LocateResult{Room: -1, RoomName: trickyStrings[7], At: 9},
		Presence{},
		Presence{Device: "00:11:22:33:44:55", Room: 3, At: 17, Present: true},
		Presence{Device: "x", Room: -2, At: -1, Present: false},
		PresenceBatch{},
		PresenceBatch{Session: "s1", Seq: 9, Deltas: []Presence{}},
		PresenceBatch{Session: "s&<>", Seq: 1 << 60, Deltas: []Presence{
			{Device: "00:11:22:33:44:55", Room: 1, At: 2, Present: true},
			{Device: "AA:BB:CC:DD:EE:FF", Room: 2, At: 3, Present: false},
		}},
		IngestHello{},
		IngestHello{Session: "s", Station: "ws-1", Room: 4},
		IngestAck{},
		IngestAck{Acked: 12, Applied: 64},
		IngestAck{Acked: 12, Applied: 0, Rejected: 3},
		IngestAck{Acked: 12, Applied: 1, Duplicate: true},
		IngestAck{Acked: ^uint64(0), Applied: 2, Rejected: 1, Duplicate: true},
		Event{},
		Event{Sub: "s1", Kind: EventEnter, Device: "00:11:22:33:44:55", User: "bob", Room: 6, RoomName: "Lab", At: 5},
		Event{Sub: "s2", Kind: EventOccupancyRise, Room: 2, At: 9, Occupancy: 4},
		Event{Sub: "s3", Kind: EventLeave, User: trickyStrings[5], Room: 0, At: -3},
		Error{},
		Error{Code: CodeDenied, Message: "alice may not locate <bob> & co"},
	}
}

func TestAppendersMatchJSON(t *testing.T) {
	for _, body := range appenderSamples() {
		got := body.AppendTo(nil)
		want := mustJSON(t, body)
		if !bytes.Equal(got, want) {
			t.Errorf("%T.AppendTo\n got %s\nwant %s", body, got, want)
		}
	}
}

// TestAppendEnvelopeAllTypes checks the envelope appenders against
// json.Marshal for every message type of the protocol registry, with
// and without a body.
func TestAppendEnvelopeAllTypes(t *testing.T) {
	for i, mt := range AllMsgTypes {
		seq := uint64(i * 7)
		for _, body := range []json.RawMessage{nil, json.RawMessage(`{"x":1}`)} {
			env := Envelope{Type: mt, Seq: seq, Body: body}
			want := mustJSON(t, env)
			got := AppendEnvelopeRaw(nil, env)
			if !bytes.Equal(got, want) {
				t.Errorf("AppendEnvelopeRaw(%s)\n got %s\nwant %s", mt, got, want)
			}
			// The canonical form must round-trip through the fast
			// decoder to an identical envelope.
			dec, err := DecodeEnvelope(got)
			if err != nil {
				t.Errorf("DecodeEnvelope(%s): %v", got, err)
			} else if dec.Type != mt || dec.Seq != seq || !bytes.Equal(dec.Body, body) {
				t.Errorf("DecodeEnvelope(%s) = %+v, want type=%s seq=%d body=%s", got, dec, mt, seq, body)
			}
		}
		// Every listed type is interned: its bodiless envelope decodes
		// without allocating (a name missing from the intern table falls
		// back to json.Unmarshal, which allocates).
		bare := AppendEnvelopeRaw(nil, Envelope{Type: mt, Seq: seq})
		if allocs := testing.AllocsPerRun(10, func() { _, _ = DecodeEnvelope(bare) }); allocs != 0 {
			t.Errorf("DecodeEnvelope(%s) allocates %.0f objects, want 0", bare, allocs)
		}
	}
}

func TestAppendEnvelopeTypedBody(t *testing.T) {
	for _, body := range appenderSamples() {
		raw := mustJSON(t, body)
		env := Envelope{Type: MsgLocate, Seq: 3, Body: raw}
		want := mustJSON(t, env)
		got := AppendEnvelope(nil, MsgLocate, 3, body)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendEnvelope(%T)\n got %s\nwant %s", body, got, want)
		}
	}
	// nil body == empty Body (omitempty).
	want := mustJSON(t, Envelope{Type: MsgRooms, Seq: 5})
	if got := AppendEnvelope(nil, MsgRooms, 5, nil); !bytes.Equal(got, want) {
		t.Errorf("AppendEnvelope(nil body)\n got %s\nwant %s", got, want)
	}
}

// TestSendAppendFramesIdentical proves the in-place append send path
// puts exactly the same bytes on the wire as the marshaling Send.
func TestSendAppendFramesIdentical(t *testing.T) {
	var legacy, fast bytes.Buffer
	legacyC, fastC := NewFrameCodec(rwOnly{&legacy}), NewFrameCodec(rwOnly{&fast})
	for i, body := range appenderSamples() {
		env, err := MarshalBody(MsgEvent, uint64(i), body)
		if err != nil {
			t.Fatal(err)
		}
		if err := legacyC.Send(env); err != nil {
			t.Fatal(err)
		}
		if err := fastC.sendAppendNoFlush(MsgEvent, uint64(i), body); err != nil {
			t.Fatal(err)
		}
		if err := fastC.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(legacy.Bytes(), fast.Bytes()) {
		t.Error("append-encoded stream differs from Send stream")
	}
}

// rwOnly hides any other methods of the underlying buffer.
type rwOnly struct{ rw io.ReadWriter }

func (r rwOnly) Read(p []byte) (int, error)  { return r.rw.Read(p) }
func (r rwOnly) Write(p []byte) (int, error) { return r.rw.Write(p) }

// TestDecodeEnvelopeForeignForms: non-canonical but valid JSON must
// fall back to full parsing, never error, and decode identically to
// json.Unmarshal.
func TestDecodeEnvelopeForeignForms(t *testing.T) {
	payloads := []string{
		`{"type":"locate","seq":1,"body":{"querier":"a","target":"b"}}`,
		`{ "type":"locate", "seq":1 }`,
		`{"seq":2,"type":"locate"}`,
		`{"type":"locate","seq":3,"body":{"querier":"a"},"extra":true}`,
		`{"type":"locate","seq":4}`,
		`{"type":"someday.new.type","seq":5,"body":[1,2,3]}`,
		`{"type":"locate","seq":18446744073709551615}`,
		`{"type":"ok","seq":6,"body":null}`,
		"{\"type\":\"ok\",\"seq\":7}\n",
		"{\"type\":\"ok\",\"seq\":8}\r\n",
	}
	for _, p := range payloads {
		var want Envelope
		if err := json.Unmarshal([]byte(p), &want); err != nil {
			t.Fatalf("bad test payload %q: %v", p, err)
		}
		got, err := DecodeEnvelope([]byte(p))
		if err != nil {
			t.Errorf("DecodeEnvelope(%q): %v", p, err)
			continue
		}
		if got.Type != want.Type || got.Seq != want.Seq || !jsonBodyEqual(got.Body, want.Body) {
			t.Errorf("DecodeEnvelope(%q) = %+v, want %+v", p, got, want)
		}
	}
	for _, bad := range []string{"", "nonsense", `{"type":`, "\xb2\x02"} {
		if _, err := DecodeEnvelope([]byte(bad)); err == nil {
			t.Errorf("DecodeEnvelope(%q): expected error", bad)
		}
	}
}

func jsonBodyEqual(a, b json.RawMessage) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == 0 && len(b) == 0
	}
	var av, bv any
	if json.Unmarshal(a, &av) != nil || json.Unmarshal(b, &bv) != nil {
		return false
	}
	return reflect.DeepEqual(av, bv)
}

// TestDecodeBodyFast checks every BodyDecoder against the canonical
// encoding (must succeed and match json.Unmarshal) and against
// non-canonical input (must report false, forcing the fallback).
func TestDecodeBodyFast(t *testing.T) {
	check := func(body Appender, dst, want BodyDecoder) {
		t.Helper()
		raw := mustJSON(t, body)
		if !dst.DecodeBody(raw) {
			t.Errorf("%T.DecodeBody(%s): not accepted", dst, raw)
			return
		}
		if err := json.Unmarshal(raw, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst, want) {
			t.Errorf("%T.DecodeBody(%s) = %+v, want %+v", dst, raw, dst, want)
		}
	}
	check(Locate{Querier: "alice", Target: "bob"}, &Locate{}, &Locate{})
	check(Locate{}, &Locate{}, &Locate{})
	check(LocateAt{Querier: "a", Target: "b", At: -9}, &LocateAt{}, &LocateAt{})
	check(LocateResult{Room: 6, RoomName: "Lab 6", At: 42}, &LocateResult{}, &LocateResult{})
	check(IngestAck{Acked: 3, Applied: 2}, &IngestAck{}, &IngestAck{})
	check(IngestAck{Acked: 3, Applied: 2, Rejected: 1, Duplicate: true}, &IngestAck{}, &IngestAck{})
	check(validBatch(), &PresenceBatch{}, &PresenceBatch{})
	check(PresenceBatch{Session: "s", Seq: 2}, &PresenceBatch{}, &PresenceBatch{})
	check(PresenceBatch{Session: "é", Seq: 18446744073709551615, Deltas: []Presence{{Device: "d", Room: -1, At: -9}}},
		&PresenceBatch{}, &PresenceBatch{})
	// A dirty receiver: every field of a reused element is overwritten,
	// and the elements beyond the frame are cut off.
	junk := make([]Presence, 5)
	for i := range junk {
		junk[i] = Presence{Device: "junk", Room: 7, At: 7, Present: true}
	}
	check(validBatch(), &PresenceBatch{Session: "junk", Seq: 9, Deltas: junk}, &PresenceBatch{})

	// Escaped strings are valid JSON but not the escape-free canonical
	// fast path; the decoder must hand them to the fallback, and the
	// fallback must agree with the original value.
	esc := Locate{Querier: "ali\tce", Target: "b<b>"}
	raw := mustJSON(t, esc)
	var dec Locate
	if dec.DecodeBody(raw) {
		if !reflect.DeepEqual(dec, esc) {
			t.Errorf("DecodeBody accepted %s but decoded %+v", raw, dec)
		}
	}
	if err := json.Unmarshal(raw, &dec); err != nil || dec != esc {
		t.Errorf("fallback: %+v err %v", dec, err)
	}

	for _, bad := range []string{
		``, `{}`, `null`, `{"target":"b","querier":"a"}`,
		`{"querier":"a","target":"b","x":1}`, `{"querier":"a","target":"b"`,
	} {
		var q Locate
		if q.DecodeBody([]byte(bad)) {
			t.Errorf("Locate.DecodeBody(%q): accepted non-canonical input", bad)
		}
	}
	// The shared scanners once accepted bodies that encoding/json reads
	// as another value (invalid UTF-8 becomes U+FFFD) or not at all
	// (leading zeros). A decoder may leave them to the fallback; it must
	// never decode them differently.
	for _, c := range []struct {
		body      string
		got, want BodyDecoder
	}{
		{"{\"querier\":\"a\xff\",\"target\":\"b\"}", &Locate{}, &Locate{}},
		{"{\"querier\":\"a\",\"target\":\"\xed\xa0\x80\"}", &Locate{}, &Locate{}},
		{"{\"room\":6,\"roomName\":\"Lab \xc3(\",\"at\":42}", &LocateResult{}, &LocateResult{}},
		{`{"querier":"a","target":"b","at":0123}`, &LocateAt{}, &LocateAt{}},
		{`{"querier":"a","target":"b","at":-00}`, &LocateAt{}, &LocateAt{}},
		{`{"room":06,"roomName":"Lab 6","at":42}`, &LocateResult{}, &LocateResult{}},
		{`{"acked":01,"applied":1}`, &IngestAck{}, &IngestAck{}},
		{`{"acked":1,"applied":1,"rejected":00}`, &IngestAck{}, &IngestAck{}},
	} {
		checkDecodesLikeJSON(t, c.got, c.want, []byte(c.body))
	}

	for _, bad := range []string{
		``, `{}`, `null`,
		` {"session":"s","seq":1,"deltas":[]}`,
		`{"session": "s","seq":1,"deltas":[]}`,
		`{"seq":1,"session":"s","deltas":[]}`,
		`{"session":"s\u0041","seq":1,"deltas":[]}`,
		`{"session":"s","seq":1,"deltas":[],"x":1}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":1,"at":2}]}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":1,"at":2,"present":true},]}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":1.5,"at":2,"present":true}]}`,
		`{"session":"s","seq":1,"deltas":[null]}`,
		`{"session":"s","seq":1,"deltas":[`,
	} {
		var b PresenceBatch
		if b.DecodeBody([]byte(bad)) {
			t.Errorf("PresenceBatch.DecodeBody(%q): accepted non-canonical input", bad)
		}
	}
}

// checkDecodesLikeJSON fails t when got.DecodeBody accepts raw but
// encoding/json, decoding raw into the fresh want, rejects it or reads
// another value. Empty and nil Deltas count as equal: DecodeBody keeps
// the receiver's array for "deltas":null.
func checkDecodesLikeJSON(t testing.TB, got, want BodyDecoder, raw []byte) {
	t.Helper()
	if !got.DecodeBody(raw) {
		return
	}
	if err := json.Unmarshal(raw, want); err != nil {
		t.Errorf("%T.DecodeBody accepted %q, which encoding/json rejects: %v", got, raw, err)
		return
	}
	for _, v := range []BodyDecoder{got, want} {
		if b, ok := v.(*PresenceBatch); ok && len(b.Deltas) == 0 {
			b.Deltas = nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%T.DecodeBody(%q) = %#v, encoding/json = %#v", got, raw, got, want)
	}
}

// TestCallFastPathEndToEnd runs typed fast-path calls through a real
// client/server pair of codecs and checks the decoded values, for both
// pointer (zero-boxing) and value bodies.
func TestCallFastPathEndToEnd(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	defer srvConn.Close()
	client := NewClient(NewFrameCodec(cliConn))
	defer client.Close()

	go func() {
		tr := NewFrameCodec(srvConn)
		var buf []byte
		for {
			env, b, err := tr.RecvBuf(buf)
			buf = b
			if err != nil {
				return
			}
			var q Locate
			if !q.DecodeBody(env.Body) {
				if err := UnmarshalBody(env, &q); err != nil {
					return
				}
			}
			res := LocateResult{Room: 6, RoomName: "Lab " + q.Target, At: 42}
			out := AppendEnvelope(nil, MsgLocateResult, env.Seq, &res)
			if err := tr.SendPayload(out); err != nil {
				return
			}
		}
	}()

	req := Locate{Querier: "alice", Target: "bob"}
	var res LocateResult
	if err := client.Call(MsgLocate, &req, &res); err != nil {
		t.Fatal(err)
	}
	if res.Room != 6 || res.RoomName != "Lab bob" || res.At != 42 {
		t.Fatalf("fast-path result: %+v", res)
	}
	res = LocateResult{}
	if err := client.Call(MsgLocate, Locate{Querier: "alice", Target: "eve"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.RoomName != "Lab eve" {
		t.Fatalf("value-body result: %+v", res)
	}
}

// FuzzAppendJSONString fuzzes the escaper against encoding/json.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range trickyStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		if !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q)\n got %s\nwant %s", s, got, want)
		}
	})
}

// FuzzAppendersMatchJSON fuzzes the hot-type encoders end to end: the
// appended bytes must equal json.Marshal, and the fast body decoders
// must round-trip them.
func FuzzAppendersMatchJSON(f *testing.F) {
	f.Add("alice", "bob", int64(42), "Lab 6", uint64(7), true)
	f.Add("", "", int64(-1), "<&>", uint64(0), false)
	f.Fuzz(func(t *testing.T, a, b string, n int64, name string, u uint64, flag bool) {
		at, room := sim.Tick(n), graph.NodeID(int(n%4096))
		bodies := []Appender{
			Locate{Querier: a, Target: b},
			LocateAt{Querier: a, Target: b, At: at},
			LocateResult{Room: room, RoomName: name, At: at},
			Presence{Device: a, Room: room, At: at, Present: flag},
			IngestAck{Acked: u, Applied: int(n % 1000), Rejected: int(u % 3), Duplicate: flag},
			Event{Sub: a, Kind: b, Device: name, Room: room, At: at, Occupancy: int(u % 5)},
			Error{Code: a, Message: b},
			PresenceBatch{Session: a, Seq: u, Deltas: []Presence{{Device: b, Room: room, At: at, Present: flag}}},
		}
		for _, body := range bodies {
			got := body.AppendTo(nil)
			want, err := json.Marshal(body)
			if err != nil {
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%T.AppendTo\n got %s\nwant %s", body, got, want)
			}
			env := AppendEnvelope(nil, MsgEvent, u, body)
			wantEnv, err := json.Marshal(Envelope{Type: MsgEvent, Seq: u, Body: want})
			if err != nil {
				continue
			}
			if !bytes.Equal(env, wantEnv) {
				t.Errorf("AppendEnvelope(%T)\n got %s\nwant %s", body, env, wantEnv)
			}
		}
		// Fast decode of the canonical Locate encoding must agree with
		// encoding/json whenever it claims success.
		raw := Locate{Querier: a, Target: b}.AppendTo(nil)
		var fast, slow Locate
		if fast.DecodeBody(raw) {
			if err := json.Unmarshal(raw, &slow); err != nil || fast != slow {
				t.Errorf("DecodeBody(%s) = %+v, json = %+v (err %v)", raw, fast, slow, err)
			}
		}
	})
}

// TestCanonicalJSONValueSound: a true from the canonical scanner must
// imply json.Valid — it may only ever shortcut the yes answer, never
// widen it — and it must actually fire (return true) for the dense
// encodings this package emits, or the fast path silently regresses to
// the json.Valid state machine.
func TestCanonicalJSONValueSound(t *testing.T) {
	certain := []string{
		`{}`, `[]`, `"x"`, `0`, `-1`, `12.5`, `1e9`, `-0.5E+3`, `true`, `false`, `null`,
		`{"querier":"alice","target":"bob"}`,
		`{"room":6,"roomName":"Lab 6","at":42}`,
		`[1,2,3]`, `{"a":[{"b":null}],"c":""}`,
	}
	for _, s := range certain {
		if !canonicalJSONValue([]byte(s)) {
			t.Errorf("canonicalJSONValue(%q) = false, want certain yes", s)
		}
	}
	uncertain := []string{
		// Invalid JSON: must never be certainly canonical.
		``, `{`, `}`, `{]`, `{"a"}`, `{"a":}`, `{"a":1,}`, `[1,]`, `[,1]`,
		`01`, `1.`, `.5`, `1e`, `1e+`, `--1`, `+1`, `tru`, `nul`, `"unterminated`,
		`"ctl` + "\x01" + `"`, `{"a":1}}`, `{"a":1}{"b":2}`, `1 2`, `nonsense`,
		// Valid but foreign JSON: false is correct (fallback decides).
		` {}`, `{ "a":1}`, `{"a": 1}`, `"esc\n"`, "[1,\n2]",
	}
	for _, s := range uncertain {
		if canonicalJSONValue([]byte(s)) && !json.Valid([]byte(s)) {
			t.Errorf("canonicalJSONValue(%q) = true on input json.Valid rejects", s)
		}
		if canonicalJSONValue([]byte(s)) {
			t.Errorf("canonicalJSONValue(%q) = true, want uncertain", s)
		}
	}
}

// FuzzDecodeEnvelope feeds arbitrary payloads to the fast decoder: it
// must accept exactly what json.Unmarshal accepts (modulo body
// normalization) and agree on the decoded envelope.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte(`{"type":"locate","seq":1,"body":{"querier":"a","target":"b"}}`))
	f.Add([]byte(`{"type":"ok","seq":0}`))
	f.Add([]byte(`{"type":"event","seq":18446744073709551615,"body":[]}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want Envelope
		werr := json.Unmarshal(payload, &want)
		got, gerr := DecodeEnvelope(payload)
		if werr != nil {
			if gerr == nil {
				t.Errorf("DecodeEnvelope(%q) accepted what json rejects", payload)
			}
			return
		}
		if gerr != nil {
			t.Errorf("DecodeEnvelope(%q) rejected valid envelope: %v", payload, gerr)
			return
		}
		if got.Type != want.Type || got.Seq != want.Seq || !jsonBodyEqual(got.Body, want.Body) {
			t.Errorf("DecodeEnvelope(%q) = %+v, want %+v", payload, got, want)
		}
	})
}

func ExampleAppendEnvelope() {
	res := LocateResult{Room: 6, RoomName: "Lab 6", At: 42}
	fmt.Printf("%s\n", AppendEnvelope(nil, MsgLocateResult, 9, &res))
	// Output: {"type":"locate.result","seq":9,"body":{"room":6,"roomName":"Lab 6","at":42}}
}
