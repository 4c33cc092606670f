package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
)

func validBatch() PresenceBatch {
	return PresenceBatch{
		Session: "station-1",
		Seq:     1,
		Deltas: []Presence{
			{Device: "00:00:B0:00:00:01", Room: 3, At: 100, Present: true},
			{Device: "00:00:B0:00:00:02", Room: 3, At: 120, Present: false},
		},
	}
}

func TestPresenceBatchValidate(t *testing.T) {
	ok := validBatch()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}

	cases := map[string]func(*PresenceBatch){
		"empty session":  func(b *PresenceBatch) { b.Session = "" },
		"zero seq":       func(b *PresenceBatch) { b.Seq = 0 },
		"no deltas":      func(b *PresenceBatch) { b.Deltas = nil },
		"oversized":      func(b *PresenceBatch) { b.Deltas = make([]Presence, MaxBatchDeltas+1) },
		"empty + no seq": func(b *PresenceBatch) { b.Seq = 0; b.Deltas = nil },
	}
	for name, mutate := range cases {
		b := validBatch()
		mutate(&b)
		err := b.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
			continue
		}
		// Invalid frames must classify as malformed so the server
		// answers a bad-request MsgError instead of closing silently.
		if !strings.Contains(err.Error(), ErrMalformed.Error()) {
			t.Errorf("%s: error %q does not wrap ErrMalformed", name, err)
		}
	}
}

func TestPresenceBatchFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	codec := NewFrameCodec(struct {
		io.Reader
		io.Writer
	}{&buf, &buf})

	env, err := MarshalBody(MsgPresenceBatch, 42, validBatch())
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Send(env); err != nil {
		t.Fatal(err)
	}
	got, err := codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != MsgPresenceBatch || got.Seq != 42 {
		t.Fatalf("roundtrip envelope = %+v", got)
	}
	var b PresenceBatch
	if err := UnmarshalBody(got, &b); err != nil {
		t.Fatal(err)
	}
	want := validBatch()
	if b.Session != want.Session || b.Seq != want.Seq || len(b.Deltas) != len(want.Deltas) {
		t.Fatalf("roundtrip batch = %+v, want %+v", b, want)
	}
	for i := range b.Deltas {
		if b.Deltas[i] != want.Deltas[i] {
			t.Fatalf("delta %d = %+v, want %+v", i, b.Deltas[i], want.Deltas[i])
		}
	}
}

// TestProtocolDocIngestHexExample: the worked hex example of
// docs/PROTOCOL.md section 8.3 must be the codec's actual output,
// byte for byte — if the framing or the JSON encoding of the ingest
// messages changes, the spec must change with it.
func TestProtocolDocIngestHexExample(t *testing.T) {
	raw, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading protocol spec: %v", err)
	}
	doc := string(raw)

	frameHex := func(env Envelope) string {
		var buf bytes.Buffer
		c := NewFrameCodec(struct {
			io.Reader
			io.Writer
		}{&buf, &buf})
		if err := c.Send(env); err != nil {
			t.Fatal(err)
		}
		return hex.Dump(buf.Bytes())
	}

	req, err := MarshalBody(MsgPresenceBatch, 9, PresenceBatch{
		Session: "st-6",
		Seq:     4,
		Deltas: []Presence{
			{Device: "00:00:B0:00:00:01", Room: 6, At: 240000, Present: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := MarshalBody(MsgIngestAck, 9, IngestAck{Acked: 4, Applied: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, dump := range map[string]string{
		"presence.batch request": frameHex(req),
		"ingest.ack response":    frameHex(resp),
	} {
		for _, line := range strings.Split(strings.TrimRight(dump, "\n"), "\n") {
			if !strings.Contains(doc, line) {
				t.Errorf("docs/PROTOCOL.md section 8.3 is missing the %s hex line:\n%s", name, line)
			}
		}
	}
}

// FuzzPresenceBatchDecode throws arbitrary bytes at the batch body
// decoders, and must hold two properties. Anything encoding/json
// accepts and Validate passes survives a marshal/unmarshal roundtrip
// unchanged. And it is the differential fuzzer of the canonical body
// decoders, PresenceBatch.DecodeBody first: whenever a DecodeBody
// accepts a body, encoding/json must accept it too and decode the same
// value. Each decoder writes into a dirty receiver — for the batch, more
// junk deltas than the input holds — so a field a reused element keeps
// from an earlier frame shows as a difference. A new DecodeBody joins
// the decoders table.
func FuzzPresenceBatchDecode(f *testing.F) {
	seed, err := json.Marshal(validBatch())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"session":"s","seq":1,"deltas":[]}`))
	f.Add([]byte(`{"session":"s","seq":18446744073709551615,"deltas":[{}]}`))
	f.Add([]byte(`{"seq":-1}`))
	f.Add(PresenceBatch{Session: "sé", Seq: 1 << 63, Deltas: []Presence{
		{Device: "00:00:B0:00:00:01", Room: -1, At: -9, Present: true}, {}, {Device: "d", Room: 1 << 40, At: 1 << 62},
	}}.AppendTo(nil))
	for _, s := range []string{
		`{"session":"s\u0041","seq":1,"deltas":[{"device":"d","room":1,"at":2,"present":true}]}`,
		`{"session":"s","seq":01,"deltas":[{"device":"d","room":1,"at":2,"present":true}]}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":00,"at":-01,"present":true}]}`,
		"{\"session\":\"s\xff\",\"seq\":1,\"deltas\":[{\"device\":\"d\xc3(\",\"room\":1,\"at\":2,\"present\":false}]}",
		`{"session":"s","seq":1,"deltas":null}`,
		`{"session":"s","seq":1,"deltas":[null]}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":9223372036854775808,"at":2,"present":true}]}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":4611686018427387904,"at":-4611686018427387904,"present":true}]}`,
		`{"session":"a","session":"b","seq":1,"deltas":[{"device":"d","room":1,"at":2,"present":true}]}`,
		`{"Session":"s","SEQ":1,"deltas":[{"Device":"d","room":1,"at":2,"present":true}]}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":1,"at":2}]}`,
		`{"session":"s","seq":1,"deltas":[{"device":"d","room":1,"at":2,"present":true},]}`,
		`{"querier":"a\u00e9","target":"b"}`,
		"{\"querier\":\"a\xff\",\"target\":\"b\"}",
		`{"querier":"a","target":"b","at":0123}`,
		`{"room":6,"roomName":"Lab 6","at":42}`,
		`{"acked":3,"applied":2,"rejected":1,"duplicate":true}`,
	} {
		f.Add([]byte(s))
	}
	decoders := []func(junk int) (dirty, fresh BodyDecoder){
		func(junk int) (BodyDecoder, BodyDecoder) {
			d := &PresenceBatch{Session: "junk", Seq: 99}
			for range junk {
				d.Deltas = append(d.Deltas, Presence{Device: "junk", Room: 7, At: 7, Present: true})
			}
			return d, &PresenceBatch{}
		},
		func(int) (BodyDecoder, BodyDecoder) { return &Locate{"junk", "junk"}, &Locate{} },
		func(int) (BodyDecoder, BodyDecoder) { return &LocateAt{"junk", "junk", 7}, &LocateAt{} },
		func(int) (BodyDecoder, BodyDecoder) { return &LocateResult{7, "junk", 7}, &LocateResult{} },
		func(int) (BodyDecoder, BodyDecoder) { return &IngestAck{7, 7, 7, true}, &IngestAck{} },
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var b PresenceBatch
		if json.Unmarshal(raw, &b) == nil && b.Validate() == nil {
			re, err := json.Marshal(b)
			if err != nil {
				t.Fatalf("marshal of accepted batch failed: %v", err)
			}
			var b2 PresenceBatch
			if err := json.Unmarshal(re, &b2); err != nil {
				t.Fatalf("re-unmarshal failed: %v", err)
			}
			if b2.Session != b.Session || b2.Seq != b.Seq || len(b2.Deltas) != len(b.Deltas) {
				t.Fatalf("roundtrip changed batch: %+v vs %+v", b, b2)
			}
			if err := b2.Validate(); err != nil {
				t.Fatalf("roundtrip broke validity: %v", err)
			}
		}
		junk := bytes.Count(raw, []byte("{")) + 1
		for _, mk := range decoders {
			got, want := mk(junk)
			checkDecodesLikeJSON(t, got, want, raw)
		}
	})
}

// FuzzFrameCodecRecv feeds arbitrary byte streams to the reader: every
// outcome must be a decoded envelope or a classified error (ErrMalformed
// or a transport error) — never a panic or a huge allocation.
func FuzzFrameCodecRecv(f *testing.F) {
	var buf bytes.Buffer
	c := NewFrameCodec(struct {
		io.Reader
		io.Writer
	}{&buf, &buf})
	env, _ := MarshalBody(MsgPresenceBatch, 7, validBatch())
	if err := c.Send(env); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{FrameMagic, FrameVersion, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{FrameMagic, 0x00, 0, 0, 0, 0})
	f.Add([]byte("{\"type\":\"presence.batch\"}\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		codec := NewFrameCodec(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(raw), io.Discard})
		for i := 0; i < 4; i++ {
			if _, err := codec.Recv(); err != nil {
				break
			}
		}
	})
}
