package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
)

// coalesceOp is one step of a differential byte-stream run.
type coalesceOp struct {
	kind    int // 0 Send, 1 SendPayload, 2 sendAppendNoFlush, 3 Flush
	env     Envelope
	payload []byte
	body    Appender
	seq     uint64
}

// coalescePlan builds a deterministic interleaving of envelope sends,
// raw payload sends, append-encoded sends and explicit flushes. Payload
// sizes range past any write-buffer size used by the tests so the
// coalesced run also exercises bufio's self-flush spill.
func coalescePlan(seed int64, n int) []coalesceOp {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]coalesceOp, 0, n)
	for i := 0; i < n; i++ {
		op := coalesceOp{kind: rng.Intn(4), seq: uint64(i + 1)}
		switch op.kind {
		case 0:
			op.env = Envelope{
				Type: MsgLocate,
				Seq:  op.seq,
				Body: []byte(fmt.Sprintf(`{"querier":"alice","target":"u%d"}`, i)),
			}
		case 1:
			pad := bytes.Repeat([]byte{'x'}, rng.Intn(200))
			op.payload = AppendEnvelope(nil, MsgEvent, op.seq, rawPad(pad))
		case 2:
			op.body = Locate{Querier: "alice", Target: fmt.Sprintf("user-%d", rng.Intn(1000))}
		}
		plan = append(plan, op)
	}
	return plan
}

// rawPad is a throwaway Appender whose body is a JSON string of pad.
type rawPad []byte

func (p rawPad) AppendTo(buf []byte) []byte {
	return appendJSONString(buf, string(p))
}

// runCoalescePlan executes plan against c. In coalesced mode payload
// and append sends stage without flushing, exactly as the server's
// writer loop and the Client drive them; in eager mode each is flushed
// on its own. Envelope Sends and explicit Flush ops behave identically
// in both modes.
func runCoalescePlan(t *testing.T, c *FrameCodec, plan []coalesceOp, coalesce bool) {
	t.Helper()
	for i, op := range plan {
		var err error
		switch op.kind {
		case 0:
			err = c.Send(op.env)
		case 1:
			if coalesce {
				err = c.SendPayloadNoFlush(op.payload)
			} else {
				err = c.SendPayload(op.payload)
			}
		case 2:
			err = c.sendAppendNoFlush(MsgLocate, op.seq, op.body)
			if err == nil && !coalesce {
				err = c.Flush()
			}
		case 3:
			err = c.Flush()
		}
		if err != nil {
			t.Fatalf("op %d (kind %d, coalesce=%v): %v", i, op.kind, coalesce, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("final flush (coalesce=%v): %v", coalesce, err)
	}
}

// TestCoalescedStreamByteIdentical is the differential test for flush
// coalescing: an interleaved sequence of Send / SendPayload /
// append-encoded operations must put byte-for-byte the same stream on the
// wire whether every send flushes or the sends stage and flush lazily.
// Coalescing may only change TCP segmentation, never content — see
// docs/PROTOCOL.md.
func TestCoalescedStreamByteIdentical(t *testing.T) {
	// 64 B forces mid-plan self-flushes; 64 KiB holds everything staged
	// until the explicit flushes.
	for _, wbuf := range []int{64, 64 << 10} {
		t.Run(fmt.Sprintf("v2/wbuf=%d", wbuf), func(t *testing.T) {
			plan := coalescePlan(7, 300)
			var eager, lazy bytes.Buffer
			runCoalescePlan(t, NewFrameCodecBuffered(&eager, wbuf), plan, false)
			runCoalescePlan(t, NewFrameCodecBuffered(&lazy, wbuf), plan, true)
			a, b := eager.Bytes(), lazy.Bytes()
			if bytes.Equal(a, b) {
				return
			}
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			t.Fatalf("streams diverge at byte %d: eager %d bytes, lazy %d bytes\neager[%d:]: %.80q\nlazy[%d:]:  %.80q",
				i, len(a), len(b), i, a[i:], i, b[i:])
		})
	}
}

// TestClientGroupCommitConcurrent hammers the Client's group-commit
// staging from many goroutines over one connection: every request must
// still arrive intact (frames stay atomic under concurrent staging) and
// every call must complete with its own response.
func TestClientGroupCommitConcurrent(t *testing.T) {
	cliConn, srvConn := net.Pipe()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		tr := NewFrameCodec(srvConn)
		for {
			env, err := tr.Recv()
			if err != nil {
				return
			}
			res := Envelope{Type: MsgLocateResult, Seq: env.Seq, Body: []byte(`{"room":1,"roomName":"r","at":0}`)}
			if err := tr.Send(res); err != nil {
				return
			}
		}
	}()

	client := NewClient(NewFrameCodec(cliConn))
	const workers, calls = 8, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var res LocateResult
				q := Locate{Querier: "alice", Target: fmt.Sprintf("w%d-c%d", w, i)}
				if err := client.Call(MsgLocate, q, &res); err != nil {
					errs <- fmt.Errorf("worker %d call %d: %w", w, i, err)
					return
				}
				if res.Room != 1 {
					errs <- fmt.Errorf("worker %d call %d: room = %d, want 1", w, i, res.Room)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	client.Close()
	srvConn.Close()
	<-serveDone
}
