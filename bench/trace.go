package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
)

// span is one timed interval of the traced run: what, when, under
// which span, and for which request (0 when it belongs to a whole
// batch). Times are nanoseconds on the harness's monotonic clock.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call
// site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records one span and returns its id (0 from a nil tracer).
func (t *tracer) add(name string, parent int, req uint64, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
	return id
}

// end closes a span that was added open-ended.
func (t *tracer) end(id int, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// request records the client-side view of one open-loop request: the
// whole of it from due to answer, and under it the wait for the pacer,
// the write, and everything between the write and the answer — the
// network and the server, which a client cannot tell apart.
func (t *tracer) request(seq uint64, due, writeBegin, writeEnd, read int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans,
		span{ID: id, Req: seq, Name: "req", Start: due, End: read},
		span{ID: id + 1, Parent: id, Req: seq, Name: "gen.wait", Start: due, End: writeBegin},
		span{ID: id + 2, Parent: id, Req: seq, Name: "gen.write", Start: writeBegin, End: writeEnd},
		span{ID: id + 3, Parent: id, Req: seq, Name: "net+server", Start: writeEnd, End: read},
	)
	t.mu.Unlock()
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(w).Encode(t.spans)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
