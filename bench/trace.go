package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary, recorded by the wrappers the
// benchmark owns (client, handler shim, upstream shim, origin). Spans of one
// client request share Req; Parent is the span that caused this one (0 for a
// root, and for prefetch work, whose cause the wrappers cannot see).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds what a traced run keeps in memory.
const maxSpans = 400_000

const traceShards = 8

// tracer keeps spans in memory while enabled; a nil or disabled tracer costs
// its callers one atomic load.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64
	kept   atomic.Int64
	shards [traceShards]struct {
		mu    sync.Mutex
		spans []span
	}
	// connReq maps a client connection's local address to the request id it
	// has in flight, so the handler shim can join its span to the client's.
	connReq sync.Map // string -> *atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// span records one finished span under a new id and returns the id (0 when
// not recording).
func (t *tracer) span(name string, parent, req uint64, start, end time.Time) uint64 {
	if !t.enabled() {
		return 0
	}
	id := t.newID()
	t.add(name, id, parent, req, start, end)
	return id
}

// add records one finished span under an id the caller drew beforehand (its
// children needed it while the span was still open).
func (t *tracer) add(name string, id, parent, req uint64, start, end time.Time) {
	if t.kept.Add(1) > maxSpans {
		return
	}
	sh := &t.shards[id%traceShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	sh.mu.Unlock()
}

func (t *tracer) count() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].spans)
		t.shards[i].mu.Unlock()
	}
	return n
}

// writeFile writes every kept span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.shards {
		for _, s := range t.shards[i].spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
