package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans the benchmark
// records around its own calls carry their parent and operation;
// spans recorded by the delegating wrappers get both at analysis time
// (see attach).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	// Key ties a client-side span to one client or subscription
	// (-1 when the caller is not tied to one).
	Key   int   `json:"key"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// N counts items handled by the call (disjointness checks in a
	// batch); Bytes counts payload bytes (storage records).
	N     int64 `json:"n,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is off, records nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// now is the tracer clock: monotonic nanoseconds since the epoch.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span id, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	if !t.active() {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(s span) {
	if !t.active() {
		return
	}
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and stops recording.
func (t *tracer) take() []span {
	if t == nil {
		return nil
	}
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// opKey carries an operation id through a request context, so the
// SP-side answer span of an HTTP request ties to the client operation
// that sent it even while two clients overlap.
type opKey struct{}

func withOp(ctx context.Context, op int64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

func opFrom(ctx context.Context) int64 {
	op, _ := ctx.Value(opKey{}).(int64)
	return op
}

// writeSpans writes the run's spans, gzipped, one JSON object a line.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// timed runs f and records it as a span under root; with tracing off it
// only runs f.
func (t *tracer) timed(name string, op, root int64, key int, f func() error) error {
	if !t.active() {
		return f()
	}
	s := t.now()
	err := f()
	t.record(span{Name: name, Parent: root, Op: op, Key: key, Start: s, End: t.now()})
	return err
}
