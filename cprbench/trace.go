package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's own code. Spans nest: Parent is the index of the span
// that was open when this one started, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// AllocBytes and Mallocs are runtime.MemStats deltas (TotalAlloc,
	// Mallocs) across the call, all goroutines included.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps spans in memory; write saves them when the run ends. The
// memory statistics are read outside each span's clock, so their cost
// shows as uncovered time of the enclosing span, not as layer time.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end.
func (t *tracer) begin(layer, name string) int {
	runtime.ReadMemStats(&t.ms)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Parent: parent,
		AllocBytes: t.ms.TotalAlloc, Mallocs: t.ms.Mallocs,
	})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	t.spans[i].StartNS = time.Since(t.t0).Nanoseconds()
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	end := time.Since(t.t0).Nanoseconds()
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[i]
	s.EndNS = end
	s.AllocBytes = t.ms.TotalAlloc - s.AllocBytes
	s.Mallocs = t.ms.Mallocs - s.Mallocs
	t.stack = t.stack[:len(t.stack)-1]
}

// call runs fn inside a span.
func (t *tracer) call(layer, name string, fn func()) {
	i := t.begin(layer, name)
	fn()
	t.end(i)
}

// layerTotals sums the duration, allocated bytes and allocations of
// every span of one layer. Spans of one layer never nest.
func (t *tracer) layerTotals(layer string) (busy float64, allocBytes, mallocs uint64) {
	for _, s := range t.spans {
		if s.Layer == layer {
			busy += s.seconds()
			allocBytes += s.AllocBytes
			mallocs += s.Mallocs
		}
	}
	return busy, allocBytes, mallocs
}

// uncovered is the part of span i that none of its direct children
// covers, in seconds.
func (t *tracer) uncovered(i int) float64 {
	rest := t.spans[i].seconds()
	for _, s := range t.spans {
		if s.Parent == i {
			rest -= s.seconds()
		}
	}
	return rest
}

// write saves the spans as JSON under the checkout's build directory.
func (t *tracer) write(root, name string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".json")
	return path, os.WriteFile(path, data, 0o644)
}
