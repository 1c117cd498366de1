// Package telemetry is the observability substrate of the CPR pipeline:
// a zero-dependency hierarchical span tracer and a small Prometheus-style
// metrics registry, plus the context plumbing that carries both through
// the optimization and routing stages.
//
// The hard contract (DESIGN.md §4e): telemetry is strictly observational.
// Spans and metrics may read anything but influence nothing — results are
// byte-identical with telemetry on or off, for every worker count. The
// pipeline's only wall-clock reads are span starts and ends in this
// package, stage latencies are span durations, and neither ever reaches
// a routing result, an artifact encoding, or a cache key.
//
// A nil *Tracer, *Registry, or *Span is fully usable: every method is a
// no-op on a nil receiver, so instrumented code needs no conditionals and
// pays only a pointer test when telemetry is disabled.
//
//keypurity:observational spans and metrics never feed back into results or cache keys (§4e)
package telemetry

import (
	"sync"
	"time"
)

// Attr is one span attribute. Attributes are an append-ordered list, not
// a map, so exports are deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed region of the pipeline. Spans form a tree via
// ParentID and are created through Tracer.StartSpan or the context
// helpers. A span is owned by the goroutine that started it; End and
// SetAttr are safe to call concurrently with exports but not with each
// other.
type Span struct {
	tracer *Tracer

	// ID is the tracer-scoped span identifier (1-based, creation order).
	ID int
	// ParentID is the parent span's ID, or 0 for a root span.
	ParentID int
	// Name is the stage name (e.g. "run", "pinopt", "panel", "assign").
	Name string
	// Lane groups spans into display rows ("threads" in the Chrome trace
	// viewer). A span inherits its parent's lane unless SetLane is called;
	// per-panel solves get one lane each so concurrent panels render side
	// by side instead of interleaved.
	Lane int

	mu    sync.Mutex
	start time.Time
	end   time.Time
	attrs []Attr
	// stage, when set by StartStage, receives the duration at End.
	stage *Histogram
}

// Tracer collects spans for one traced run (a CLI invocation or one cprd
// job). It is safe for concurrent use; span identity and export order are
// deterministic (creation order ties broken by start order under the
// tracer lock), so a fixed workload with a fixed worker count exports a
// stable span tree.
type Tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	traceID string
	emitter *Emitter
	spans   []*Span
}

// New creates an empty tracer whose epoch (the zero of all exported
// timestamps) is the moment of creation, with a process-unique trace id
// for cross-node propagation.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), traceID: newTraceID()}
}

// SetEmitter makes the tracer publish span_start/span_end events for
// every span to the given emitter (nil disables). Safe on nil.
func (t *Tracer) SetEmitter(em *Emitter) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitter = em
	t.mu.Unlock()
}

// emitterRef returns the tracer's current emitter. Safe on nil.
func (t *Tracer) emitterRef() *Emitter {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	em := t.emitter
	t.mu.Unlock()
	return em
}

// StartSpan opens a span under parent (nil parent = root). On a nil
// tracer it returns nil, which is itself a valid no-op span.
func (t *Tracer) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	sp := &Span{tracer: t, Name: name, start: time.Now()}
	if parent != nil {
		sp.ParentID = parent.ID
		sp.Lane = parent.Lane
	}
	t.mu.Lock()
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	em := t.emitter
	t.mu.Unlock()
	if em != nil {
		em.Emit("span_start", map[string]any{"span": sp.ID, "name": name, "parent": sp.ParentID})
	}
	return sp
}

// End closes the span and returns its duration. Safe on nil (returns 0)
// and idempotent (the first End wins).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	first := false
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
		first = true
	}
	d := s.end.Sub(s.start)
	s.mu.Unlock()
	if first {
		s.stage.Observe(d.Seconds())
		if em := s.tracer.emitterRef(); em != nil {
			em.Emit("span_end", map[string]any{"span": s.ID, "name": s.Name, "duration_ns": d.Nanoseconds()})
		}
	}
	return d
}

// SubtreeDurations sums the durations of the ended spans below s (s
// itself excluded) by span name. A span's ID is its position in
// creation order and a child is always created after its parent, so one
// forward pass from s visits the whole subtree. Safe on nil.
func (s *Span) SubtreeDurations() map[string]time.Duration {
	if s == nil || s.tracer == nil {
		return nil
	}
	s.tracer.mu.Lock()
	later := s.tracer.spans[s.ID:]
	s.tracer.mu.Unlock()
	// inTree[i] records whether the span with ID s.ID+i is s or below it.
	inTree := make([]bool, len(later)+1)
	inTree[0] = true
	sums := make(map[string]time.Duration)
	for i, sp := range later {
		if sp.ParentID < s.ID || !inTree[sp.ParentID-s.ID] {
			continue
		}
		inTree[i+1] = true
		sp.mu.Lock()
		if !sp.end.IsZero() {
			sums[sp.Name] += sp.end.Sub(sp.start)
		}
		sp.mu.Unlock()
	}
	return sums
}

// SetAttr appends one attribute. Safe on nil. Keys repeated across calls
// are kept in order (exports show every occurrence), so callers should
// set each key once.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetLane assigns the span (and by inheritance its future children) to a
// display lane. Safe on nil.
func (s *Span) SetLane(lane int) {
	if s == nil {
		return
	}
	s.Lane = lane
}

// Attrs returns a copy of the span's attributes. Safe on nil.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Attr returns the value of the first attribute with the given key and
// whether it was present. Safe on nil.
func (s *Span) Attr(key string) (any, bool) {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// SpanRecord is the exportable snapshot of one span, with times relative
// to the tracer epoch.
type SpanRecord struct {
	ID       int           `json:"id"`
	ParentID int           `json:"parent,omitempty"`
	Name     string        `json:"name"`
	Lane     int           `json:"lane"`
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Snapshot returns every span recorded so far, in creation order, with
// times relative to the tracer epoch. Unfinished spans report the
// snapshot moment as their end. Safe on nil (returns nil).
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	epoch := t.epoch
	t.mu.Unlock()

	out := make([]SpanRecord, 0, len(spans))
	for _, sp := range spans {
		sp.mu.Lock()
		end := sp.end
		attrs := append([]Attr(nil), sp.attrs...)
		sp.mu.Unlock()
		if end.IsZero() {
			end = now
		}
		out = append(out, SpanRecord{
			ID:       sp.ID,
			ParentID: sp.ParentID,
			Name:     sp.Name,
			Lane:     sp.Lane,
			Start:    sp.start.Sub(epoch),
			Duration: end.Sub(sp.start),
			Attrs:    attrs,
		})
	}
	return out
}

// Find returns the first recorded span with the given name, or nil.
// Intended for tests and report generation, not hot paths.
func (t *Tracer) Find(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// FindAll returns every recorded span with the given name, in creation
// order.
func (t *Tracer) FindAll(name string) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Span
	for _, sp := range t.spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}
