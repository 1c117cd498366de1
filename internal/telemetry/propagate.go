package telemetry

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Cross-node trace propagation (DESIGN.md §4j): when a job's block fetch
// goes to a peer daemon, the requester sends its SpanContext in the
// TraceHeader; the serving node records the foreign trace id in its
// flight recorder and answers with a SpanHeader describing the work it
// did, which the requester adopts as a child span. The result is one
// stitched trace — a shared trace id with parent links across the peer
// hop — assembled without any clock-synchronization assumption: only the
// remote *duration* crosses the wire, anchored on the requester's clock.

// TraceHeader carries the requester's serialized SpanContext
// ("<trace-id>/<span-id>") on outbound peer block fetches.
const TraceHeader = "X-CPR-Trace"

// SpanHeader carries the serving node's RemoteSpan (JSON) back to the
// requester on a successful block response.
const SpanHeader = "X-CPR-Span"

// SpanContext is the serializable identity of one span within one trace:
// everything a remote node needs to attach its work to the caller's
// trace.
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  int    `json:"span_id"`
}

// Valid reports whether the context identifies a real span.
func (c SpanContext) Valid() bool {
	return c.TraceID != "" && c.SpanID > 0
}

// String encodes the context in the wire form "<trace-id>/<span-id>".
func (c SpanContext) String() string {
	return c.TraceID + "/" + strconv.Itoa(c.SpanID)
}

// ParseSpanContext decodes the wire form produced by String. It returns
// ok=false for anything malformed; callers treat that as "no context".
func ParseSpanContext(s string) (SpanContext, bool) {
	tid, sid, found := strings.Cut(s, "/")
	if !found || tid == "" {
		return SpanContext{}, false
	}
	id, err := strconv.Atoi(sid)
	if err != nil || id <= 0 {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: tid, SpanID: id}, true
}

// traceIDCounter disambiguates tracers created within the same
// nanosecond (common in tests).
var traceIDCounter atomic.Uint64

// newTraceID returns a process-unique hex trace identifier.
func newTraceID() string {
	return fmt.Sprintf("%016x-%08x", uint64(time.Now().UnixNano()), traceIDCounter.Add(1))
}

// TraceID returns the tracer's trace identifier. Safe on nil (returns "").
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// SpanContext returns the span's propagation context, or the zero
// (invalid) context on a nil span.
func (s *Span) SpanContext() SpanContext {
	if s == nil || s.tracer == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tracer.traceID, SpanID: s.ID}
}

// RemoteSpan describes work a remote node performed on the requester's
// behalf. Only a duration crosses the wire — never absolute timestamps —
// so stitched traces don't depend on synchronized clocks.
type RemoteSpan struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
	Attrs      []Attr `json:"attrs,omitempty"`
}

// EncodeRemoteSpan serializes a RemoteSpan for the SpanHeader.
func EncodeRemoteSpan(r RemoteSpan) string {
	b, err := json.Marshal(r)
	if err != nil {
		return ""
	}
	return string(b)
}

// DecodeRemoteSpan parses a SpanHeader value. ok=false means the header
// was absent or malformed and the fetch span simply gets no remote child.
func DecodeRemoteSpan(s string) (RemoteSpan, bool) {
	if s == "" {
		return RemoteSpan{}, false
	}
	var r RemoteSpan
	if err := json.Unmarshal([]byte(s), &r); err != nil || r.Name == "" {
		return RemoteSpan{}, false
	}
	if len(r.Attrs) == 0 {
		r.Attrs = nil // "attrs":[] and an absent field decode alike
	}
	return r, true
}

// AdoptRemote records a remote node's work as a finished child of s. The
// child is anchored on the local clock: it ends now and starts
// r.DurationNS earlier, clamped to not precede its parent (a claimed
// duration longer than the parent has existed shortens the child), which
// keeps the stitched trace well-formed under arbitrary clock skew. Safe
// on nil (returns nil).
func (s *Span) AdoptRemote(r RemoteSpan) *Span {
	if s == nil || s.tracer == nil {
		return nil
	}
	t := s.tracer
	dur := time.Duration(r.DurationNS)
	if dur < 0 {
		dur = 0
	}
	now := time.Now()
	start := now.Add(-dur)
	s.mu.Lock()
	if start.Before(s.start) {
		start = s.start
	}
	s.mu.Unlock()
	sp := &Span{
		tracer:   t,
		ParentID: s.ID,
		Name:     r.Name,
		Lane:     s.Lane,
		start:    start,
		end:      now,
	}
	sp.attrs = append(sp.attrs, r.Attrs...)
	sp.attrs = append(sp.attrs, Attr{Key: "remote", Value: true})
	t.mu.Lock()
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp
}
