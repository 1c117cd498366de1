package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestEventBusRingWrap(t *testing.T) {
	b := NewEventBus(4)
	for i := 0; i < 6; i++ {
		b.Publish("j", "tick", map[string]any{"i": i})
	}
	snap := b.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		if want := uint64(i + 3); ev.Seq != want {
			t.Fatalf("snap[%d].Seq = %d, want %d (oldest-first after wrap)", i, ev.Seq, want)
		}
	}
}

func TestEventBusSubscribeReplayAndFilter(t *testing.T) {
	b := NewEventBus(64)
	b.Publish("a", "one", nil)
	b.Publish("b", "two", nil)
	b.Publish("a", "three", nil)

	replay, _, cancel := b.Subscribe("a", 0, 8)
	defer cancel()
	if len(replay) != 2 || replay[0].Type != "one" || replay[1].Type != "three" {
		t.Fatalf("job-filtered replay = %+v, want [one three]", replay)
	}

	// afterSeq resumes past already-seen events.
	replay2, _, cancel2 := b.Subscribe("a", replay[0].Seq, 8)
	defer cancel2()
	if len(replay2) != 1 || replay2[0].Type != "three" {
		t.Fatalf("resumed replay = %+v, want [three]", replay2)
	}

	// "" subscribes to every job.
	replay3, _, cancel3 := b.Subscribe("", 0, 8)
	defer cancel3()
	if len(replay3) != 3 {
		t.Fatalf("unfiltered replay has %d events, want 3", len(replay3))
	}
}

func TestEventBusLiveDelivery(t *testing.T) {
	b := NewEventBus(64)
	_, ch, cancel := b.Subscribe("j", 0, 8)
	defer cancel()
	b.Publish("j", "hello", nil)
	b.Publish("other", "ignored", nil)
	select {
	case ev := <-ch:
		if ev.Type != "hello" {
			t.Fatalf("got %q, want hello", ev.Type)
		}
	case <-time.After(time.Second):
		t.Fatal("no live event delivered")
	}
	select {
	case ev := <-ch:
		t.Fatalf("unexpected cross-job event %+v", ev)
	default:
	}
}

// TestEventBusPublishNeverBlocks is the §4j contract: a subscriber that
// stops reading loses events (counted) but cannot stall Publish.
func TestEventBusPublishNeverBlocks(t *testing.T) {
	b := NewEventBus(64)
	_, _, cancel := b.Subscribe("", 0, 2) // tiny buffer, never read
	defer cancel()

	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			b.Publish("j", "flood", nil)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a stalled subscriber")
	}
	if d := b.Dropped(); d != 98 {
		t.Fatalf("dropped = %d, want 98 (100 published, buffer 2)", d)
	}
}

func TestEventBusCancelIdempotentAndCloses(t *testing.T) {
	b := NewEventBus(8)
	_, ch, cancel := b.Subscribe("", 0, 2)
	cancel()
	cancel() // second call must not panic (double close)
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after cancel")
	}
	// Publishing after cancel must not panic or count drops.
	b.Publish("j", "late", nil)
	if d := b.Dropped(); d != 0 {
		t.Fatalf("dropped = %d after cancel, want 0", d)
	}
}

func TestEventBusNilSafety(t *testing.T) {
	var b *EventBus
	b.Publish("j", "x", nil) // must not panic
	if b.Snapshot() != nil {
		t.Fatal("nil bus Snapshot != nil")
	}
	if b.Dropped() != 0 {
		t.Fatal("nil bus Dropped != 0")
	}
	replay, ch, cancel := b.Subscribe("", 0, 1)
	cancel()
	if replay != nil {
		t.Fatal("nil bus replay != nil")
	}
	if _, ok := <-ch; ok {
		t.Fatal("nil bus channel not closed")
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatalf("nil bus WriteJSON: %v", err)
	}

	var e *Emitter
	e.Emit("x", nil) // must not panic
	if NewEmitter(nil, "j") != nil {
		t.Fatal("NewEmitter(nil) != nil")
	}
}

func TestEventBusWriteJSONEnvelope(t *testing.T) {
	b := NewEventBus(8)
	b.Publish("j", "one", map[string]any{"k": "v"})
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var dump struct {
		Format  string  `json:"format"`
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("decoding dump: %v", err)
	}
	if dump.Format != "cpr-events-v1" {
		t.Fatalf("format = %q, want cpr-events-v1", dump.Format)
	}
	if len(dump.Events) != 1 || dump.Events[0].Type != "one" || dump.Events[0].Data["k"] != "v" {
		t.Fatalf("events = %+v, want the published event", dump.Events)
	}
}

func TestTracerEmitsSpanEvents(t *testing.T) {
	b := NewEventBus(64)
	tr := New()
	tr.SetEmitter(NewEmitter(b, "j"))
	sp := tr.StartSpan("work", nil)
	sp.End()
	sp.End() // idempotent End must emit span_end exactly once

	var starts, ends int
	for _, ev := range b.Snapshot() {
		switch ev.Type {
		case "span_start":
			starts++
			if ev.Data["name"] != "work" {
				t.Fatalf("span_start name = %v", ev.Data["name"])
			}
		case "span_end":
			ends++
			if _, ok := ev.Data["duration_ns"]; !ok {
				t.Fatalf("span_end missing duration_ns: %+v", ev.Data)
			}
		}
	}
	if starts != 1 || ends != 1 {
		t.Fatalf("span_start=%d span_end=%d, want 1/1", starts, ends)
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	tr := New()
	sp := tr.StartSpan("root", nil)
	sc := sp.SpanContext()
	if !sc.Valid() {
		t.Fatalf("context %+v not valid", sc)
	}
	if sc.TraceID != tr.TraceID() || sc.SpanID != sp.ID {
		t.Fatalf("context %+v does not match tracer/span", sc)
	}
	got, ok := ParseSpanContext(sc.String())
	if !ok || got != sc {
		t.Fatalf("ParseSpanContext(%q) = %+v ok=%v, want %+v", sc.String(), got, ok, sc)
	}

	for _, bad := range []string{"", "noslash", "/5", "tid/", "tid/zero", "tid/0", "tid/-1"} {
		if _, ok := ParseSpanContext(bad); ok {
			t.Fatalf("ParseSpanContext(%q) accepted malformed input", bad)
		}
	}
	var nilSpan *Span
	if nilSpan.SpanContext().Valid() {
		t.Fatal("nil span produced a valid context")
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := New().TraceID()
		if id == "" || seen[id] {
			t.Fatalf("trace id %q empty or repeated", id)
		}
		seen[id] = true
	}
}

func TestRemoteSpanEncodeDecode(t *testing.T) {
	r := RemoteSpan{Name: "serve_block", DurationNS: 12345, Attrs: []Attr{{Key: "key", Value: "abc"}}}
	got, ok := DecodeRemoteSpan(EncodeRemoteSpan(r))
	if !ok || got.Name != r.Name || got.DurationNS != r.DurationNS || len(got.Attrs) != 1 {
		t.Fatalf("round trip = %+v ok=%v, want %+v", got, ok, r)
	}
	for _, bad := range []string{"", "{", `{"duration_ns":5}`, "not json"} {
		if _, ok := DecodeRemoteSpan(bad); ok {
			t.Fatalf("DecodeRemoteSpan(%q) accepted malformed input", bad)
		}
	}
}

func TestAdoptRemote(t *testing.T) {
	tr := New()
	parent := tr.StartSpan("peer_fetch", nil)
	// Backdate the fetch so the remote millisecond fits inside it; a
	// longer claim is clamped (see TestAdoptRemoteEndsNow).
	parent.start = parent.start.Add(-time.Second)
	child := parent.AdoptRemote(RemoteSpan{Name: "serve_block", DurationNS: int64(time.Millisecond)})
	parent.End()

	if child == nil || child.ParentID != parent.ID {
		t.Fatalf("adopted child %+v not linked to parent %d", child, parent.ID)
	}
	if v, ok := child.Attr("remote"); !ok || v != true {
		t.Fatal("adopted child missing remote=true attr")
	}
	recs := tr.Snapshot()
	var rec *SpanRecord
	for i := range recs {
		if recs[i].Name == "serve_block" {
			rec = &recs[i]
		}
	}
	if rec == nil {
		t.Fatal("adopted span missing from tracer snapshot")
	}
	if rec.Duration != time.Millisecond {
		t.Fatalf("adopted duration = %v, want 1ms", rec.Duration)
	}

	// A huge claimed duration is clamped so the child never starts
	// before its parent.
	big := parent.AdoptRemote(RemoteSpan{Name: "skewed", DurationNS: int64(24 * time.Hour)})
	recs = tr.Snapshot()
	bigRec, parentRec := recs[big.ID-1], recs[parent.ID-1]
	if bigRec.Start < parentRec.Start {
		t.Fatalf("skewed child starts %v before its parent %v", bigRec.Start, parentRec.Start)
	}
	if parent.AdoptRemote(RemoteSpan{Name: "x"}) == nil {
		t.Fatal("AdoptRemote on live span returned nil")
	}
	var nilSpan *Span
	if nilSpan.AdoptRemote(RemoteSpan{Name: "x"}) != nil {
		t.Fatal("nil span AdoptRemote != nil")
	}
}

func TestTraceJSONCarriesTraceID(t *testing.T) {
	tr := New()
	tr.StartSpan("root", nil).End()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf, ExportOptions{}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !strings.Contains(buf.String(), tr.TraceID()) {
		t.Fatalf("trace JSON missing trace id %q", tr.TraceID())
	}
	// Golden-test mode blanks the (time-derived) trace id.
	buf.Reset()
	if err := tr.WriteJSON(&buf, ExportOptions{ZeroTimes: true}); err != nil {
		t.Fatalf("WriteJSON zeroed: %v", err)
	}
	if strings.Contains(buf.String(), tr.TraceID()) {
		t.Fatal("ZeroTimes export leaked the trace id")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	reg := NewRegistry()
	hist := reg.Histogram("t_seconds", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		hist.Observe(v)
	}
	snap := hist.Snapshot()
	if snap.Count != 4 || snap.Sum != 555.5 {
		t.Fatalf("snapshot count=%d sum=%v, want 4/555.5", snap.Count, snap.Sum)
	}
	if len(snap.Bounds) != 3 || len(snap.Counts) != 3 {
		t.Fatalf("snapshot has %d bounds / %d counts, want 3/3", len(snap.Bounds), len(snap.Counts))
	}
	// Cumulative: ≤1 → 1, ≤10 → 2, ≤100 → 3 (the 500 lives only in Count).
	for i, want := range []uint64{1, 2, 3} {
		if snap.Counts[i] != want {
			t.Fatalf("cumulative counts = %v, want [1 2 3]", snap.Counts)
		}
	}
	var nilHist *Histogram
	if nilHist.Snapshot() != nil {
		t.Fatal("nil histogram Snapshot != nil")
	}
}
