package telemetry

import (
	"reflect"
	"testing"
	"time"
)

// TestAdoptRemoteEndsNow: a remote duration longer than the local fetch
// span has existed is clamped at the parent's start, and the child still
// ends now — it never outlives the moment it was adopted.
func TestAdoptRemoteEndsNow(t *testing.T) {
	parent := New().StartSpan("peer_fetch", nil)
	before := time.Now()
	child := parent.AdoptRemote(RemoteSpan{Name: "serve_block", DurationNS: int64(time.Hour)})
	after := time.Now()
	if child.start != parent.start {
		t.Errorf("child start %v, want the parent's start %v", child.start, parent.start)
	}
	if child.end.Before(before) || child.end.After(after) {
		t.Errorf("child ends %v after adoption; want it to end at adoption",
			child.end.Sub(after))
	}
	if d := child.End(); d > after.Sub(parent.start) {
		t.Errorf("child duration %v exceeds its parent's age %v", d, after.Sub(parent.start))
	}
}

// FuzzParseSpanContext: X-CPR-Trace either fails to parse, or parses to
// a valid context whose wire form re-parses to the same context.
func FuzzParseSpanContext(f *testing.F) {
	tr := New()
	f.Add(tr.StartSpan("peer_fetch", nil).SpanContext().String())
	f.Add(SpanContext{TraceID: tr.TraceID(), SpanID: 187}.String())
	for _, seed := range []string{"", "a/0", "/3", "x/+5", "tid/-1", "a/b/3", "a/007"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := ParseSpanContext(s)
		if !ok {
			return
		}
		if !c.Valid() {
			t.Fatalf("ParseSpanContext(%q) = %+v, not valid", s, c)
		}
		if again, ok := ParseSpanContext(c.String()); !ok || again != c {
			t.Fatalf("%q re-parses to %+v (ok=%v), want %+v", c.String(), again, ok, c)
		}
	})
}

// FuzzDecodeRemoteSpan: X-CPR-Span either fails to decode, or decodes to
// a named span that survives an encode/decode round trip unchanged and,
// adopted under a live parent, lies within [parent start, now].
func FuzzDecodeRemoteSpan(f *testing.F) {
	f.Add(EncodeRemoteSpan(RemoteSpan{Name: "serve_block", DurationNS: 48213,
		Attrs: []Attr{{Key: "key", Value: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}, {Key: "node", Value: "a"}}}))
	f.Add(EncodeRemoteSpan(RemoteSpan{Name: "serve_block", DurationNS: int64(time.Hour)}))
	for _, seed := range []string{"", "a/0", "/3", "x/+5", "{", `{"duration_ns":5}`,
		`{"name":"x","duration_ns":-7,"attrs":[]}`, `{"name":"x","duration_ns":9223372036854775807}`,
		`{"name":"x","attrs":[{"key":"n","value":{"a":[1.5,null,true]}}]}`} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, ok := DecodeRemoteSpan(s)
		if !ok {
			return
		}
		if r.Name == "" {
			t.Fatalf("DecodeRemoteSpan(%q) accepted an unnamed span", s)
		}
		enc := EncodeRemoteSpan(r)
		if again, ok := DecodeRemoteSpan(enc); !ok || !reflect.DeepEqual(again, r) {
			t.Fatalf("%q decodes to %+v (ok=%v), want %+v", enc, again, ok, r)
		}
		parent := New().StartSpan("peer_fetch", nil)
		child := parent.AdoptRemote(r)
		now := time.Now()
		if child.start.Before(parent.start) || child.end.Before(child.start) || child.end.After(now) {
			t.Fatalf("adopted span [%v, %v] outside [parent start %v, now %v]",
				child.start, child.end, parent.start, now)
		}
	})
}
