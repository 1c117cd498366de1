package server

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"cpr/internal/httpapi"
	"cpr/internal/jobs"
	"cpr/internal/synth"
)

// FuzzResumeAfter: the event-stream resume point is the Last-Event-ID
// header when set, else the ?after= query. A source that is a decimal
// uint64 resumes after exactly that sequence number; anything else
// resumes from the start (0) rather than failing the stream.
func FuzzResumeAfter(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"7", ""}, {"", "7"}, {"3", "9"}, {"007", ""}, {"", "18446744073709551615"},
		{"18446744073709551616", ""}, {"-1", "5"}, {"+5", ""}, {" 5", ""}, {"0x10", ""}, {"", "1_000"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, header, after string) {
		r := httptest.NewRequest("GET", "/v1/jobs/j1/events?"+url.Values{"after": {after}}.Encode(), nil)
		if header != "" {
			r.Header.Set("Last-Event-ID", header)
		}
		got := resumeAfter(r)

		src := after
		if r.Header.Get("Last-Event-ID") != "" {
			src = r.Header.Get("Last-Event-ID")
		}
		digits := src != "" && strings.Trim(src, "0123456789") == ""
		if got != 0 && (!digits || strings.TrimLeft(src, "0") != strconv.FormatUint(got, 10)) {
			t.Fatalf("resumeAfter(header %q, after %q) = %d, not the source's value", header, after, got)
		}
		// Up to 19 significant digits always fit a uint64.
		if digits && len(strings.TrimLeft(src, "0")) <= 19 {
			if want, _ := strconv.ParseUint(src, 10, 64); got != want {
				t.Fatalf("resumeAfter(header %q, after %q) = %d, want %d", header, after, got, want)
			}
		}
	})
}

// FuzzBuildRequest: a JSON submit body either fails to build, or yields
// a design that validates and whose grid is within maxGridCells, plus
// options whose content-key fingerprint is deterministic.
func FuzzBuildRequest(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"spec":{"name":"v","nets":60,"width":120,"height":50,"seed":7}}`,
		`{"spec":{"nets":1,"width":100000,"height":100000}}`,
		`{"spec":{"nets":1,"width":4611686018427387904,"height":4611686018427387904}}`,
		`{"spec":{"nets":3,"width":-5,"height":20}}`,
		`{"spec":{"circuit":"nope"}}`,
		`{"design":"cpr-design 1\ndesign x 100000 100000\n"}`,
		`{"design":"cpr-design 1\ndesign d 20 10\nnet a\npin p0 0 1 2 1 2\npin p1 0 8 2 8 2\n"}`,
		`{"design":"cpr-design 1","spec":{"nets":1,"width":20,"height":10}}`,
		`{"spec":{"nets":4,"width":30,"height":10},"options":{"mode":"sequential","optimizer":"ilp","max_negotiation_iters":20}}`,
		`{"spec":{"nets":4,"width":30,"height":10},"options":{"mode":"warp"}}`,
		`{"spec":{"nets":4,"width":30,"height":10},"options":{"rule_engine":"lele","rerun_mode":"eco-fast"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req httpapi.SubmitRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		if ws := req.Spec; ws != nil {
			// Admissible but large syntheses exercise the generator's
			// speed, not request handling; the Table 2 presets are fixed.
			if _, err := synth.SpecByName(ws.Circuit); err == nil {
				t.Skip("Table 2 preset")
			}
			if ws.Circuit == "" && checkGridSize(ws.Width, ws.Height) == nil &&
				(ws.Width*ws.Height > 1<<16 || ws.Nets > 1000) {
				t.Skip("admissible but slow to synthesize")
			}
		}
		if d, err := buildDesign(&req); err == nil {
			if verr := d.Validate(); verr != nil {
				t.Fatalf("built design does not validate: %v", verr)
			}
			if gerr := checkGridSize(d.Width, d.Height); gerr != nil {
				t.Fatalf("built design above the grid bound: %v", gerr)
			}
		}
		opts, err := buildOptions(req.Options, "")
		if err != nil {
			return
		}
		again, _ := buildOptions(req.Options, "")
		if fp := jobs.Fingerprint(opts); fp == "" || fp != jobs.Fingerprint(again) {
			t.Fatalf("options fingerprint %q is empty or unstable", fp)
		}
	})
}
