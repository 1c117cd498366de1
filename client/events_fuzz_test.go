package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// bodyTransport answers every request with a 200 whose body is fixed,
// so StreamEvents parses exactly the fuzzed bytes without a network.
type bodyTransport []byte

func (b bodyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"text/event-stream"}},
		Body:       io.NopCloser(bytes.NewReader(b)),
		Request:    req,
	}, nil
}

// sseFrames lists the data payloads of body's complete frames (those a
// blank line terminates), in body order: comment lines and stream_end
// frames are skipped, and a frame's last data line is its payload.
func sseFrames(body string) []string {
	lines := strings.Split(body, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	var frames []string
	var event, data string
	for _, line := range lines {
		line = strings.TrimSuffix(line, "\r")
		switch {
		case line == "":
			if data != "" && event != "stream_end" {
				frames = append(frames, data)
			}
			event, data = "", ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		}
	}
	return frames
}

// FuzzStreamEvents feeds arbitrary response bodies to StreamEvents. It
// must not panic, and it either delivers exactly the body's complete
// data frames in order, or returns an error after delivering a prefix of
// them, where the next frame does not decode or a line exceeds the
// scanner's 1 MiB cap.
func FuzzStreamEvents(f *testing.F) {
	f.Add([]byte("id: 1\nevent: job_started\ndata: {\"seq\":1,\"type\":\"job_started\",\"job\":\"j1\"}\n\n" +
		": heartbeat\n\n" +
		"id: 2\nevent: job_done\ndata: {\"seq\":2,\"type\":\"job_done\",\"data\":{\"state\":\"done\"}}\n\n" +
		"event: stream_end\ndata: {}\n\n"))
	f.Add([]byte("data: {\"seq\":1,\"type\":\"a\"}\r\n\r\ndata: {\"seq\":2,\"type\":\"b\"}"))
	f.Add([]byte("data: {\"seq\":1}\ndata: {\"seq\":2}\n\nevent: x\n\n"))
	f.Add([]byte("data: not json\n\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, body []byte) {
		c := New("http://cprd.invalid")
		c.SetHTTPClient(&http.Client{Transport: bodyTransport(body)})
		var got []JobEvent
		err := c.StreamEvents(context.Background(), "j1", 0, func(ev JobEvent) error {
			got = append(got, ev)
			return nil
		})
		frames := sseFrames(string(body))
		if len(got) > len(frames) {
			t.Fatalf("delivered %d events from %d complete frames", len(got), len(frames))
		}
		for i, ev := range got {
			var want JobEvent
			if uerr := json.Unmarshal([]byte(frames[i]), &want); uerr != nil {
				t.Fatalf("event %d delivered from undecodable frame %q", i, frames[i])
			}
			if !reflect.DeepEqual(ev, want) {
				t.Fatalf("event %d = %+v, want %+v", i, ev, want)
			}
		}
		if err == nil {
			if len(got) != len(frames) {
				t.Fatalf("delivered %d of %d complete frames without an error", len(got), len(frames))
			}
			return
		}
		tooLong := false
		for _, line := range strings.Split(string(body), "\n") {
			if len(line) >= 1<<20 {
				tooLong = true
			}
		}
		if !tooLong {
			if len(got) == len(frames) {
				t.Fatalf("error after delivering every frame: %v", err)
			}
			var ev JobEvent
			if json.Unmarshal([]byte(frames[len(got)]), &ev) == nil {
				t.Fatalf("error on decodable frame %q: %v", frames[len(got)], err)
			}
		}
	})
}

// TestStreamEventsLineCap: an event line over bufio's 64 KiB default is
// delivered; one over the scanner's 1 MiB cap is a stream error.
func TestStreamEventsLineCap(t *testing.T) {
	frame := func(n int) []byte {
		return []byte("data: {\"seq\":1,\"type\":\"big\",\"data\":{\"blob\":\"" + strings.Repeat("x", n) + "\"}}\n\n")
	}
	c := New("http://cprd.invalid")
	c.SetHTTPClient(&http.Client{Transport: bodyTransport(frame(100 << 10))})
	n := 0
	if err := c.StreamEvents(context.Background(), "j1", 0, func(JobEvent) error { n++; return nil }); err != nil || n != 1 {
		t.Fatalf("100 KiB event: delivered %d, err %v; want 1, nil", n, err)
	}
	c.SetHTTPClient(&http.Client{Transport: bodyTransport(frame(2 << 20))})
	if err := c.StreamEvents(context.Background(), "j1", 0, func(JobEvent) error { return nil }); err == nil {
		t.Fatal("2 MiB event line: want a stream error")
	}
}
