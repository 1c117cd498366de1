package httpapi_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cpr/internal/httpapi"
	"cpr/internal/jobs"
	"cpr/internal/server"
)

// keyPaths flattens a decoded JSON object into its dotted key paths.
func keyPaths(prefix string, v any, out *[]string) {
	obj, ok := v.(map[string]any)
	if !ok {
		return
	}
	for k, child := range obj {
		p := prefix + k
		*out = append(*out, p)
		keyPaths(p+".", child, out)
	}
}

// TestFinishedJobWireKeys pins the JSON key set of a finished job as
// cprd serves it, and that an executed job reports its Table 2 seconds
// and pin-access time as non-zero.
func TestFinishedJobWireKeys(t *testing.T) {
	mgr := jobs.New(jobs.Config{MaxConcurrent: 1}, jobs.NewResultCache(16, 0, 0, nil))
	ts := httptest.NewServer(server.New(mgr).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(
		`{"spec":{"name":"wire","nets":20,"width":80,"height":30,"seed":3},"wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}

	var got []string
	keyPaths("", raw, &got)
	sort.Strings(got)
	want := []string{
		"id", "key", "queue_wait_ms", "result",
		"result.incremental", "result.incremental.nets_rerouted",
		"result.incremental.panels", "result.incremental.recomputed",
		"result.incremental.regions", "result.incremental.reused",
		"result.metrics", "result.metrics.CPUSeconds", "result.metrics.Circuit",
		"result.metrics.InitialCongested", "result.metrics.NegotiationIters",
		"result.metrics.OptimizeSeconds", "result.metrics.RoutPct",
		"result.metrics.RouteSeconds", "result.metrics.RoutedNets",
		"result.metrics.TotalNets", "result.metrics.VerifySeconds", "result.metrics.Vias",
		"result.metrics.WL", "result.mode",
		"result.pinopt", "result.pinopt.conflicts", "result.pinopt.elapsed_ms",
		"result.pinopt.intervals", "result.pinopt.objective", "result.pinopt.panels",
		"result.pinopt.pins",
		"run_ms", "state",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("finished job keys:\n got %q\nwant %q", got, want)
	}

	var job httpapi.Job
	b, _ := json.Marshal(raw)
	if err := json.Unmarshal(b, &job); err != nil {
		t.Fatal(err)
	}
	if job.State != "done" || job.Result == nil || job.Result.PinOpt == nil {
		t.Fatalf("job did not finish with a pin-access result: %+v", job)
	}
	m := job.Result.Metrics
	for name, v := range map[string]float64{
		"metrics.CPUSeconds":      m.CPUSeconds,
		"metrics.OptimizeSeconds": m.OptimizeSeconds,
		"metrics.RouteSeconds":    m.RouteSeconds,
		"metrics.VerifySeconds":   m.VerifySeconds,
		"pinopt.elapsed_ms":       job.Result.PinOpt.ElapsedMS,
	} {
		if v <= 0 {
			t.Errorf("%s = %g on an executed job, want > 0", name, v)
		}
	}
}
