package pipeline

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"cpr/internal/grid"
	"cpr/internal/router"
	"cpr/internal/synth"
)

// fuzzArtifacts solves and routes a small synthetic design and returns
// the real block encodings of its panel and route artifacts.
func fuzzArtifacts(f *testing.F) (panels, routes [][]byte) {
	f.Helper()
	d, err := synth.Generate(synth.Spec{Name: "fuzzart", Nets: 20, Width: 60, Height: 20, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	idx := d.BuildTrackIndex()
	r := router.New(d, grid.New(d), router.Config{})
	for panel := 0; panel < d.NumPanels(); panel++ {
		pins := d.PinsInPanel(panel)
		if len(pins) == 0 {
			continue
		}
		art, err := SolvePanel(context.Background(), d, idx, panel, pins, SolverConfig{}, 1)
		if err != nil {
			f.Fatal(err)
		}
		data, err := MarshalPanelArtifact(art)
		if err != nil {
			f.Fatal(err)
		}
		panels = append(panels, data)
		r.SeedAssignment(art.Intervals.Set, art.Assignment.Solution)
	}
	plan := r.Partition()
	res := r.RunPlan(context.Background(), plan, router.RunOpts{Workers: 1})
	for _, a := range BuildRouteArtifacts(d, r, plan, res, true) {
		data, err := MarshalRouteArtifact(a)
		if err != nil {
			f.Fatal(err)
		}
		routes = append(routes, data)
	}
	if len(panels) == 0 || len(routes) == 0 {
		f.Fatal("seed design produced no artifacts")
	}
	return panels, routes
}

// malformedBlocks are decode-error seeds shared by both artifact codecs.
var malformedBlocks = []string{
	"", "null", "not json", `{"v":1}`, `{"v":99,"panel":{"Key":"k"},"route":{"Key":"k"}}`,
	`{"v":1,"panel":{"Key":""},"route":{"Key":""}}`, `{"v":1,"panel":{"Key":"k","Panel":1e99}}`,
}

// checkCanonical is the block-codec fuzz invariant: data either fails to
// decode, or the decoded artifact re-encodes to canonical bytes that
// decode to the same artifact under the same key.
func checkCanonical[T any](t *testing.T, data []byte, dec func([]byte) (T, error), enc func(T) ([]byte, error), key func(T) string) {
	a, err := dec(data)
	if err != nil {
		return
	}
	canon, err := enc(a)
	if err != nil {
		t.Fatalf("re-encoding a decoded artifact failed: %v", err)
	}
	b, err := dec(canon)
	if err != nil {
		t.Fatalf("canonical block does not decode: %v\n%s", err, canon)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("canonical block decodes to a different artifact:\n%s", canon)
	}
	if key(a) != key(b) {
		t.Fatalf("re-encoding changed the key %q to %q", key(a), key(b))
	}
	again, err := enc(b)
	if err != nil || !bytes.Equal(canon, again) {
		t.Fatalf("encoding is not canonical (err %v):\n%s\n%s", err, canon, again)
	}
}

// FuzzPanelArtifact checks UnmarshalPanelArtifact against checkCanonical.
func FuzzPanelArtifact(f *testing.F) {
	panels, _ := fuzzArtifacts(f)
	for _, data := range panels {
		f.Add(data)
	}
	sample, err := MarshalPanelArtifact(samplePanelArtifact(strings.Repeat("1", 64)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, s := range malformedBlocks {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data, UnmarshalPanelArtifact, MarshalPanelArtifact,
			func(a *PanelArtifact) string { return a.Key })
	})
}

// FuzzRouteArtifact checks UnmarshalRouteArtifact against checkCanonical.
func FuzzRouteArtifact(f *testing.F) {
	_, routes := fuzzArtifacts(f)
	for _, data := range routes {
		f.Add(data)
	}
	sample, err := MarshalRouteArtifact(sampleRouteArtifact(strings.Repeat("2", 64)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	for _, s := range malformedBlocks {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonical(t, data, UnmarshalRouteArtifact, MarshalRouteArtifact,
			func(a *RouteArtifact) string { return a.Key })
	})
}
