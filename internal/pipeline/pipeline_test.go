package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/router"
	"cpr/internal/tech"
)

// basePanelDesign builds a three-panel design with a net spanning panels
// 0 and 1 plus a net local to panel 0 and one local to panel 2, so tests
// can probe exactly which edits reach which panel hash.
func basePanelDesign(t *testing.T) *design.Design {
	t.Helper()
	d := design.New("hash-probe", 60, 30, tech.Default())
	span := d.AddNet("span")
	d.AddPin("span_a", span, geom.MakeRect(8, 2, 8, 2))     // panel 0
	d.AddPin("span_b", span, geom.MakeRect(40, 12, 40, 12)) // panel 1
	local0 := d.AddNet("local0")
	d.AddPin("l0_a", local0, geom.MakeRect(12, 4, 12, 4)) // panel 0
	d.AddPin("l0_b", local0, geom.MakeRect(20, 6, 20, 6)) // panel 0
	local2 := d.AddNet("local2")
	d.AddPin("l2_a", local2, geom.MakeRect(10, 22, 10, 22)) // panel 2
	d.AddPin("l2_b", local2, geom.MakeRect(22, 24, 22, 24)) // panel 2
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func panelHash(t *testing.T, d *design.Design, panel int) string {
	t.Helper()
	return PanelHash(d, d.BuildTrackIndex(), panel)
}

// TestPanelHashInvalidation proves the per-panel cache-key contract: the
// hash of a panel changes whenever any input that can affect its result
// changes, and only then. Each case mutates one input class (pins,
// blockages, tracks/tech, grid) and checks which panels' hashes move.
func TestPanelHashInvalidation(t *testing.T) {
	base := basePanelDesign(t)
	baseHash := [3]string{}
	for p := range baseHash {
		baseHash[p] = panelHash(t, base, p)
	}
	if baseHash[0] == baseHash[1] || baseHash[0] == baseHash[2] || baseHash[1] == baseHash[2] {
		t.Fatal("distinct panels hash equal")
	}

	cases := []struct {
		name   string
		mutate func(d *design.Design)
		// dirty[p] == true means panel p's hash must change; false means
		// it must NOT change.
		dirty [3]bool
	}{
		{
			name: "move pin within panel 0 (local net)",
			mutate: func(d *design.Design) {
				d.Pins[2].Shape = geom.MakeRect(13, 4, 13, 4) // l0_a
			},
			dirty: [3]bool{true, false, false},
		},
		{
			name: "move panel-0 pin of the spanning net",
			mutate: func(d *design.Design) {
				d.Pins[0].Shape = geom.MakeRect(5, 2, 5, 2) // span_a: bbox reaches panel 1
			},
			dirty: [3]bool{true, true, false},
		},
		{
			name: "add pin to panel 2",
			mutate: func(d *design.Design) {
				d.AddPin("l2_c", 2, geom.MakeRect(30, 26, 30, 26))
			},
			dirty: [3]bool{false, false, true},
		},
		{
			name: "blockage on a panel-1 track",
			mutate: func(d *design.Design) {
				d.AddBlockage(tech.M2, geom.MakeRect(2, 15, 6, 15))
			},
			dirty: [3]bool{false, true, false},
		},
		{
			name: "blockage on a panel-0 track leaves other panels alone",
			mutate: func(d *design.Design) {
				d.AddBlockage(tech.M2, geom.MakeRect(2, 5, 6, 5))
			},
			dirty: [3]bool{true, false, false},
		},
		{
			name: "tech change dirties every panel",
			mutate: func(d *design.Design) {
				tc := *d.Tech
				tc.LineEndSpacing++
				d.Tech = &tc
			},
			dirty: [3]bool{true, true, true},
		},
		{
			name: "grid width change dirties every panel",
			mutate: func(d *design.Design) {
				d.Width++
			},
			dirty: [3]bool{true, true, true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := basePanelDesign(t)
			tc.mutate(d)
			for p := 0; p < 3; p++ {
				changed := panelHash(t, d, p) != baseHash[p]
				if changed != tc.dirty[p] {
					t.Errorf("panel %d: hash changed=%t, want %t", p, changed, tc.dirty[p])
				}
			}
		})
	}
}

// TestPanelHashStable: rebuilding the identical design yields identical
// hashes (the content address is a function of content, not identity).
func TestPanelHashStable(t *testing.T) {
	a, b := basePanelDesign(t), basePanelDesign(t)
	for p := 0; p < 3; p++ {
		if panelHash(t, a, p) != panelHash(t, b, p) {
			t.Errorf("panel %d: identical designs hash differently", p)
		}
	}
}

// TestRouterFingerprintBytes pins the router half of every route and
// design key byte for byte: persisted blockstores and peers address
// artifacts by these bytes, so any change re-keys every stored route.
func TestRouterFingerprintBytes(t *testing.T) {
	const want = "route-v1 order=hpwl-asc iters=12 pres=2,1.6 hist=1 win=8,4,32 stall=3 skipdrc=false"
	if got := RouterFingerprint(router.Config{}); got != want {
		t.Errorf("RouterFingerprint(zero) = %q, want %q", got, want)
	}
	const want20 = "route-v1 order=hpwl-asc iters=20 pres=2,1.6 hist=1 win=8,4,32 stall=3 skipdrc=false"
	if got := RouterFingerprint(router.Config{MaxNegotiationIters: 20}); got != want20 {
		t.Errorf("RouterFingerprint(iters=20) = %q, want %q", got, want20)
	}
}

// TestSolverFingerprintBytes pins the solver half of every panel and
// design key byte for byte, with the cacheability verdict that decides
// whether a key is formed at all.
func TestSolverFingerprintBytes(t *testing.T) {
	cases := []struct {
		name      string
		cfg       SolverConfig
		want      string
		cacheable bool
	}{
		{"zero", SolverConfig{},
			"pinopt-v1 optimizer=lr lr=0,0,false,false,false,false ilp=0,0", true},
		{"ilp", SolverConfig{UseILP: true},
			"pinopt-v1 optimizer=ilp lr=0,0,false,false,false,false ilp=0,0", true},
		{"ilp max nodes", SolverConfig{UseILP: true, ILP: ilp.Config{MaxNodes: 1000}},
			"pinopt-v1 optimizer=ilp lr=0,0,false,false,false,false ilp=1000,0", true},
		{"ilp time limit", SolverConfig{UseILP: true, ILP: ilp.Config{TimeLimit: 1500 * time.Millisecond}},
			"pinopt-v1 optimizer=ilp lr=0,0,false,false,false,false ilp=0,1500000000", false},
		{"lr toggles", SolverConfig{LR: lagrange.Config{
			DisableSameNetTieBreak: true, FullSubgradient: true, SkipRefinement: true, SkipPostImprove: true}},
			"pinopt-v1 optimizer=lr lr=0,0,true,true,true,true ilp=0,0", true},
	}
	for _, tc := range cases {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint() = %q, want %q", tc.name, got, tc.want)
		}
		if got := tc.cfg.Cacheable(); got != tc.cacheable {
			t.Errorf("%s: Cacheable() = %t, want %t", tc.name, got, tc.cacheable)
		}
	}
}

// TestPanelKeyFingerprint: the panel key folds in the solver fingerprint,
// so a result-affecting option change re-addresses every panel while the
// panel-input hash alone stays put.
func TestPanelKeyFingerprint(t *testing.T) {
	d := basePanelDesign(t)
	idx := d.BuildTrackIndex()
	base := SolverConfig{}
	tuned := SolverConfig{LR: lagrange.Config{MaxIterations: 400}}
	if base.Fingerprint() == tuned.Fingerprint() {
		t.Fatal("LR.MaxIterations does not reach the fingerprint")
	}
	k1 := PanelKeyFor(d, idx, 0, base)
	k2 := PanelKeyFor(d, idx, 0, tuned)
	if k1 == "" || k2 == "" {
		t.Fatal("cacheable configs produced empty keys")
	}
	if k1 == k2 {
		t.Error("panel key ignores the solver fingerprint")
	}
	if PanelKeyFor(d, idx, 0, base) != k1 {
		t.Error("panel key is not a pure function of its inputs")
	}
	if PanelKeyFor(d, idx, 1, base) == k1 {
		t.Error("distinct panels share a key")
	}
}

// TestSolverConfigCacheable pins the opt-out rule: wall-clock-limited
// ILP may not be content-addressed.
func TestSolverConfigCacheable(t *testing.T) {
	cases := []struct {
		name string
		cfg  SolverConfig
		want bool
	}{
		{"default LR", SolverConfig{}, true},
		{"tuned LR", SolverConfig{LR: lagrange.Config{MaxIterations: 50, Alpha: 0.9}}, true},
		{"ILP without time limit", SolverConfig{UseILP: true, ILP: ilp.Config{MaxNodes: 1000}}, true},
		{"ILP with time limit", SolverConfig{UseILP: true, ILP: ilp.Config{TimeLimit: time.Second}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.cfg.Cacheable(); got != tc.want {
				t.Errorf("Cacheable() = %t, want %t", got, tc.want)
			}
			if !tc.want {
				d := basePanelDesign(t)
				if key := PanelKeyFor(d, d.BuildTrackIndex(), 0, tc.cfg); key != "" {
					t.Errorf("uncacheable config produced key %q", key)
				}
			}
		})
	}
}

// TestSolvePanelArtifactsDeterministic: solving the same panel twice
// (and at different worker counts) yields byte-identical artifact
// encodings, the property panel-level caching rests on.
func TestSolvePanelArtifactsDeterministic(t *testing.T) {
	d := basePanelDesign(t)
	idx := d.BuildTrackIndex()
	cfg := SolverConfig{}
	ctx := context.Background()
	var first *PanelArtifact
	for _, workers := range []int{1, 1, 4} {
		art, err := SolvePanel(ctx, d, idx, 0, d.PinsInPanel(0), cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = art
			continue
		}
		if HashIntervalSet(art.Intervals) != HashIntervalSet(first.Intervals) {
			t.Errorf("workers=%d: interval set encoding differs", workers)
		}
		if HashAssignment(art.Assignment) != HashAssignment(first.Assignment) {
			t.Errorf("workers=%d: assignment encoding differs", workers)
		}
		if art.Key != first.Key {
			t.Errorf("workers=%d: key differs", workers)
		}
	}
	if first.Key == "" {
		t.Error("cacheable solve produced no key")
	}
}

// TestEncodeConflictModel sanity-checks the stage-2 encoding so the hash
// actually covers the model's conflicts and profits.
func TestEncodeConflictModel(t *testing.T) {
	d := basePanelDesign(t)
	idx := d.BuildTrackIndex()
	set, err := GenerateStage(d, idx, d.PinsInPanel(0), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ConflictStage(set, SolverConfig{}, 1)
	var b strings.Builder
	if err := EncodeConflictModel(&b, m); err != nil {
		t.Fatal(err)
	}
	if len(m.Model.Profits) > 0 && !strings.Contains(b.String(), "profit") {
		t.Error("encoding lost the profit vector")
	}
	if HashConflictModel(m) != HashConflictModel(m) {
		t.Error("conflict model hash unstable")
	}
}
