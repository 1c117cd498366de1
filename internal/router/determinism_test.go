package router_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/pinaccess"
	"cpr/internal/render"
	"cpr/internal/router"
	"cpr/internal/tech"
)

// determinismDesign builds a design dense enough to force negotiation.
func determinismDesign(t *testing.T) *design.Design {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	d := design.New("determinism", 48, 20, tech.Default())
	occupied := make(map[[2]int]bool)
	place := func() (geom.Rect, bool) {
		for attempt := 0; attempt < 60; attempt++ {
			x, y := rng.Intn(48), rng.Intn(20)
			if y%10 == 9 {
				y--
			}
			if occupied[[2]int{x, y}] {
				continue
			}
			occupied[[2]int{x, y}] = true
			return geom.MakeRect(x, y, x, y), true
		}
		return geom.Rect{}, false
	}
	for i := 0; i < 24; i++ {
		k := 2 + rng.Intn(2)
		shapes := make([]geom.Rect, 0, k)
		for j := 0; j < k; j++ {
			if sh, ok := place(); ok {
				shapes = append(shapes, sh)
			}
		}
		if len(shapes) < 2 {
			continue
		}
		id := d.AddNet(fmt.Sprintf("n%d", i))
		for j, sh := range shapes {
			d.AddPin(fmt.Sprintf("n%d_p%d", i, j), id, sh)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// shuffledCopy rebuilds a ByPin map inserting keys in a shuffled order, so
// the two runs see maps with different internal layouts.
func shuffledCopy(byPin map[int]int, seed int64) map[int]int {
	keys := make([]int, 0, len(byPin))
	for k := range byPin {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	out := make(map[int]int, len(byPin))
	for _, k := range keys {
		out[k] = byPin[k]
	}
	return out
}

// dumpRun executes the full seeded negotiation flow and serializes
// everything observable — the design bytes, every route's nodes, edges and
// virtual cells, the run metrics, and the rendered SVG — into one buffer.
// A router result carries no wall-clock, so nothing needs excluding.
func dumpRun(t *testing.T, d *design.Design, set *pinaccess.Set, byPin map[int]int) []byte {
	t.Helper()
	g := grid.New(d)
	sol := &assign.Solution{ByPin: byPin}
	r := router.New(d, g, router.Config{})
	r.SeedAssignment(set, sol)
	res := r.Run()

	var b bytes.Buffer
	if err := designio.Write(&b, d); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "routed=%d vias=%d wl=%d initcong=%d iters=%d congunrouted=%d drcunrouted=%d\n",
		res.RoutedNets, res.Vias, res.Wirelength, res.InitialCongested,
		res.NegotiationIters, res.CongestionUnrouted, res.DRCUnrouted)
	for netID, nr := range res.Routes {
		fmt.Fprintf(&b, "net %d routed=%v fail=%q\n", netID, nr.Routed, nr.FailReason)
		fmt.Fprintf(&b, "  nodes %v\n", nr.Nodes)
		fmt.Fprintf(&b, "  edges %v\n", nr.Edges)
		fmt.Fprintf(&b, "  virtual %v\n", nr.Virtual)
	}
	seeds := []render.Seed{{Set: set, ByPin: byPin}}
	if err := render.SVG(&b, d, g, res, seeds, render.SVGOptions{ShowIntervals: true}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestNegotiationRouterByteIdentical runs the identical seeded routing
// problem several times, each time handing the router assignment maps
// built with a different insertion order, and requires the complete
// serialized outcome to be byte-identical. This is the regression gate for
// the determinism contract behind the content-addressed result cache: a
// map-iteration-order leak anywhere in seeding, search, DRC, or rendering
// shows up here as a byte diff.
func TestNegotiationRouterByteIdentical(t *testing.T) {
	d := determinismDesign(t)
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), allPins(d))
	if err != nil {
		t.Fatal(err)
	}
	m := assign.Build(set, assign.SqrtProfit)
	sol := m.MinimumSolution()

	base := dumpRun(t, d, set, shuffledCopy(sol.ByPin, 1))
	if !bytes.Contains(base, []byte("routed=")) {
		t.Fatal("dump missing metrics line")
	}
	for trial := int64(2); trial <= 4; trial++ {
		got := dumpRun(t, d, set, shuffledCopy(sol.ByPin, trial))
		if !bytes.Equal(got, base) {
			t.Fatalf("trial %d: routing outcome not byte-identical (len %d vs %d): %s",
				trial, len(got), len(base), firstDiff(base, got))
		}
	}
}

func allPins(d *design.Design) []int {
	pins := make([]int, len(d.Pins))
	for i := range pins {
		pins[i] = i
	}
	return pins
}

// firstDiff describes the first byte position where a and b diverge.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("first diff at byte %d: %q vs %q", i, a[lo:i+1], b[lo:i+1])
		}
	}
	return fmt.Sprintf("common prefix of %d bytes, lengths differ", n)
}
