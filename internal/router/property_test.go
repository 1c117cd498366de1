package router

import (
	"fmt"
	"math/rand"
	"testing"

	"cpr/internal/assign"
	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/pinaccess"
	"cpr/internal/tech"
)

// randomDesign places n two/three-pin nets at random disjoint positions.
func randomDesign(t *testing.T, rng *rand.Rand, nets, w, h int) *design.Design {
	t.Helper()
	d := design.New("prop", w, h, tech.Default())
	occupied := make(map[[2]int]bool)
	place := func() (geom.Rect, bool) {
		for attempt := 0; attempt < 50; attempt++ {
			x, y := rng.Intn(w), rng.Intn(h)
			if occupied[[2]int{x, y}] {
				continue
			}
			// Stay within one panel.
			if y%10 == 9 {
				y--
			}
			h2 := y + rng.Intn(2)
			if h2/10 != y/10 || h2 >= h {
				h2 = y
			}
			key1, key2 := [2]int{x, y}, [2]int{x, h2}
			if occupied[key1] || occupied[key2] {
				continue
			}
			occupied[key1] = true
			occupied[key2] = true
			return geom.MakeRect(x, y, x, h2), true
		}
		return geom.Rect{}, false
	}
	for i := 0; i < nets; i++ {
		k := 2 + rng.Intn(2)
		shapes := make([]geom.Rect, 0, k)
		for j := 0; j < k; j++ {
			sh, ok := place()
			if !ok {
				break
			}
			shapes = append(shapes, sh)
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

// TestRouterInvariantsOnRandomDesigns checks structural invariants of the
// negotiation router across random instances:
//
//   - accounting: routed + failed = total;
//   - no residual overuse after a run;
//   - routed nets' metal is mutually exclusive;
//   - metrics (vias, wirelength) equal the per-route sums.
func TestRouterInvariantsOnRandomDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		d := randomDesign(t, rng, 10+rng.Intn(30), 40+rng.Intn(40), 20+rng.Intn(20))
		g := grid.New(d)
		res := New(d, g, Config{}).Run()

		failed := 0
		vias, wl := 0, 0
		used := make(map[grid.NodeID]int)
		for netID, nr := range res.Routes {
			if !nr.Routed {
				failed++
				if nr.FailReason == "" {
					t.Errorf("trial %d: unrouted net %d without reason", trial, netID)
				}
				continue
			}
			vias += nr.Vias(g)
			wl += nr.Wirelength(g)
			for _, id := range nr.Nodes {
				if prev, ok := used[id]; ok && prev != netID {
					t.Fatalf("trial %d: nets %d and %d share node", trial, prev, netID)
				}
				used[id] = netID
			}
		}
		if res.RoutedNets+failed != len(d.Nets) {
			t.Errorf("trial %d: accounting %d+%d != %d", trial, res.RoutedNets, failed, len(d.Nets))
		}
		if vias != res.Vias || wl != res.Wirelength {
			t.Errorf("trial %d: metric sums %d/%d vs %d/%d", trial, vias, wl, res.Vias, res.Wirelength)
		}
		if got := g.OverusedCount(); got != 0 {
			t.Errorf("trial %d: %d overused nodes after run", trial, got)
		}
	}
}

// TestSeededRouterInvariants repeats the invariant check with CPR-style
// interval seeding on top.
func TestSeededRouterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		d := randomDesign(t, rng, 10+rng.Intn(20), 50, 20)
		g := grid.New(d)
		pins := make([]int, len(d.Pins))
		for i := range pins {
			pins[i] = i
		}
		set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
		if err != nil {
			t.Fatal(err)
		}
		m := assign.Build(set, assign.SqrtProfit)
		sol := m.MinimumSolution()
		r := New(d, g, Config{})
		r.SeedAssignment(set, sol)
		res := r.Run()
		if got := g.OverusedCount(); got != 0 {
			t.Errorf("trial %d: %d overused nodes after seeded run", trial, got)
		}
		// Seeded cells that the owner's final route uses stay owned; the
		// unused remainder is trimmed (released or reusable), but never
		// handed to a different net as reservation while the owner's
		// route is standing.
		for netID, nr := range res.Routes {
			if !nr.Routed {
				continue
			}
			routeSet := make(map[grid.NodeID]bool, len(nr.Nodes))
			for _, id := range nr.Nodes {
				routeSet[id] = true
			}
			for _, ivID := range sol.ByPin {
				iv := set.Intervals[ivID]
				if iv.NetID != netID {
					continue
				}
				for x := iv.Span.Lo; x <= iv.Span.Hi; x++ {
					id := g.ID(x, iv.Track, tech.M2)
					if routeSet[id] {
						if own := g.Owner(id); own != netID && own != -1 {
							t.Fatalf("trial %d: seeded cell owned by foreign net %d", trial, own)
						}
					}
				}
			}
		}
	}
}

// TestSequentialInvariantsOnRandomDesigns checks the sequential baseline's
// exclusivity: committed ownership plus routes must never overlap.
func TestSequentialInvariantsOnRandomDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		d := randomDesign(t, rng, 10+rng.Intn(20), 50, 20)
		g := grid.New(d)
		res := New(d, g, Config{}).RunSequential()
		used := make(map[grid.NodeID]int)
		failed := 0
		for netID, nr := range res.Routes {
			if !nr.Routed {
				failed++
				continue
			}
			for _, id := range nr.Nodes {
				if prev, ok := used[id]; ok && prev != netID {
					t.Fatalf("trial %d: sequential nets %d and %d share node", trial, prev, netID)
				}
				used[id] = netID
			}
		}
		if res.RoutedNets+failed != len(d.Nets) {
			t.Errorf("trial %d: accounting broken", trial)
		}
	}
}
