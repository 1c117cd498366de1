package router

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/tech"
)

// oracleSegments is the map-based per-track decomposition Segments
// replaced, kept as a reference: bucket cells per track, visit tracks in
// sorted key order, and cut each track's sorted cells into maximal runs.
func oracleSegments(g *grid.Graph, nr *NetRoute) []tech.Seg {
	m2 := make(map[int][]int) // y -> xs
	m3 := make(map[int][]int) // x -> ys
	for _, id := range nr.Nodes {
		x, y, z := g.Coords(id)
		switch z {
		case tech.M2:
			m2[y] = append(m2[y], x)
		case tech.M3:
			m3[x] = append(m3[x], y)
		}
	}
	var segs []tech.Seg
	for _, layer := range []struct {
		z      int
		tracks map[int][]int
	}{{tech.M2, m2}, {tech.M3, m3}} {
		for _, track := range oracleSortedTracks(layer.tracks) {
			for _, span := range oracleRuns(layer.tracks[track]) {
				segs = append(segs, tech.Seg{Net: nr.NetID, Layer: layer.z, Track: track, Lo: span.Lo, Hi: span.Hi})
			}
		}
	}
	return segs
}

// oracleSortedTracks returns a track map's keys in ascending order.
func oracleSortedTracks(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// oracleRuns converts a cell coordinate multiset into maximal consecutive
// runs.
func oracleRuns(cells []int) []geom.Interval {
	if len(cells) == 0 {
		return nil
	}
	sort.Ints(cells)
	var out []geom.Interval
	cur := geom.Interval{Lo: cells[0], Hi: cells[0]}
	for _, c := range cells[1:] {
		switch {
		case c == cur.Hi || c == cur.Hi+1:
			if c > cur.Hi {
				cur.Hi = c
			}
		default:
			out = append(out, cur)
			cur = geom.Interval{Lo: c, Hi: c}
		}
	}
	return append(out, cur)
}

// TestSegmentsMatchOracleOnRoutedDesigns compares Segments with the
// map-based oracle on every net of seeded random designs routed by both
// flows, and ResultSegments with the oracle concatenated in net order.
func TestSegmentsMatchOracleOnRoutedDesigns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		d := randomDesign(t, rng, 10+rng.Intn(25), 40+rng.Intn(30), 20)
		g := grid.New(d)
		results := map[string]*Result{
			"negotiation": New(d, g, Config{}).Run(),
			"sequential":  New(d, grid.New(d), Config{}).RunSequential(),
		}
		for _, flow := range []string{"negotiation", "sequential"} {
			res := results[flow]
			var want []tech.Seg
			for netID, nr := range res.Routes {
				got, ref := Segments(g, nr), oracleSegments(g, nr)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("trial %d %s net %d: Segments\n%+v\nwant\n%+v", trial, flow, netID, got, ref)
				}
				if nr.Routed {
					want = append(want, ref...)
				}
			}
			if got := ResultSegments(g, res); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: ResultSegments differs from the oracle in net order", trial, flow)
			}
		}
	}
}

// TestSegmentsMatchOracleOnNodeSets compares Segments with the oracle on
// hand-built node sets: random cells on all three layers (M1 cells carry
// no strip), every grid-boundary cell of a row and a column (where a
// row's last cell and the next row's first cell are adjacent node IDs but
// different tracks), via-only landings stacked on M1/M2/M3, and each set
// shuffled and partly duplicated.
func TestSegmentsMatchOracleOnNodeSets(t *testing.T) {
	const w, h = 13, 9
	d := design.New("segsets", w, h, tech.Default())
	id := d.AddNet("n")
	d.AddPin("p0", id, geom.MakeRect(0, 0, 0, 0))
	d.AddPin("p1", id, geom.MakeRect(w-1, h-1, w-1, h-1))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	rng := rand.New(rand.NewSource(5))

	var boundary []grid.NodeID
	for x := 0; x < w; x++ {
		boundary = append(boundary, g.ID(x, 0, tech.M2), g.ID(x, h-1, tech.M2), g.ID(x, 0, tech.M3), g.ID(x, h-1, tech.M3))
	}
	for y := 0; y < h; y++ {
		boundary = append(boundary, g.ID(0, y, tech.M2), g.ID(w-1, y, tech.M2), g.ID(0, y, tech.M3), g.ID(w-1, y, tech.M3))
	}
	// Via-only landings: a lone cell on each layer at the same (x, y),
	// as a via stack leaves them.
	var vias []grid.NodeID
	for _, p := range [][2]int{{4, 4}, {0, 7}, {w - 1, 2}} {
		for z := tech.M1; z <= tech.M3; z++ {
			vias = append(vias, g.ID(p[0], p[1], z))
		}
	}

	for trial := 0; trial < 200; trial++ {
		var nodes []grid.NodeID
		switch trial % 4 {
		case 0:
			nodes = append(nodes, boundary...)
		case 1:
			nodes = append(nodes, vias...)
		}
		for k := rng.Intn(3 * w * h / 2); k > 0; k-- {
			nodes = append(nodes, grid.NodeID(rng.Intn(g.NumNodes())))
		}
		if len(nodes) > 0 {
			nodes = append(nodes, nodes[:rng.Intn(len(nodes))]...)
		}
		rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
		nr := &NetRoute{NetID: id, Nodes: nodes}
		if got, want := Segments(g, nr), oracleSegments(g, nr); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Segments\n%+v\nwant\n%+v", trial, got, want)
		}
	}
}
