package router

import (
	"slices"
	"sort"

	"cpr/internal/grid"
	"cpr/internal/tech"
)

// Segments decomposes a route into maximal per-track metal strips on the
// routing layers, including via-only landings (single-cell strips), in
// (layer M2 then M3, track, lo) order. Every M2/M3 node becomes one
// sortable (layer, track, position) key, so the order depends only on the
// node set — never on node order or duplicates — and flows unchanged into
// nr.Virtual and from there into the cached result.
func Segments(g *grid.Graph, nr *NetRoute) []tech.Seg {
	plane := g.W * g.H
	keys := make([]int, 0, len(nr.Nodes))
	for _, id := range nr.Nodes {
		x, y, z := g.Coords(id)
		switch z {
		case tech.M2:
			keys = append(keys, y*g.W+x)
		case tech.M3:
			keys = append(keys, plane+x*g.H+y)
		}
	}
	slices.Sort(keys)
	var segs []tech.Seg
	for _, k := range keys {
		layer, track, pos := tech.M2, k/g.W, k%g.W
		if k >= plane {
			layer, track, pos = tech.M3, (k-plane)/g.H, (k-plane)%g.H
		}
		if n := len(segs); n > 0 && segs[n-1].Layer == layer && segs[n-1].Track == track && pos <= segs[n-1].Hi+1 {
			segs[n-1].Hi = pos
			continue
		}
		segs = append(segs, tech.Seg{Net: nr.NetID, Layer: layer, Track: track, Lo: pos, Hi: pos})
	}
	return segs
}

// ResultSegments concatenates Segments over every routed net of a result
// in net order: the raw input the rule engines' mask analyses consume.
func ResultSegments(g *grid.Graph, res *Result) []tech.Seg {
	var segs []tech.Seg
	for _, nr := range res.Routes {
		if nr != nil && nr.Routed {
			segs = append(segs, Segments(g, nr)...)
		}
	}
	return segs
}

// enforceLineEndRules extends every routed member net's line-ends per
// the technology's rule engine and checks the engine's track-level tip
// rules between diff-net strips on the same track plus overlap with
// blockages. Violating nets are first ripped up and rerouted with other
// nets' extended clearance zones forbidden (the paper's "line-end
// extensions and rip-up and reroute to accommodate the manufacturing
// constraints"); nets that still violate are unrouted. Region-local:
// only the shard's member nets can produce strips inside the region's
// influence rectangles, so no cross-region strip can appear on a shared
// track. Returns the number of nets unrouted.
func (s *shard) enforceLineEndRules() int {
	r := s.Router
	rules := r.rules()

	// Collect extended segments per (layer, track).
	type trackKey struct{ layer, track int }
	build := func() map[trackKey][]tech.Seg {
		byTrack := make(map[trackKey][]tech.Seg)
		for _, netID := range s.region.Nets {
			nr := s.routes[netID]
			if nr == nil || !nr.Routed {
				continue
			}
			for _, seg := range Segments(r.g, nr) {
				seg.Lo, seg.Hi = rules.ExtendSpan(seg.Lo, seg.Hi, r.trackLen(seg.Layer))
				k := trackKey{seg.Layer, seg.Track}
				byTrack[k] = append(byTrack[k], seg)
			}
		}
		for _, segs := range byTrack {
			sort.Slice(segs, func(a, b int) bool {
				if segs[a].Lo != segs[b].Lo {
					return segs[a].Lo < segs[b].Lo
				}
				return segs[a].Net < segs[b].Net
			})
		}
		return byTrack
	}

	// violationsPerNet counts the engine's track rule violations and
	// blockage violations.
	violationsPerNet := func(byTrack map[trackKey][]tech.Seg) map[int]int {
		vio := make(map[int]int)
		for _, segs := range byTrack {
			rules.TrackViolations(segs, func(net int) { vio[net]++ })
			// Blockage overlap on the same layer/track.
			for _, seg := range segs {
				if r.segmentHitsBlockage(seg) {
					vio[seg.Net]++
				}
			}
		}
		return vio
	}

	// buildAvoid converts the current extended strips into a forbidden
	// node set with the extra clearance a rerouted net's own extension
	// will need (the engine's avoid margin: other strips are already
	// extended, so the margin keeps the final gap legal for a rerouted
	// net whose mask assignment is not yet known).
	buildAvoid := func(byTrack map[trackKey][]tech.Seg) map[grid.NodeID]bool {
		margin := rules.AvoidMargin()
		avoid := make(map[grid.NodeID]bool)
		for _, segs := range byTrack {
			for _, seg := range segs {
				r.widenedCells(seg, margin, func(id grid.NodeID) { avoid[id] = true })
			}
		}
		return avoid
	}

	// Phase 1: rip up and reroute violating nets away from other nets'
	// clearance zones. Prefer moving nets with larger routes (more room
	// to detour). A net whose reroute fails keeps its old route and is
	// not retried.
	tried := make(map[int]bool)
	margin := r.drcRerouteMargin()
	maxRounds := 2 * len(s.region.Nets)
	if maxRounds > 200 {
		maxRounds = 200
	}
	for round := 0; round < maxRounds; round++ {
		vio := violationsPerNet(build())
		if len(vio) == 0 {
			return 0
		}
		pick := -1
		for netID := range vio {
			if tried[netID] {
				continue
			}
			if pick < 0 ||
				len(s.routes[netID].Nodes) > len(s.routes[pick].Nodes) ||
				(len(s.routes[netID].Nodes) == len(s.routes[pick].Nodes) && netID > pick) {
				pick = netID
			}
		}
		if pick < 0 {
			break // every violating net already tried
		}
		tried[pick] = true
		old := *s.routes[pick]
		r.release(s.routes[pick])
		s.routes[pick].Routed = false
		s.avoid = buildAvoid(build())
		rerouted := s.routeNet(pick, presentCostBase, margin)
		s.avoid = nil
		if rerouted.Routed {
			*s.routes[pick] = *rerouted
			r.occupy(s.routes[pick])
		} else {
			*s.routes[pick] = old
			r.occupy(s.routes[pick])
		}
	}

	// Phase 2: drop nets that still violate, most-violating first.
	dropped := 0
	for iter := 0; iter < len(s.region.Nets); iter++ {
		vio := violationsPerNet(build())
		if len(vio) == 0 {
			break
		}
		worst, worstCount := -1, 0
		for netID, count := range vio {
			if count > worstCount || (count == worstCount && netID > worst) {
				worst, worstCount = netID, count
			}
		}
		if worst < 0 {
			break
		}
		r.release(s.routes[worst])
		s.routes[worst].Routed = false
		s.routes[worst].FailReason = "drc"
		s.routes[worst].Nodes = nil
		s.routes[worst].Edges = nil
		s.routes[worst].Virtual = nil
		dropped++
	}
	return dropped
}

// segmentHitsBlockage reports whether an extended strip overlaps a design
// blockage cell on its layer.
func (r *Router) segmentHitsBlockage(seg tech.Seg) bool {
	for c := seg.Lo; c <= seg.Hi; c++ {
		if r.g.Blocked(r.cell(seg, c)) {
			return true
		}
	}
	return false
}

// widenedCells calls fn on every cell of a strip widened by margin at
// both ends, clamped to its track.
func (r *Router) widenedCells(seg tech.Seg, margin int, fn func(grid.NodeID)) {
	lo, hi := max(seg.Lo-margin, 0), min(seg.Hi+margin, r.trackLen(seg.Layer)-1)
	for c := lo; c <= hi; c++ {
		fn(r.cell(seg, c))
	}
}

// trackLen is the number of cells along a layer's tracks.
func (r *Router) trackLen(layer int) int {
	if layer == tech.M2 {
		return r.d.Width
	}
	return r.d.Height
}

// cell returns the node at along-track position c of a strip's track.
func (r *Router) cell(seg tech.Seg, c int) grid.NodeID {
	if seg.Layer == tech.M2 {
		return r.g.ID(c, seg.Track, tech.M2)
	}
	return r.g.ID(seg.Track, c, tech.M3)
}
