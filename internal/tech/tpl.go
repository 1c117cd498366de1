package tech

import (
	"fmt"
	"sort"
)

// tplRules is the triple patterning engine (per the Mr.TPL / TRIAD line
// of work): same-layer segments of different nets closer than
// ColorSpacing — along the track or across adjacent tracks — conflict
// and must take different masks. The analysis builds that conflict
// graph over the routed (extended) segments, greedily 3-colors it in
// deterministic order, and inserts a stitch (splitting a segment across
// two masks) when no single color is legal; segments that stay
// uncolorable even with a stitch are hard legality errors.
//
// During negotiation the router additionally prices other nets'
// occupancy on tracks within ConflictRadius — the stitch cost term —
// so dense conflict neighbourhoods are avoided before they materialize
// in the conflict graph. Along each track the base line-end rules
// (lineEndRules) still apply.
type tplRules struct {
	lineEndRules
	colorSpacing  int
	stitchPenalty int
}

func (r tplRules) Name() string { return EngineTPL }
func (r tplRules) Colors() int  { return 3 }

// RuleReach adds the color spacing on top of the line-end reach: the
// conflict graph (and the negotiation pricing term) couples strips up
// to ColorSpacing tracks apart.
func (r tplRules) RuleReach() int { return r.lineEndRules.RuleReach() + r.colorSpacing }

// ConflictRadius prices occupancy on tracks strictly closer than the
// color spacing — exactly the tracks a conflict edge can reach.
func (r tplRules) ConflictRadius() int { return r.colorSpacing - 1 }

func (r tplRules) ConflictWeight() float64 { return 0.25 * float64(r.stitchPenalty) }

// atom is one single-mask piece of metal during coloring: a whole
// segment, or one half of a stitched segment.
type atom struct {
	seg    int // index into the input slice
	layer  int
	track  int
	lo, hi int
	color  int
}

// AnalyzeMask 3-colors the conflict graph over the extended segments.
// Deterministic greedy order: (layer, track, lo, hi, net). A segment
// with no free color tries every stitch position (both halves at least
// MinLineLen long) before being declared uncolorable.
func (r tplRules) AnalyzeMask(segs []Seg, w, h int) *MaskReport {
	rep := &MaskReport{
		Engine:   EngineTPL,
		Colors:   3,
		Segments: len(segs),
		ColorOf:  make([]int, len(segs)),
	}
	ext := extendAll(segs, w, h, r.lineEndRules)

	order := make([]int, len(ext))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := ext[order[a]], ext[order[b]]
		if sa.Layer != sb.Layer {
			return sa.Layer < sb.Layer
		}
		if sa.Track != sb.Track {
			return sa.Track < sb.Track
		}
		if sa.Lo != sb.Lo {
			return sa.Lo < sb.Lo
		}
		if sa.Hi != sb.Hi {
			return sa.Hi < sb.Hi
		}
		return sa.Net < sb.Net
	})

	// Colored atoms bucketed by (layer, track) for neighbourhood scans.
	type key struct{ layer, track int }
	placed := make(map[key][]atom)
	conflicts := func(layer, track, lo, hi, net int) []atom {
		var out []atom
		for dt := -(r.colorSpacing - 1); dt <= r.colorSpacing-1; dt++ {
			for _, a := range placed[key{layer, track + dt}] {
				if segs[a.seg].Net == net {
					continue
				}
				if spanDist(lo, hi, a.lo, a.hi) < r.colorSpacing {
					out = append(out, a)
				}
			}
		}
		return out
	}
	freeColors := func(layer, track, lo, hi, net int) [3]bool {
		free := [3]bool{true, true, true}
		for _, a := range conflicts(layer, track, lo, hi, net) {
			free[a.color] = false
		}
		return free
	}
	firstFree := func(free [3]bool) int {
		for c := 0; c < 3; c++ {
			if free[c] {
				return c
			}
		}
		return -1
	}

	for _, idx := range order {
		s := ext[idx]
		net := segs[idx].Net
		k := key{s.Layer, s.Track}
		edges := conflicts(s.Layer, s.Track, s.Lo, s.Hi, net)
		rep.Conflicts += len(edges)
		var free [3]bool
		free[0], free[1], free[2] = true, true, true
		for _, a := range edges {
			free[a.color] = false
		}
		if c := firstFree(free); c >= 0 {
			rep.ColorOf[idx] = c
			rep.Shapes++
			placed[k] = append(placed[k], atom{seg: idx, layer: s.Layer, track: s.Track, lo: s.Lo, hi: s.Hi, color: c})
			continue
		}
		// Stitch: split so each half sees a smaller conflict
		// neighbourhood; the halves take different masks.
		stitched := false
		for split := s.Lo + r.minLen - 1; split <= s.Hi-r.minLen; split++ {
			fl := freeColors(s.Layer, s.Track, s.Lo, split, net)
			fr := freeColors(s.Layer, s.Track, split+1, s.Hi, net)
			cl, cr := -1, -1
			for a := 0; a < 3 && cl < 0; a++ {
				if !fl[a] {
					continue
				}
				for b := 0; b < 3; b++ {
					if b != a && fr[b] {
						cl, cr = a, b
						break
					}
				}
			}
			if cl < 0 {
				continue
			}
			rep.Stitches++
			rep.Shapes += 2
			rep.ColorOf[idx] = cl
			placed[k] = append(placed[k],
				atom{seg: idx, layer: s.Layer, track: s.Track, lo: s.Lo, hi: split, color: cl},
				atom{seg: idx, layer: s.Layer, track: s.Track, lo: split + 1, hi: s.Hi, color: cr})
			stitched = true
			break
		}
		if !stitched {
			rep.Uncolorable++
			rep.ColorOf[idx] = -1
			rep.Errors = append(rep.Errors,
				fmt.Sprintf("tpl: uncolorable segment net %d layer %d track %d span [%d,%d]",
					net, s.Layer, s.Track, s.Lo, s.Hi))
		}
	}
	return rep
}

// spanDist is the along-track distance between two inclusive spans: 0
// when they overlap, otherwise the cell distance between the facing
// ends (abutting spans have distance 1) — the same metric as the track
// delta, so "closer than ColorSpacing" means the same thing along and
// across tracks.
func spanDist(alo, ahi, blo, bhi int) int {
	if blo > ahi {
		return blo - ahi
	}
	if alo > bhi {
		return alo - bhi
	}
	return 0
}
