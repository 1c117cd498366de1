package tech

import "sort"

// sadpRules is the default engine: self-aligned double patterning. Its
// track-level rules are the shared lineEndRules — exactly the pre-engine
// router's behavior, so the engine refactor is byte-invisible under
// sadp — and the mask analysis is AnalyzeCuts under the technology's cut
// parameters.
type sadpRules struct {
	lineEndRules
	cutSpacing int
	mergeTol   int
}

func (r sadpRules) Name() string { return EngineSADP }
func (r sadpRules) Colors() int  { return 1 }

// AnalyzeMask runs AnalyzeCuts under the technology's extension, merge
// tolerance, and cut spacing.
func (r sadpRules) AnalyzeMask(segs []Seg, w, h int) *MaskReport {
	return AnalyzeCuts(segs, w, h, r.ext, r.mergeTol, r.cutSpacing)
}

// AnalyzeCuts is the SADP cut mask analysis: every raw strip end inside
// the grid (after extension by ext) needs a cut, cuts on consecutive
// tracks within mergeTol of each other merge into one shape, and residual
// shape pairs closer than cutSpacing count as conflicts. Cut conflicts
// are a mask complexity metric, not a legality error, so Errors stays
// empty. w and h are the grid extents.
func AnalyzeCuts(segs []Seg, w, h, ext, mergeTol, cutSpacing int) *MaskReport {
	cuts := extractCuts(segs, w, h, ext)
	shapes := mergeCuts(cuts, mergeTol)
	return &MaskReport{
		Engine:    EngineSADP,
		Colors:    1,
		Segments:  len(segs),
		LineEnds:  len(cuts),
		Conflicts: countCutConflicts(shapes, cutSpacing),
		Shapes:    len(shapes),
		CutShapes: shapes,
	}
}

// Cut is one line-end cut location: the first free cell beyond a metal
// strip end on its track.
type Cut struct {
	Layer int
	// Track is the y row for M2 cuts, the x column for M3 cuts.
	Track int
	// Pos is the cell position of the cut along the track direction.
	Pos int
	// Net is the net whose line-end needs this cut.
	Net int
}

// CutShape is a merged cut mask shape covering one or more aligned cuts.
type CutShape struct {
	Layer int
	// Pos is the along-track position shared by the merged cuts.
	Pos int
	// TrackLo and TrackHi bound the merged track range.
	TrackLo, TrackHi int
	// Cuts counts the line-end cuts this shape serves.
	Cuts int
}

// extractCuts emits a cut at each raw strip end whose extended end stays
// inside the grid (ends flush with the boundary need no cut), sorted by
// (layer, pos, track, net).
func extractCuts(segs []Seg, w, h, ext int) []Cut {
	var cuts []Cut
	for _, s := range segs {
		limit := w
		if s.Layer == M3 {
			limit = h
		}
		if lo := s.Lo - ext - 1; lo >= 0 {
			cuts = append(cuts, Cut{Layer: s.Layer, Track: s.Track, Pos: lo, Net: s.Net})
		}
		if hi := s.Hi + ext + 1; hi <= limit-1 {
			cuts = append(cuts, Cut{Layer: s.Layer, Track: s.Track, Pos: hi, Net: s.Net})
		}
	}
	sort.Slice(cuts, func(a, b int) bool {
		ca, cb := cuts[a], cuts[b]
		if ca.Layer != cb.Layer {
			return ca.Layer < cb.Layer
		}
		if ca.Pos != cb.Pos {
			return ca.Pos < cb.Pos
		}
		if ca.Track != cb.Track {
			return ca.Track < cb.Track
		}
		return ca.Net < cb.Net
	})
	return cuts
}

// mergeCuts greedily merges cuts on consecutive tracks whose positions
// match within mergeTol into single shapes. Cuts must arrive in
// extractCuts order.
func mergeCuts(cuts []Cut, mergeTol int) []CutShape {
	var shapes []CutShape
	i := 0
	for i < len(cuts) {
		j := i
		for j < len(cuts) &&
			cuts[j].Layer == cuts[i].Layer &&
			cuts[j].Pos-cuts[i].Pos <= mergeTol {
			j++
		}
		group := append([]Cut(nil), cuts[i:j]...)
		// Dedupe identical track entries (several strips can demand the
		// same cut), then merge runs of consecutive tracks.
		sort.Slice(group, func(a, b int) bool { return group[a].Track < group[b].Track })
		var uniq []Cut
		for _, c := range group {
			if len(uniq) == 0 || c.Track != uniq[len(uniq)-1].Track {
				uniq = append(uniq, c)
			}
		}
		group = uniq
		k := 0
		for k < len(group) {
			m := k
			for m+1 < len(group) && group[m+1].Track <= group[m].Track+1 {
				m++
			}
			shapes = append(shapes, CutShape{
				Layer:   group[k].Layer,
				Pos:     group[k].Pos,
				TrackLo: group[k].Track,
				TrackHi: group[m].Track,
				Cuts:    m - k + 1,
			})
			k = m + 1
		}
		i = j
	}
	return shapes
}

// countCutConflicts counts shape pairs on overlapping or adjacent track
// ranges whose positions are closer than cutSpacing.
func countCutConflicts(shapes []CutShape, cutSpacing int) int {
	conflicts := 0
	for a := 0; a < len(shapes); a++ {
		for b := a + 1; b < len(shapes); b++ {
			sa, sb := shapes[a], shapes[b]
			if sa.Layer != sb.Layer {
				continue
			}
			dist := sb.Pos - sa.Pos
			if dist < 0 {
				dist = -dist
			}
			if dist == 0 || dist >= cutSpacing {
				continue
			}
			if sb.TrackLo <= sa.TrackHi+1 && sa.TrackLo <= sb.TrackHi+1 {
				conflicts++
			}
		}
	}
	return conflicts
}
