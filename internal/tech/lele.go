package tech

import "sort"

// leleRules is the litho-etch-litho-etch double patterning engine. Each
// routing track's strips decompose onto the two masks by alternation
// (the canonical LELE tip-to-tip decomposition for unidirectional
// layers), which yields two track-level rules:
//
//   - adjacent tips (mask A against mask B) need the diff-mask spacing,
//     which is Technology.LineEndSpacing;
//   - next-nearest tips (forced onto the same mask by the alternation)
//     need the larger SameMaskSpacing.
//
// Alternating a path of strips over two colors always succeeds, so LELE
// has no uncolorable topology beyond adjacent tips violating the
// diff-mask floor; the same-mask rule is what the router must actively
// route for.
type leleRules struct {
	lineEndRules
	sameMask int
}

func (r leleRules) Name() string { return EngineLELE }
func (r leleRules) Colors() int  { return 2 }

// ClearanceMargin covers the worst-case (same-mask) spacing so
// negotiation spreads strips far enough that the DRC pass rarely fires.
func (r leleRules) ClearanceMargin() int { return r.ext + (r.sameMask+1)/2 }

// AvoidMargin uses the same worst case: a rerouted net cannot know which
// mask parity it will land on.
func (r leleRules) AvoidMargin() int { return r.ext + r.sameMask }

func (r leleRules) SequentialClearance() int { return 2*r.ext + r.sameMask }

func (r leleRules) RuleReach() int { return r.ext + r.minLen + r.sameMask + 2 }

// TrackViolations charges adjacent diff-net tips below the diff-mask
// spacing and next-nearest diff-net tips below the same-mask spacing.
func (r leleRules) TrackViolations(strips []Seg, vio func(net int)) {
	for i := 1; i < len(strips); i++ {
		a, b := strips[i-1], strips[i]
		if a.Net != b.Net && b.Lo-a.Hi-1 < r.spacing {
			vio(a.Net)
			vio(b.Net)
		}
	}
	for i := 2; i < len(strips); i++ {
		a, b := strips[i-2], strips[i]
		if a.Net != b.Net && b.Lo-a.Hi-1 < r.sameMask {
			vio(a.Net)
			vio(b.Net)
		}
	}
}

// CheckTrack reports diff-mask tip violations, then same-mask (parity)
// violations, then minimum-length violations, per track.
func (r leleRules) CheckTrack(layer, track int, strips []Seg, netName func(int) string,
	errf func(format string, args ...interface{})) {

	for i := 1; i < len(strips); i++ {
		a, b := strips[i-1], strips[i]
		if a.Net == b.Net {
			continue
		}
		gap := b.Lo - a.Hi - 1
		if gap < r.spacing {
			errf("lele diff-mask tip spacing violation on layer %d track %d between nets %s and %s (gap %d < %d)",
				layer, track, netName(a.Net), netName(b.Net), gap, r.spacing)
		}
	}
	for i := 2; i < len(strips); i++ {
		a, b := strips[i-2], strips[i]
		if a.Net == b.Net {
			continue
		}
		gap := b.Lo - a.Hi - 1
		if gap < r.sameMask {
			errf("lele same-mask tip spacing violation on layer %d track %d between nets %s and %s (gap %d < %d)",
				layer, track, netName(a.Net), netName(b.Net), gap, r.sameMask)
		}
	}
	for _, s := range strips {
		if s.Hi-s.Lo+1 < r.minLen {
			errf("minimum line length violation on layer %d track %d net %s (len %d < %d)",
				layer, track, netName(s.Net), s.Hi-s.Lo+1, r.minLen)
		}
	}
}

// AnalyzeMask alternates each track's extended strips over the two
// masks and counts rule violations under that decomposition: adjacent
// tips below the diff-mask floor are uncolorable (no 2-mask assignment
// can fix a tip-to-tip violation), same-mask pairs below SameMaskSpacing
// are conflicts.
func (r leleRules) AnalyzeMask(segs []Seg, w, h int) *MaskReport {
	rep := &MaskReport{
		Engine:   EngineLELE,
		Colors:   2,
		Segments: len(segs),
		ColorOf:  make([]int, len(segs)),
	}
	ext := extendAll(segs, w, h, r.lineEndRules)
	for _, track := range trackGroups(ext) {
		for i, idx := range track {
			rep.ColorOf[idx] = i % 2
			rep.Shapes++
			if i >= 1 {
				a, b := ext[track[i-1]], ext[idx]
				if a.Net != b.Net && b.Lo-a.Hi-1 < r.spacing {
					rep.Uncolorable++
					rep.ColorOf[idx] = -1
				}
			}
			if i >= 2 {
				a, b := ext[track[i-2]], ext[idx]
				if a.Net != b.Net && b.Lo-a.Hi-1 < r.sameMask {
					rep.Conflicts++
				}
			}
		}
	}
	return rep
}

// extendAll returns a copy of segs with every span extended by the
// engine's line-end rules.
func extendAll(segs []Seg, w, h int, base lineEndRules) []Seg {
	out := make([]Seg, len(segs))
	for i, s := range segs {
		limit := w
		if s.Layer == M3 {
			limit = h
		}
		s.Lo, s.Hi = base.ExtendSpan(s.Lo, s.Hi, limit)
		out[i] = s
	}
	return out
}

// trackGroups groups segment indices by (layer, track), each group
// sorted by (Lo, Net), groups in (layer, track) order — the deterministic
// per-track visiting order every engine analysis shares.
func trackGroups(segs []Seg) [][]int {
	type key struct{ layer, track int }
	byTrack := make(map[key][]int)
	for i, s := range segs {
		k := key{s.Layer, s.Track}
		byTrack[k] = append(byTrack[k], i)
	}
	keys := make([]key, 0, len(byTrack))
	for k := range byTrack {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].layer != keys[j].layer {
			return keys[i].layer < keys[j].layer
		}
		return keys[i].track < keys[j].track
	})
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		idxs := byTrack[k]
		sort.Slice(idxs, func(a, b int) bool {
			if segs[idxs[a]].Lo != segs[idxs[b]].Lo {
				return segs[idxs[a]].Lo < segs[idxs[b]].Lo
			}
			return segs[idxs[a]].Net < segs[idxs[b]].Net
		})
		out = append(out, idxs)
	}
	return out
}
