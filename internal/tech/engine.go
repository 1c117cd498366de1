// Rule engines: the pluggable multi-patterning layer of the technology.
//
// The paper notes CPR "is extendable to technology-dependent
// manufacturing constraints"; this file is that extension point. A
// RuleEngine interprets the line-end fields of Technology under one
// patterning scheme and owns every technology-dependent decision the
// pipeline makes: grid edge costs, line-end extension and spacing rules,
// clearance and influence margins, negotiation conflict pricing, DRC
// violation detection, verify-grade legality messages, and the mask
// decomposition analysis of a routed result.
//
// Three engines ship:
//
//   - sadp (default): self-aligned double patterning. Line-ends are
//     produced by cuts; the mask analysis extracts and merges the cut
//     mask and counts residual cut conflicts (AnalyzeCuts).
//   - lele: litho-etch-litho-etch double patterning. Strips on a track
//     alternate between the two masks, so adjacent tips need the
//     diff-mask spacing (LineEndSpacing) while next-nearest tips land on
//     the same mask and need the larger SameMaskSpacing.
//   - tpl: triple patterning (per the Mr.TPL / TRIAD line of work). A
//     color-conflict graph is built over the routed segments, greedily
//     3-colored with stitch insertion, and the negotiation router prices
//     cross-track conflict neighbourhoods so the graph stays colorable.
package tech

import (
	"fmt"
	"strconv"
)

// Canonical engine names. An empty Patterning.Engine selects EngineSADP.
const (
	EngineSADP = "sadp"
	EngineLELE = "lele"
	EngineTPL  = "tpl"
)

// Patterning selects and tunes the multi-patterning rule engine. The
// zero value selects the SADP engine with default parameters and is,
// by contract, byte-invisible: designio and the pipeline input encoders
// emit a rule-engine record only for a non-zero Patterning, so designs
// predating the engine layer keep their content addresses.
//
// Every field is part of the cache-key contract: the designio text
// (design key), the pipeline panel/route input encodings, and therefore
// every content address differ whenever any field differs.
//
//keypurity:options
type Patterning struct {
	// Engine names the rule engine: "sadp" (default, also selected by
	// ""), "lele", or "tpl". Unknown names fail validation closed.
	Engine string
	// SameMaskSpacing is the lele minimum gap (free cells) between two
	// line-ends printed on the same mask — next-nearest tips on a track
	// under alternating decomposition. 0 selects the default 3. The
	// diff-mask (adjacent-tip) spacing is Technology.LineEndSpacing.
	SameMaskSpacing int
	// ColorSpacing is the tpl distance below which two same-layer
	// segments of different nets conflict and must take different
	// colors. 0 selects the default 2.
	ColorSpacing int
	// StitchPenalty scales the tpl negotiation cost term that prices
	// routing through another net's conflict neighbourhood. 0 selects
	// the default 1.
	StitchPenalty int
	// CutSpacing is the sadp minimum free distance between two distinct
	// cuts on the same or adjacent tracks. 0 selects the default 2.
	CutSpacing int
	// MergeTolerance is the sadp maximum along-track offset at which
	// cuts on adjacent tracks still merge into one shape (default 0:
	// exact alignment).
	MergeTolerance int
}

// ParseEngine canonicalizes an engine name, failing closed on anything
// unknown. The empty string is the SADP default.
func ParseEngine(name string) (string, error) {
	switch name {
	case "", EngineSADP:
		return EngineSADP, nil
	case EngineLELE:
		return EngineLELE, nil
	case EngineTPL:
		return EngineTPL, nil
	default:
		return "", fmt.Errorf("tech: unknown rule engine %q (want sadp, lele, or tpl)", name)
	}
}

// Validate checks the patterning selection, failing closed on unknown
// engine names.
func (p Patterning) Validate() error {
	if _, err := ParseEngine(p.Engine); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"SameMaskSpacing", p.SameMaskSpacing},
		{"ColorSpacing", p.ColorSpacing},
		{"StitchPenalty", p.StitchPenalty},
		{"CutSpacing", p.CutSpacing},
		{"MergeTolerance", p.MergeTolerance},
	} {
		if f.v < 0 {
			return fmt.Errorf("tech: Patterning.%s must be non-negative, got %d", f.name, f.v)
		}
	}
	return nil
}

// Resolved returns the patterning with the per-engine parameter
// defaults applied — the values the engines actually consume. The raw
// values are what serializes, so round-trips stay exact.
func (p Patterning) Resolved() Patterning { return p.resolved() }

// resolved applies the per-engine parameter defaults. The raw values are
// what serializes (so round-trips are exact); the resolved values are
// what the engines consume.
func (p Patterning) resolved() Patterning {
	out := p
	if out.Engine == "" {
		out.Engine = EngineSADP
	}
	if out.SameMaskSpacing == 0 {
		out.SameMaskSpacing = 3
	}
	if out.ColorSpacing == 0 {
		out.ColorSpacing = 2
	}
	if out.StitchPenalty == 0 {
		out.StitchPenalty = 1
	}
	if out.CutSpacing == 0 {
		out.CutSpacing = 2
	}
	// MergeTolerance: default 0, raw value is already resolved.
	return out
}

// Spec renders the patterning selection canonically — the engine name
// followed by every raw parameter — for the rule-engine records of
// designio and the pipeline input encoders. Reading every field here is
// what lets keypurity prove the engine parameters reach every cache-key
// encoder.
func (p Patterning) Spec() string {
	name := p.Engine
	if name == "" {
		name = EngineSADP
	}
	return name + " " +
		strconv.Itoa(p.SameMaskSpacing) + " " +
		strconv.Itoa(p.ColorSpacing) + " " +
		strconv.Itoa(p.StitchPenalty) + " " +
		strconv.Itoa(p.CutSpacing) + " " +
		strconv.Itoa(p.MergeTolerance)
}

// ParsePatterning parses the payload of a rule-engine record (the Spec
// format: name plus five integer parameters), failing closed on unknown
// engine names, malformed integers, and wrong arity.
func ParsePatterning(fields []string) (Patterning, error) {
	var p Patterning
	if len(fields) != 6 {
		return p, fmt.Errorf("tech: rule-engine record wants 6 fields (name + 5 params), got %d", len(fields))
	}
	name, err := ParseEngine(fields[0])
	if err != nil {
		return p, err
	}
	p.Engine = name
	vals := make([]int, 5)
	for i := range vals {
		v, err := strconv.Atoi(fields[i+1])
		if err != nil {
			return p, fmt.Errorf("tech: bad rule-engine parameter %q", fields[i+1])
		}
		vals[i] = v
	}
	p.SameMaskSpacing = vals[0]
	p.ColorSpacing = vals[1]
	p.StitchPenalty = vals[2]
	p.CutSpacing = vals[3]
	p.MergeTolerance = vals[4]
	if err := p.Validate(); err != nil {
		return Patterning{}, err
	}
	return p, nil
}

// Seg is one maximal unidirectional metal strip of a routed net, in the
// raw (pre-extension) geometry the router produced. For M2 (horizontal)
// Track is the y row and [Lo, Hi] covers x; for M3 (vertical) Track is
// the x column and [Lo, Hi] covers y.
type Seg struct {
	Net   int
	Layer int
	Track int
	Lo    int
	Hi    int
}

// MaskReport is a rule engine's mask decomposition analysis of a routed
// result.
type MaskReport struct {
	// Engine is the analyzing engine's canonical name.
	Engine string
	// Colors is the number of masks the engine decomposes onto.
	Colors int
	// Segments is the number of metal strips analyzed.
	Segments int
	// LineEnds is the sadp pre-merge cut count: every strip end that
	// stays inside the grid after extension. Zero for other engines.
	LineEnds int
	// ColorOf assigns each input segment a mask color in [0, Colors), or
	// -1 for an uncolorable segment; parallel to the input slice. Nil
	// for single-mask engines.
	ColorOf []int
	// Stitches counts tpl stitch insertions (a segment split across two
	// masks because no single color was legal).
	Stitches int
	// Uncolorable counts segments with no legal color even after stitch
	// insertion (tpl) or with a hard same-track tip conflict (lele).
	Uncolorable int
	// Conflicts counts residual mask conflicts: sadp cut-spacing
	// conflicts, lele same-mask spacing violations, tpl conflict-graph
	// edges.
	Conflicts int
	// Shapes counts distinct mask shapes: sadp merged cuts, otherwise
	// colored metal shapes (stitch halves count separately).
	Shapes int
	// CutShapes is the sadp merged cut mask, deterministic order; nil
	// for other engines.
	CutShapes []CutShape
	// Errors lists hard legality violations in deterministic order.
	// Only violations the track-level rules cannot express land here
	// (tpl uncolorable segments); engines whose mask analysis is purely
	// a complexity metric leave it empty.
	Errors []string
}

// RuleEngine is the technology-dependent rule set one patterning scheme
// imposes on the unidirectional router and its checkers. Implementations
// are immutable after construction and safe for concurrent use; every
// method is a pure function of the constructing Technology.
type RuleEngine interface {
	// Name is the canonical engine name.
	Name() string
	// Colors is the number of masks per routing layer (1 = sadp's
	// single line pattern plus cut mask, 2 = lele, 3 = tpl).
	Colors() int

	// LineEndExtension is the per-end wire extension in grid cells.
	LineEndExtension() int
	// MinLineLen is the minimum printable strip length in grid cells.
	MinLineLen() int
	// ExtendSpan applies the line-end extension and minimum-length
	// growth to a raw strip span, clamped to [0, limit).
	ExtendSpan(lo, hi, limit int) (int, int)

	// ClearanceMargin is the number of cells beyond each strip end the
	// router treats as virtually occupied during negotiation.
	ClearanceMargin() int
	// AvoidMargin is the clearance the DRC reroute pass adds around
	// other nets' extended strips so a rerouted net's own extension
	// still satisfies the worst-case end spacing.
	AvoidMargin() int
	// SequentialClearance is the one-sided clearance committed strips
	// impose on later nets in the sequential baseline.
	SequentialClearance() int
	// RuleReach is the maximum distance (cells) this engine's rules can
	// couple two strips beyond their raw geometry; it feeds the region
	// influence margin that guarantees cross-region independence.
	RuleReach() int

	// WireCost is the grid cost of one metal edge.
	WireCost() int
	// ViaCost is the grid cost of a via edge, forbidden-flagged or not.
	ViaCost(forbidden bool) int
	// ConflictRadius is the cross-track distance (tracks) over which the
	// negotiation router prices other nets' occupancy as prospective
	// color conflicts; 0 disables the term (and keeps the sadp cost
	// arithmetic byte-identical to the pre-engine router).
	ConflictRadius() int
	// ConflictWeight scales the cross-track conflict pricing term.
	ConflictWeight() float64

	// TrackViolations scans one track's extended strips (sorted by Lo,
	// then net) and calls vio(net) once per end-rule violation a net
	// participates in; the DRC pass rips up and reroutes the offenders.
	TrackViolations(strips []Seg, vio func(net int))
	// CheckTrack reports verify-grade error messages for one track's
	// extended strips (same order contract as TrackViolations). netName
	// resolves IDs for messages; errf appends one formatted error.
	CheckTrack(layer, track int, strips []Seg, netName func(int) string,
		errf func(format string, args ...interface{}))

	// AnalyzeMask decomposes routed raw segments onto the engine's masks
	// and reports colorability, stitches, conflicts, and shape counts.
	// w and h are the grid extents (strip ends flush with the boundary
	// need no cut under sadp).
	AnalyzeMask(segs []Seg, w, h int) *MaskReport
}

// RulesFor constructs the rule engine a technology selects. The
// technology must have passed Validate; an unknown engine name panics
// (fail closed) rather than silently routing under the wrong rules.
func RulesFor(t *Technology) RuleEngine {
	p := t.Patterning.resolved()
	base := lineEndRules{
		ext:          t.LineEndExtension,
		minLen:       t.MinLineLen,
		spacing:      t.LineEndSpacing,
		wire:         t.BaseCost,
		via:          t.ViaCost,
		forbiddenVia: t.ForbiddenViaCost,
	}
	switch p.Engine {
	case EngineSADP:
		return sadpRules{lineEndRules: base, cutSpacing: p.CutSpacing, mergeTol: p.MergeTolerance}
	case EngineLELE:
		return leleRules{lineEndRules: base, sameMask: p.SameMaskSpacing}
	case EngineTPL:
		return tplRules{lineEndRules: base, colorSpacing: p.ColorSpacing, stitchPenalty: p.StitchPenalty}
	default:
		panic(fmt.Sprintf("tech: unvalidated rule engine %q", t.Patterning.Engine))
	}
}

// Rules returns the technology's rule engine (see RulesFor).
func (t *Technology) Rules() RuleEngine { return RulesFor(t) }

// lineEndRules is the engine-independent core every engine shares: the
// SADP-motivated line-end geometry fields of Technology, the grid cost
// parameters, and the base line-end rule set (one spacing rule between
// adjacent tips, one minimum length) that sadp and tpl apply as is and
// lele overrides.
type lineEndRules struct {
	ext, minLen, spacing    int
	wire, via, forbiddenVia int
}

// ClearanceMargin is the line-end extension plus half the spacing rule
// (rounded up): two nets whose clearance cells do not collide always
// satisfy gap >= 2*ext + spacing after extension.
func (r lineEndRules) ClearanceMargin() int { return r.ext + (r.spacing+1)/2 }

// AvoidMargin: other strips are already extended by ext, so ext +
// spacing keeps the final gap >= spacing for a rerouted net.
func (r lineEndRules) AvoidMargin() int { return r.ext + r.spacing }

// SequentialClearance is the one-sided burden a committed strip imposes:
// the later net's extension is not yet known, so both extensions plus
// the spacing fall on the avoid zone.
func (r lineEndRules) SequentialClearance() int { return 2*r.ext + r.spacing }

// RuleReach bounds how far the extension, minimum-length growth, and
// spacing rule can couple strips beyond their raw geometry.
func (r lineEndRules) RuleReach() int { return r.ext + r.minLen + r.spacing + 2 }

// ConflictRadius and ConflictWeight are zero: the base rules price no
// cross-track conflicts.
func (r lineEndRules) ConflictRadius() int     { return 0 }
func (r lineEndRules) ConflictWeight() float64 { return 0 }

// TrackViolations: adjacent diff-net extended strips must keep the
// line-end spacing; both participants are charged.
func (r lineEndRules) TrackViolations(strips []Seg, vio func(net int)) {
	for i := 1; i < len(strips); i++ {
		a, b := strips[i-1], strips[i]
		if a.Net == b.Net {
			continue
		}
		if b.Lo-a.Hi-1 < r.spacing {
			vio(a.Net)
			vio(b.Net)
		}
	}
}

// CheckTrack reports the spacing violations, then the minimum-length
// violations, of one track — the exact message bytes the verifier has
// always produced.
func (r lineEndRules) CheckTrack(layer, track int, strips []Seg, netName func(int) string,
	errf func(format string, args ...interface{})) {

	for i := 1; i < len(strips); i++ {
		a, b := strips[i-1], strips[i]
		if a.Net == b.Net {
			continue
		}
		gap := b.Lo - a.Hi - 1
		if gap < r.spacing {
			errf("line-end spacing violation on layer %d track %d between nets %s and %s (gap %d < %d)",
				layer, track, netName(a.Net), netName(b.Net), gap, r.spacing)
		}
	}
	for _, s := range strips {
		if s.Hi-s.Lo+1 < r.minLen {
			errf("minimum line length violation on layer %d track %d net %s (len %d < %d)",
				layer, track, netName(s.Net), s.Hi-s.Lo+1, r.minLen)
		}
	}
}

func (r lineEndRules) LineEndExtension() int { return r.ext }
func (r lineEndRules) MinLineLen() int       { return r.minLen }
func (r lineEndRules) WireCost() int         { return r.wire }

func (r lineEndRules) ViaCost(forbidden bool) int {
	if forbidden {
		return r.forbiddenVia
	}
	return r.via
}

// ExtendSpan applies the line-end extension and the minimum line length
// rule, growing toward Hi first, clamped to the grid extent.
func (r lineEndRules) ExtendSpan(lo, hi, limit int) (int, int) {
	lo -= r.ext
	hi += r.ext
	for hi-lo+1 < r.minLen {
		if hi < limit-1 {
			hi++
		} else if lo > 0 {
			lo--
		} else {
			break
		}
	}
	if lo < 0 {
		lo = 0
	}
	if hi > limit-1 {
		hi = limit - 1
	}
	return lo, hi
}
