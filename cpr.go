// Package cpr is a Go reproduction of "Concurrent Pin Access Optimization
// for Unidirectional Routing" (Xu, Lin, Livramento, Pan — DAC 2017).
//
// It provides, as one library:
//
//   - the concurrent pin access optimizer: track-based pin access interval
//     generation, linear conflict set detection, and the weighted interval
//     assignment problem solved exactly (branch-and-bound binary ILP over
//     a built-in simplex) or at scale (Lagrangian relaxation with
//     subgradient multiplier updates);
//   - the concurrent pin access router (CPR): a negotiation-congestion
//     unidirectional M2/M3 router that consumes the assigned intervals as
//     partial routes and enforces SADP line-end rules;
//   - the paper's two baselines on the same substrate: sequential pin
//     access planning ([12]-style) and negotiation routing without pin
//     access optimization ([21]-style);
//   - a deterministic synthetic benchmark generator standing in for the
//     paper's circuits, plus the experiment harness reproducing every
//     table and figure of the evaluation.
//
// Quick start:
//
//	d, _ := cpr.GenerateCircuit(cpr.Spec{Name: "demo", Nets: 100, Width: 120, Height: 40, Seed: 1})
//	res, _ := cpr.Run(d, cpr.Options{Mode: cpr.ModeCPR})
//	fmt.Println(res.Metrics.Row())
//
// See the examples/ directory and cmd/experiments for complete programs.
package cpr

import (
	"context"
	"io"

	"cpr/internal/assign"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/experiments"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/metrics"
	"cpr/internal/pinaccess"
	"cpr/internal/render"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/tech"
	"cpr/internal/verify"
)

// Core geometry and design types.
type (
	// Interval is a closed 1-D grid span.
	Interval = geom.Interval
	// Rect is a closed 2-D grid rectangle.
	Rect = geom.Rect
	// Design is a netlist with placed pins and blockages on a routing
	// grid.
	Design = design.Design
	// Pin is one I/O pin on M1.
	Pin = design.Pin
	// Net is a set of pins to connect.
	Net = design.Net
	// Technology bundles layer, rule, and cost parameters.
	Technology = tech.Technology
)

// Synthetic benchmark generation.
type (
	// Spec parameterizes a synthetic circuit.
	Spec = synth.Spec
)

// Pin access optimization types.
type (
	// AccessInterval is one candidate pin access interval.
	AccessInterval = pinaccess.Interval
	// IntervalSet is the generated candidate set for a pin group.
	IntervalSet = pinaccess.Set
	// AssignmentModel is a weighted interval assignment instance.
	AssignmentModel = assign.Model
	// AssignmentSolution is a selection of intervals for pins.
	AssignmentSolution = assign.Solution
	// LRConfig tunes the Lagrangian relaxation solver.
	LRConfig = lagrange.Config
	// LRResult reports a Lagrangian relaxation run.
	LRResult = lagrange.Result
	// ILPConfig bounds the exact branch-and-bound solver.
	ILPConfig = ilp.Config
)

// Flow types.
type (
	// Options configures a flow run.
	Options = core.Options
	// Mode selects CPR or one of the two baselines.
	Mode = core.Mode
	// Optimizer selects LR or exact ILP pin access optimization.
	Optimizer = core.Optimizer
	// RunResult is a completed flow run.
	RunResult = core.RunResult
	// PinOptReport aggregates pin access optimization over panels.
	PinOptReport = core.PinOptReport
	// RouterConfig tunes the negotiation router.
	RouterConfig = router.Config
	// Metrics is a Table 2 style metric row.
	Metrics = metrics.Routing
	// ExperimentConfig selects circuits and effort for experiments.
	ExperimentConfig = experiments.Config
	// Fig6Point is one LR-vs-ILP scalability sample.
	Fig6Point = experiments.Fig6Point
	// Fig7aRow is one circuit's LR/ILP routing quality ratios.
	Fig7aRow = experiments.Fig7aRow
	// Fig7bRow is one circuit's initial congested grid counts.
	Fig7bRow = experiments.Fig7bRow
)

// Flow modes (paper §5 comparison arms).
const (
	// ModeCPR is the paper's concurrent pin access router.
	ModeCPR = core.ModeCPR
	// ModeNoPinOpt is the negotiation baseline of [21].
	ModeNoPinOpt = core.ModeNoPinOpt
	// ModeSequential is the sequential planning baseline of [12].
	ModeSequential = core.ModeSequential

	// OptLR selects Lagrangian relaxation (scalable, default).
	OptLR = core.OptLR
	// OptILP selects the exact branch-and-bound ILP.
	OptILP = core.OptILP
)

// DefaultTechnology returns the paper's §5 technology setup: 10-track
// panels, base grid cost 1, forbidden via cost 10, LR bound 200.
func DefaultTechnology() *Technology { return tech.Default() }

// NewDesign creates an empty design on a width x height grid.
func NewDesign(name string, width, height int, t *Technology) *Design {
	return design.New(name, width, height, t)
}

// GenerateCircuit builds a synthetic benchmark circuit from a spec.
func GenerateCircuit(spec Spec) (*Design, error) { return synth.Generate(spec) }

// TableCircuits returns the specs of the paper's six Table 2 circuits.
func TableCircuits() []Spec { return synth.TableSpecs() }

// CircuitByName returns the Table 2 spec with the given name
// (ecc, efc, ctl, alu, div, top).
func CircuitByName(name string) (Spec, error) { return synth.SpecByName(name) }

// Run executes the selected routing flow on a validated design.
//
// Pin access optimization is track-sharded and runs on opts.Workers
// goroutines (0 = GOMAXPROCS, 1 = fully sequential). The result is
// byte-identical for every worker count; only the Metrics seconds fields
// (CPUSeconds, OptimizeSeconds, RouteSeconds, VerifySeconds) vary
// between runs.
func Run(d *Design, opts Options) (*RunResult, error) { return core.Run(d, opts) }

// RunContext is Run with cancellation: ctx is polled between panel
// subproblems, between LR subgradient iterations, and between pipeline
// stages, so a canceled or timed-out run stops promptly with an error
// wrapping ctx.Err(). A context that never fires leaves the result
// byte-identical to Run.
func RunContext(ctx context.Context, d *Design, opts Options) (*RunResult, error) {
	return core.RunContext(ctx, d, opts)
}

// DesignHash returns the hex SHA-256 of the design's canonical cpr-design
// encoding — the content address the cprd daemon's result cache keys on.
func DesignHash(d *Design) (string, error) { return designio.Hash(d) }

// OptimizePinAccess runs concurrent pin access optimization only (no
// routing) and returns per-panel reports plus the interval seeds.
func OptimizePinAccess(d *Design, opts Options) (*PinOptReport, []core.PanelSeed, error) {
	return core.OptimizePinAccess(d, opts)
}

// BuildAssignmentModel generates pin access intervals for the given pins
// and assembles the weighted interval assignment model with the paper's
// sqrt profit. Pass nil pins to use every pin of the design.
func BuildAssignmentModel(d *Design, pins []int) (*AssignmentModel, error) {
	if pins == nil {
		pins = make([]int, len(d.Pins))
		for i := range pins {
			pins[i] = i
		}
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
	if err != nil {
		return nil, err
	}
	return assign.Build(set, assign.SqrtProfit), nil
}

// SolveLR runs the Lagrangian relaxation solver on an assignment model.
func SolveLR(m *AssignmentModel, cfg LRConfig) LRResult {
	return lagrange.Solve(context.Background(), m, cfg)
}

// SolveILP runs the exact branch-and-bound solver on an assignment model.
func SolveILP(m *AssignmentModel, cfg ILPConfig) (*AssignmentSolution, error) {
	sol, _, err := m.SolveILP(cfg)
	return sol, err
}

// SaveDesign writes a design in the cpr-design text format.
func SaveDesign(w io.Writer, d *Design) error { return designio.Write(w, d) }

// LoadDesign reads a design in the cpr-design text format and validates
// it.
func LoadDesign(r io.Reader) (*Design, error) { return designio.Read(r) }

// RenderSVG draws a design and (optionally) a completed run's routes as
// an SVG document.
func RenderSVG(w io.Writer, d *Design, res *RunResult) error {
	var rres *router.Result
	if res != nil {
		rres = res.Router
	}
	return render.SVG(w, d, grid.New(d), rres, nil, render.SVGOptions{})
}

// VerifyRouting independently re-checks a run's routes for connectivity,
// exclusivity, and line-end rules; it returns the violations found (nil
// means clean).
func VerifyRouting(d *Design, res *RunResult) []string {
	rep := verify.Check(d, grid.New(d), res.Router)
	return rep.Errors
}

// CutMaskParams tunes the SADP cut mask rules. Nil fields inherit the
// design technology's (resolved) SADP patterning parameters, so an
// explicit zero is honored rather than silently replaced by the default.
type CutMaskParams struct {
	// CutSpacing is the minimum free distance (grid cells) between two
	// distinct cuts on the same or adjacent tracks. Nil inherits the
	// technology's value (default 2).
	CutSpacing *int
	// MergeTolerance is the maximum along-track offset at which cuts on
	// adjacent tracks still merge into one cut shape. Nil inherits the
	// technology's value (default 0: exact alignment).
	MergeTolerance *int
}

// CutMaskReport is the SADP cut mask analysis of a routing result.
type CutMaskReport struct {
	// LineEnds counts all metal strip ends (two per strip, minus grid
	// boundary ends, which need no cut).
	LineEnds int
	// Shapes is the merged cut mask, deterministic order.
	Shapes []tech.CutShape
	// Conflicts counts pairs of distinct shapes on the same or adjacent
	// tracks closer than CutSpacing along the track direction.
	Conflicts int
}

// MaskComplexity is the number of distinct cut shapes after merging —
// the metric cut mask optimization minimizes.
func (r *CutMaskReport) MaskComplexity() int { return len(r.Shapes) }

// AnalyzeCutMask extracts, merges, and checks the SADP cut mask implied
// by a run's routes (the paper's SAMP extendability, §4).
func AnalyzeCutMask(d *Design, res *RunResult, params CutMaskParams) *CutMaskReport {
	p := d.Tech.Patterning.Resolved()
	cutSpacing, mergeTol := p.CutSpacing, p.MergeTolerance
	if params.CutSpacing != nil {
		cutSpacing = *params.CutSpacing
	}
	if params.MergeTolerance != nil {
		mergeTol = *params.MergeTolerance
	}
	segs := router.ResultSegments(grid.New(d), res.Router)
	mask := tech.AnalyzeCuts(segs, d.Width, d.Height, d.Tech.LineEndExtension, mergeTol, cutSpacing)
	return &CutMaskReport{LineEnds: mask.LineEnds, Shapes: mask.CutShapes, Conflicts: mask.Conflicts}
}

// Experiment entry points: each regenerates one table or figure of the
// paper's evaluation, writing a formatted report to w.

// RunTable2 regenerates Table 2 (three routers over the benchmark set).
func RunTable2(w io.Writer, cfg ExperimentConfig) error { return experiments.Table2(w, cfg) }

// RunFig6 regenerates Figures 6(a) and 6(b) (LR vs ILP scalability).
func RunFig6(w io.Writer, cfg ExperimentConfig) ([]experiments.Fig6Point, error) {
	return experiments.Fig6(w, cfg)
}

// RunFig7a regenerates Figure 7(a) (LR/ILP routing quality ratios).
func RunFig7a(w io.Writer, cfg ExperimentConfig) ([]experiments.Fig7aRow, error) {
	return experiments.Fig7a(w, cfg)
}

// RunFig7b regenerates Figure 7(b) (initial congested grid counts).
func RunFig7b(w io.Writer, cfg ExperimentConfig) ([]experiments.Fig7bRow, error) {
	return experiments.Fig7b(w, cfg)
}
