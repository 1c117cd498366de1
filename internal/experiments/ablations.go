package experiments

import (
	"context"
	"fmt"
	"io"

	"cpr/internal/assign"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/lagrange"
	"cpr/internal/pinaccess"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/tech"
)

// AblationProfit compares the paper's sqrt profit against a linear profit
// on one sweep instance: sqrt trades a little total length for much
// better balance (lower per-pin length standard deviation), which is the
// design rationale stated in §3.3.
func AblationProfit(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	pins := 800
	if cfg.Quick {
		pins = 200
	}
	d, err := synth.Generate(synth.SweepSpec(pins, 91))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %10s %10s %10s %10s\n", "profit", "totalLen", "meanLen", "stddev", "minLen")
	for _, p := range []struct {
		name string
		fn   assign.ProfitFn
	}{{"sqrt", assign.SqrtProfit}, {"linear", assign.LinearProfit}} {
		model, err := wholeDesignModelWithProfit(d, p.fn)
		if err != nil {
			return err
		}
		res := lagrange.Solve(context.Background(), model, lagrange.Config{})
		st := res.Solution.Lengths(model.Set)
		fmt.Fprintf(w, "%-8s %10d %10.2f %10.2f %10d\n", p.name, st.Total, st.Mean, st.StdDev, st.Min)
	}
	return nil
}

// wholeDesignModelWithProfit is wholeDesignModel with a custom profit
// function.
func wholeDesignModelWithProfit(d *design.Design, fn assign.ProfitFn) (*assign.Model, error) {
	pins := make([]int, len(d.Pins))
	for i := range pins {
		pins[i] = i
	}
	set, err := pinaccess.Generate(d, d.BuildTrackIndex(), pins)
	if err != nil {
		return nil, err
	}
	return assign.Build(set, fn), nil
}

// AblationTieBreak measures the effect of Algorithm 1's same-net-pin
// tie-breaking rule on solution quality.
func AblationTieBreak(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	pins := 800
	if cfg.Quick {
		pins = 200
	}
	d, err := synth.Generate(synth.SweepSpec(pins, 92))
	if err != nil {
		return err
	}
	model, err := wholeDesignModel(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "tie-break", "objective", "iterations", "converged")
	for _, tb := range []bool{true, false} {
		res := lagrange.Solve(context.Background(), model, lagrange.Config{DisableSameNetTieBreak: !tb})
		fmt.Fprintf(w, "%-12v %12.1f %12d %12v\n", tb, res.Solution.Objective, res.Iterations, res.Converged)
	}
	return nil
}

// AblationAlpha sweeps the subgradient step exponent alpha around the
// paper's 0.95 and reports LR convergence behaviour.
func AblationAlpha(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	pins := 800
	if cfg.Quick {
		pins = 200
	}
	d, err := synth.Generate(synth.SweepSpec(pins, 93))
	if err != nil {
		return err
	}
	model, err := wholeDesignModel(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %12s %12s %14s %12s\n", "alpha", "objective", "iterations", "bestViolations", "converged")
	for _, alpha := range []float64{0.5, 0.8, 0.95, 1.0} {
		res := lagrange.Solve(context.Background(), model, lagrange.Config{Alpha: alpha})
		fmt.Fprintf(w, "%-8.2f %12.1f %12d %14d %12v\n",
			alpha, res.Solution.Objective, res.Iterations, res.BestViolations, res.Converged)
	}
	return nil
}

// AblationRefinement quantifies the greedy conflict removal step
// (Algorithm 2, line 11): without it, LR solutions may stay illegal.
func AblationRefinement(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	pins := 800
	if cfg.Quick {
		pins = 200
	}
	d, err := synth.Generate(synth.SweepSpec(pins, 94))
	if err != nil {
		return err
	}
	model, err := wholeDesignModel(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "refinement", "objective", "violations", "shrunkPins")
	for _, skip := range []bool{false, true} {
		res := lagrange.Solve(context.Background(), model, lagrange.Config{SkipRefinement: skip, MaxIterations: 20})
		fmt.Fprintf(w, "%-14v %12.1f %12d %12d\n",
			!skip, res.Solution.Objective, res.Solution.Violations, res.ShrunkPins)
	}
	return nil
}

// AblationSubgradient compares the paper's increase-on-violation-only
// multiplier update against full textbook subgradient descent.
func AblationSubgradient(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	pins := 800
	if cfg.Quick {
		pins = 200
	}
	d, err := synth.Generate(synth.SweepSpec(pins, 95))
	if err != nil {
		return err
	}
	model, err := wholeDesignModel(d)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %12s %12s %14s\n", "update rule", "objective", "iterations", "bestViolations")
	for _, full := range []bool{false, true} {
		name := "violation-only"
		if full {
			name = "full-subgradient"
		}
		res := lagrange.Solve(context.Background(), model, lagrange.Config{FullSubgradient: full})
		fmt.Fprintf(w, "%-18s %12.1f %12d %14d\n",
			name, res.Solution.Objective, res.Iterations, res.BestViolations)
	}
	return nil
}

// CutMaskComparison compares the three routing flows on SADP cut mask
// friendliness: line-end count, merged cut shape count (mask complexity),
// and residual cut conflicts.
func CutMaskComparison(w io.Writer, cfg Config) error {
	cfg = cfg.withDefaults()
	spec := synth.Spec{Name: "cut", Nets: 400, Width: 300, Height: 160, Seed: 9}
	if cfg.Quick {
		spec = synth.Spec{Name: "cut", Nets: 120, Width: 160, Height: 80, Seed: 9}
	}
	fmt.Fprintf(w, "%-12s %10s %12s %10s\n", "flow", "lineEnds", "cutShapes", "conflicts")
	for _, mode := range []core.Mode{core.ModeSequential, core.ModeNoPinOpt, core.ModeCPR} {
		d, err := synth.Generate(spec)
		if err != nil {
			return err
		}
		res, err := core.Run(d, core.Options{Mode: mode, Workers: cfg.Workers})
		if err != nil {
			return err
		}
		p := d.Tech.Patterning.Resolved()
		rep := tech.AnalyzeCuts(router.ResultSegments(grid.New(d), res.Router),
			d.Width, d.Height, d.Tech.LineEndExtension, p.MergeTolerance, p.CutSpacing)
		fmt.Fprintf(w, "%-12s %10d %12d %10d\n",
			mode, rep.LineEnds, rep.Shapes, rep.Conflicts)
	}
	return nil
}
