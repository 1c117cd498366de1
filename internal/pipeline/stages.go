package pipeline

import (
	"context"
	"fmt"
	"strings"

	"cpr/internal/assign"
	"cpr/internal/cache"
	"cpr/internal/design"
	"cpr/internal/ilp"
	"cpr/internal/lagrange"
	"cpr/internal/pinaccess"
	"cpr/internal/telemetry"
)

// SolverConfig carries the result-affecting knobs of the assignment
// stages. It deliberately excludes worker counts: the determinism
// contract of internal/parallel makes every artifact byte-identical for
// every worker count, so concurrency never reaches a content address.
//
//keypurity:options
type SolverConfig struct {
	// UseILP selects the exact branch-and-bound solver; LR otherwise.
	// An ILP run that hits its limits falls back to LR, mirroring how a
	// production flow degrades.
	UseILP bool
	// ILP configures the exact solver.
	ILP ilp.Config
	// LR configures the Lagrangian relaxation solver.
	LR lagrange.Config
}

// Cacheable reports whether panel artifacts produced under this config
// may be content-addressed and reused. ILP with a wall-clock TimeLimit
// opts out: the incumbent at the deadline is timing-dependent, so equal
// keys would not imply equal artifacts.
func (c SolverConfig) Cacheable() bool {
	return !(c.UseILP && c.ILP.TimeLimit > 0)
}

// Fingerprint renders the result-affecting solver fields into a
// canonical string, the second half of the per-panel cache key. Router
// and sequential-baseline options are deliberately absent — they cannot
// affect pin access artifacts — so a router reconfiguration still reuses
// every panel.
//
//keypurity:encoder stage
func (c SolverConfig) Fingerprint() string {
	var b strings.Builder
	opt := "lr"
	if c.UseILP {
		opt = "ilp"
	}
	fmt.Fprintf(&b, "pinopt-v1 optimizer=%s", opt)
	fmt.Fprintf(&b, " lr=%d,%g,%t,%t,%t,%t",
		c.LR.MaxIterations, c.LR.Alpha, c.LR.DisableSameNetTieBreak,
		c.LR.FullSubgradient, c.LR.SkipRefinement, c.LR.SkipPostImprove)
	fmt.Fprintf(&b, " ilp=%d,%d", c.ILP.MaxNodes, int64(c.ILP.TimeLimit))
	return b.String()
}

// PanelKeyFor returns the content address of panel p's artifacts under
// the given solver fingerprint, or "" when the config is uncacheable.
func PanelKeyFor(d *design.Design, idx *design.TrackIndex, panel int, cfg SolverConfig) string {
	if !cfg.Cacheable() {
		return ""
	}
	return cache.PanelKey(PanelHash(d, idx, panel), cfg.Fingerprint())
}

// GenerateStage runs stage 1 for one panel: track-based interval
// generation over the panel's pins (paper §3.1). workers bounds the
// per-track enumeration concurrency.
func GenerateStage(d *design.Design, idx *design.TrackIndex, pinIDs []int, workers int) (*IntervalSet, error) {
	set, err := pinaccess.GenerateWithOptions(d, idx, pinIDs, pinaccess.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &IntervalSet{Set: set}, nil
}

// ConflictStage runs stage 2: the per-track conflict sweep plus the
// paper's √length profit evaluation, producing the assignment model
// (paper §3.2). No solver option affects this stage.
func ConflictStage(s *IntervalSet, _ SolverConfig, workers int) *ConflictModel {
	return &ConflictModel{Model: assign.BuildWorkers(s.Set, assign.SqrtProfit, workers)}
}

// AssignStage runs stage 3: weighted interval assignment with the
// configured solver, legality-checked (paper §3.3/§3.4). ctx cancels
// between LR subgradient iterations; a context that never fires leaves
// the artifact byte-identical to an uncancellable run.
//
// When the context carries a telemetry span, the LR solver's
// per-iteration convergence series (conflicts remaining, best-so-far,
// primal profit, dual value) is recorded onto it, so an ablation-style
// convergence plot can be regenerated from any trace. The recording is
// read-only: solver results are byte-identical with tracing on or off.
func AssignStage(ctx context.Context, m *ConflictModel, cfg SolverConfig, workers int) (*Assignment, error) {
	model := m.Model
	sp := telemetry.SpanFrom(ctx)
	if cfg.UseILP {
		sol, res, err := model.SolveILP(cfg.ILP)
		if err == nil {
			if err := model.CheckLegal(sol); err != nil {
				return nil, fmt.Errorf("pipeline: illegal ILP assignment: %w", err)
			}
			sp.SetAttr("solver", "ilp")
			sp.SetAttr("ilp_nodes", res.Nodes)
			sp.SetAttr("converged", res.Status == ilp.Optimal)
			return &Assignment{Solution: sol, Converged: res.Status == ilp.Optimal}, nil
		}
		// Fall through to LR on solver limits.
		sp.SetAttr("ilp_fallback", err.Error())
	}
	lrCfg := cfg.LR
	if lrCfg.Workers == 0 {
		lrCfg.Workers = workers
	}
	var series []lagrange.IterationStat
	em := telemetry.EmitterFrom(ctx)
	if (sp != nil || em != nil) && lrCfg.Observer == nil {
		lrCfg.Observer = func(st lagrange.IterationStat) {
			if sp != nil {
				series = append(series, st)
			}
			em.Emit("lr_iteration", map[string]any{
				"iter":            st.Iteration,
				"violations":      st.Violations,
				"best_violations": st.BestViolations,
				"profit":          st.SelectedProfit,
				"dual":            st.DualValue,
			})
		}
	}
	res := lagrange.Solve(ctx, model, lrCfg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := model.CheckLegal(res.Solution); err != nil {
		return nil, fmt.Errorf("pipeline: illegal assignment: %w", err)
	}
	sp.SetAttr("solver", "lr")
	sp.SetAttr("lr_iterations", res.Iterations)
	sp.SetAttr("converged", res.Converged)
	if series != nil {
		sp.SetAttr("lr_series", series)
	}
	return &Assignment{Solution: res.Solution, Converged: res.Converged}, nil
}

// SolvePanel runs the three stages for one panel end to end and bundles
// the result as a keyed PanelArtifact. When the context carries a
// telemetry tracer each stage gets a child span, whose end also feeds
// cpr_stage_seconds when a registry is present; without a tracer the
// overhead is a few nil checks.
//
//keypurity:entry stage
func SolvePanel(ctx context.Context, d *design.Design, idx *design.TrackIndex, panel int, pinIDs []int, cfg SolverConfig, workers int) (*PanelArtifact, error) {
	_, genSpan := telemetry.StartStage(ctx, "generate")
	set, err := GenerateStage(d, idx, pinIDs, workers)
	if err != nil {
		genSpan.End()
		return nil, err
	}
	genSpan.SetAttr("pins", len(pinIDs))
	genSpan.SetAttr("intervals", len(set.Set.Intervals))
	genSpan.End()

	_, confSpan := telemetry.StartStage(ctx, "conflicts")
	model := ConflictStage(set, cfg, workers)
	confSpan.SetAttr("conflict_sets", len(model.Model.Conflicts.Sets))
	confSpan.End()

	assignCtx, assignSpan := telemetry.StartStage(ctx, "assign")
	sol, err := AssignStage(assignCtx, model, cfg, workers)
	assignSpan.End()
	if err != nil {
		return nil, err
	}

	return &PanelArtifact{
		Panel:        panel,
		Key:          PanelKeyFor(d, idx, panel, cfg),
		Intervals:    set,
		Assignment:   sol,
		NumConflicts: len(model.Model.Conflicts.Sets),
	}, nil
}
