package experiments

import (
	"fmt"
	"io"

	"cpr/internal/core"
	"cpr/internal/grid"
	"cpr/internal/router"
	"cpr/internal/synth"
	"cpr/internal/tech"
	"cpr/internal/verify"
)

// RuleEngineRow is one circuit routed under one multi-patterning rule
// engine.
type RuleEngineRow struct {
	Circuit     string
	Engine      string
	RoutedPct   float64
	Vias        int
	Wirelength  int
	Colors      int
	Shapes      int
	Stitches    int
	Uncolorable int
	Conflicts   int
	VerifyOK    bool
	CPUSeconds  float64
}

// RuleEngineMatrix routes every selected circuit under each of the three
// rule engines (sadp, lele, tpl) and reports routing quality next to the
// engine's mask decomposition analysis. The hard acceptance property is
// that tpl leaves zero uncolorable segments: the router's conflict
// pricing plus stitch insertion must always reach a legal 3-coloring on
// these circuits. Every run is also checked by the independent verifier.
func RuleEngineMatrix(w io.Writer, cfg Config) ([]RuleEngineRow, error) {
	cfg = cfg.withDefaults()
	engines := []string{tech.EngineSADP, tech.EngineLELE, tech.EngineTPL}
	fmt.Fprintf(w, "%-8s %-6s %7s %8s %9s %7s %8s %9s %12s %10s %8s %8s\n",
		"circuit", "engine", "Rout%", "Via#", "WL", "colors", "shapes",
		"stitches", "uncolorable", "conflicts", "verify", "cpu(s)")
	var rows []RuleEngineRow
	for _, name := range cfg.Circuits {
		for _, engine := range engines {
			spec, err := synth.SpecByName(name)
			if err != nil {
				return nil, err
			}
			d, err := synth.Generate(spec)
			if err != nil {
				return nil, err
			}
			// Tag the design itself (not Options.RuleEngine) so the mask
			// analysis below sees the same tech the run routed under.
			tc := *d.Tech
			tc.Patterning.Engine = engine
			d.Tech = &tc
			res, err := core.Run(d, core.Options{Mode: core.ModeCPR, Workers: cfg.Workers})
			if err != nil {
				return nil, fmt.Errorf("rule-engine matrix %s/%s: %w", name, engine, err)
			}
			g := grid.New(d)
			rules := tech.RulesFor(d.Tech)
			mask := rules.AnalyzeMask(router.ResultSegments(g, res.Router), d.Width, d.Height)
			rep := verify.Check(d, g, res.Router)
			row := RuleEngineRow{
				Circuit:     name,
				Engine:      engine,
				RoutedPct:   res.Metrics.RoutPct,
				Vias:        res.Metrics.Vias,
				Wirelength:  res.Metrics.WL,
				Colors:      mask.Colors,
				Shapes:      mask.Shapes,
				Stitches:    mask.Stitches,
				Uncolorable: mask.Uncolorable,
				Conflicts:   mask.Conflicts,
				VerifyOK:    rep.Ok(),
				CPUSeconds:  res.Metrics.CPUSeconds,
			}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-8s %-6s %7.2f %8d %9d %7d %8d %9d %12d %10d %8v %8.2f\n",
				row.Circuit, row.Engine, row.RoutedPct, row.Vias, row.Wirelength,
				row.Colors, row.Shapes, row.Stitches, row.Uncolorable, row.Conflicts,
				row.VerifyOK, row.CPUSeconds)
			if engine == tech.EngineTPL && row.Uncolorable != 0 {
				return rows, fmt.Errorf("rule-engine matrix %s/tpl: %d uncolorable segments (want 0)",
					name, row.Uncolorable)
			}
			if !row.VerifyOK {
				return rows, fmt.Errorf("rule-engine matrix %s/%s: verification failed: %v",
					name, engine, rep.Errors)
			}
		}
	}
	return rows, nil
}
