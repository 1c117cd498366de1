package main

import (
	"context"
	"fmt"

	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/metrics"
	"cpr/internal/pipeline"
	"cpr/internal/router"
)

// layeredResult is what the traced run of one CPR flow produced, in the
// terms the untraced core result is compared with.
type layeredResult struct {
	panels    []core.PanelReport
	objective float64
	router    *router.Result
	metrics   metrics.Routing
	artifacts *pipeline.ArtifactSet
	opSpan    int

	intervals, conflictSets, converged int
	reusedPanels, splicedRegions       int
	netsAttempted, netsAttemptedRouted int
}

// layeredPinAccess runs the pin-access half of core.OptimizePinAccess
// as separate calls into each layer, panel after panel, and records a
// span around each: the panel key (pipeline), interval generation
// (pinaccess), the conflict sweep (conflict) and LR assignment
// (lagrange). Panels whose key is in prev are taken from it, as
// core.Rerun does. By the determinism contract of internal/parallel the
// artifacts equal those of core's panel-parallel run.
func layeredPinAccess(tr *tracer, d *design.Design, workers int, prev map[string]*pipeline.PanelArtifact, lr *layeredResult) error {
	cfg := core.Options{}.SolverConfig()
	var idx *design.TrackIndex
	tr.call("pinaccess", "design.BuildTrackIndex", func() { idx = d.BuildTrackIndex() })
	lr.artifacts = &pipeline.ArtifactSet{Fingerprint: cfg.Fingerprint()}
	for panel := 0; panel < d.NumPanels(); panel++ {
		pins := d.PinsInPanel(panel)
		if len(pins) == 0 {
			continue
		}
		var key string
		tr.call("pipeline", "pipeline.PanelKeyFor", func() { key = pipeline.PanelKeyFor(d, idx, panel, cfg) })
		art, reused := prev[key]
		if reused {
			lr.reusedPanels++
		} else {
			var (
				set   *pipeline.IntervalSet
				model *pipeline.ConflictModel
				sol   *pipeline.Assignment
				err   error
			)
			tr.call("pinaccess", "pipeline.GenerateStage", func() { set, err = pipeline.GenerateStage(d, idx, pins, workers) })
			if err != nil {
				return fmt.Errorf("panel %d: %w", panel, err)
			}
			tr.call("conflict", "pipeline.ConflictStage", func() { model = pipeline.ConflictStage(set, cfg, workers) })
			tr.call("lagrange", "pipeline.AssignStage", func() { sol, err = pipeline.AssignStage(context.Background(), model, cfg, workers) })
			if err != nil {
				return fmt.Errorf("panel %d: %w", panel, err)
			}
			// pipeline.SolvePanel keys its artifact a second time.
			tr.call("pipeline", "pipeline.PanelKeyFor", func() { key = pipeline.PanelKeyFor(d, idx, panel, cfg) })
			art = &pipeline.PanelArtifact{
				Panel: panel, Key: key, Intervals: set, Assignment: sol,
				NumConflicts: len(model.Model.Conflicts.Sets),
			}
			lr.intervals += len(set.Set.Intervals)
			lr.conflictSets += art.NumConflicts
		}
		if art.Assignment.Converged {
			lr.converged++
		}
		pr := core.PanelReport{
			Panel:      art.Panel,
			Pins:       len(art.Intervals.Set.PinIDs),
			Intervals:  len(art.Intervals.Set.Intervals),
			Conflicts:  art.NumConflicts,
			Objective:  art.Assignment.Solution.Objective,
			Violations: art.Assignment.Solution.Violations,
			Converged:  art.Assignment.Converged,
		}
		lr.panels = append(lr.panels, pr)
		lr.objective += pr.Objective
		lr.artifacts.Panels = append(lr.artifacts.Panels, art)
	}
	return nil
}

// layeredFlow runs core's ModeCPR flow (cold, or a strict rerun against
// prev) as a sequence of timed calls into the layers: pin access as in
// layeredPinAccess inside a "core.pinopt" span, then the router
// (grid.New, router.New, SeedAssignment, Partition, RunPlan), the route
// keys of a rerun and the route artifacts (pipeline).
func layeredFlow(tr *tracer, d *design.Design, workers int, prev *pipeline.ArtifactSet) (*layeredResult, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	lr := &layeredResult{}
	lr.opSpan = tr.begin("op", "flow")
	defer tr.end(lr.opSpan)

	var (
		g *grid.Graph
		r *router.Router
	)
	tr.call("router", "router.New", func() {
		g = grid.New(d)
		r = router.New(d, g, router.Config{Workers: workers})
	})
	var prevPanels map[string]*pipeline.PanelArtifact
	var prevRoutes map[string]*pipeline.RouteArtifact
	if prev != nil {
		prevPanels, prevRoutes = prev.ByKey(), prev.ByRouteKey()
	}
	pi := tr.begin("core", "core.pinopt")
	err := layeredPinAccess(tr, d, workers, prevPanels, lr)
	tr.end(pi)
	if err != nil {
		return nil, err
	}
	var plan *router.Plan
	tr.call("router", "router.SeedAssignment+Partition", func() {
		for _, a := range lr.artifacts.Panels {
			r.SeedAssignment(a.Intervals.Set, a.Assignment.Solution)
		}
		plan = r.Partition()
	})
	spliced := map[int]*router.SplicedRegion{}
	if prevRoutes != nil {
		for _, rg := range plan.Regions {
			var key string
			tr.call("pipeline", "pipeline.RouteKeyFor", func() { key = pipeline.RouteKeyFor(d, r, rg) })
			if a, ok := prevRoutes[key]; ok && equalInts(a.Nets, rg.Nets) {
				spliced[rg.ID] = &router.SplicedRegion{Routes: a.Routes, Summary: a.Summary}
			}
		}
	}
	lr.splicedRegions = len(spliced)
	tr.call("router", "router.RunPlan", func() {
		lr.router = r.RunPlan(context.Background(), plan, router.RunOpts{Workers: workers, Spliced: spliced})
	})
	tr.call("pipeline", "pipeline.BuildRouteArtifacts", func() {
		lr.artifacts.RouterFingerprint = pipeline.RouterFingerprint(r.Configuration())
		lr.artifacts.Routes = pipeline.BuildRouteArtifacts(d, r, plan, lr.router, true)
	})
	lr.metrics = metrics.FromResult(d, lr.router)
	for _, rg := range plan.Regions {
		if spliced[rg.ID] != nil {
			continue
		}
		for _, n := range rg.Nets {
			lr.netsAttempted++
			if nr := lr.router.Routes[n]; nr != nil && nr.Routed {
				lr.netsAttemptedRouted++
			}
		}
	}
	return lr, nil
}

// timeCodec round-trips every panel and route artifact of a set through
// the block codecs inside one "pipeline" span, checking each decodes.
func timeCodec(tr *tracer, arts *pipeline.ArtifactSet) error {
	var err error
	tr.call("pipeline", "pipeline.codec", func() {
		for _, a := range arts.Panels {
			var b []byte
			if b, err = pipeline.MarshalPanelArtifact(a); err != nil {
				return
			}
			if _, err = pipeline.UnmarshalPanelArtifact(b); err != nil {
				return
			}
		}
		for _, a := range arts.Routes {
			var b []byte
			if b, err = pipeline.MarshalRouteArtifact(a); err != nil {
				return
			}
			if _, err = pipeline.UnmarshalRouteArtifact(b); err != nil {
				return
			}
		}
	})
	return err
}

// recordLayers stores the per-layer metrics of a traced flow.
func recordLayers(out *outcome, tr *tracer, lr *layeredResult, untracedMedian float64) {
	m := out.metrics
	opS := tr.spans[lr.opSpan].seconds()
	m["trace.op_ms"] = opS * 1000
	m["trace.overhead_ms"] = (opS - untracedMedian) * 1000
	m["trace.uncovered_ms"] = tr.uncovered(lr.opSpan) * 1000

	busy, alloc, mallocs := tr.layerTotals("router")
	m["router.busy_s"], m["router.alloc_mb"], m["router.mallocs"] = busy, float64(alloc)/(1<<20), float64(mallocs)
	if res := lr.router; res != nil {
		m["router.regions"] = float64(res.Regions)
		m["router.negotiation_iters"] = float64(res.NegotiationIters)
		m["router.initial_congested"] = float64(res.InitialCongested)
		m["router.congestion_unrouted"] = float64(res.CongestionUnrouted)
		m["router.drc_unrouted"] = float64(res.DRCUnrouted)
		m["router.vias"] = float64(res.Vias)
		m["router.wirelength"] = float64(res.Wirelength)
		if lr.netsAttempted > 0 {
			m["router.routed_ratio"] = float64(lr.netsAttemptedRouted) / float64(lr.netsAttempted)
		}
	}
	m["pinaccess.busy_s"], _, _ = tr.layerTotals("pinaccess")
	m["pinaccess.intervals"] = float64(lr.intervals)
	m["conflict.busy_s"], _, _ = tr.layerTotals("conflict")
	m["conflict.sets"] = float64(lr.conflictSets)
	m["lagrange.busy_s"], _, _ = tr.layerTotals("lagrange")
	if n := len(lr.panels); n > 0 {
		m["lagrange.converged_ratio"] = float64(lr.converged) / float64(n)
	}
	_, alloc, _ = tr.layerTotals("core")
	m["pinopt.alloc_mb"] = float64(alloc) / (1 << 20)
	var keys, arts, codec float64
	for _, s := range tr.spans {
		switch s.Name {
		case "pipeline.PanelKeyFor", "pipeline.RouteKeyFor":
			keys += s.seconds()
		case "pipeline.BuildRouteArtifacts":
			arts += s.seconds()
		case "pipeline.codec":
			codec += s.seconds()
		}
	}
	m["pipeline.key_s"], m["pipeline.route_artifacts_s"], m["pipeline.codec_s"] = keys, arts, codec
}

// sameFlow reports how a traced flow differs from the untraced core
// result of the same design: metrics row (wall-clock fields zeroed),
// pin-access objective, and per-panel reports. Empty means identical.
func sameFlow(lr *layeredResult, res *core.RunResult) string {
	if a, b := lr.metrics.ZeroTimes().Row(), res.Metrics.ZeroTimes().Row(); a != b {
		return fmt.Sprintf("metrics row %q != untraced %q", a, b)
	}
	return samePinAccess(lr.panels, lr.objective, res.PinOpt)
}

// samePinAccess compares per-panel reports and their objective with a
// reference pin-access report.
func samePinAccess(panels []core.PanelReport, objective float64, ref *core.PinOptReport) string {
	if objective != ref.Objective {
		return fmt.Sprintf("objective %v != %v", objective, ref.Objective)
	}
	if len(panels) != len(ref.Panels) {
		return fmt.Sprintf("%d panels != %d", len(panels), len(ref.Panels))
	}
	for i := range panels {
		if panels[i] != ref.Panels[i] {
			return fmt.Sprintf("panel report %+v != %+v", panels[i], ref.Panels[i])
		}
	}
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
