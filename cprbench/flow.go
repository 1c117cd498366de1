package main

import (
	"context"
	"fmt"
	"runtime"

	"cpr/internal/assign"
	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/grid"
	"cpr/internal/synth"
	"cpr/internal/verify"
)

// tableDesigns generates n circuits of Table 2's spec name, design k
// with circuit seed specSeed(seed*n+k, ...), setupRepeats times, and
// returns the last set and the median time of one set.
func tableDesigns(name string, seed int64, n int) ([]*design.Design, float64, error) {
	spec, err := synth.SpecByName(name)
	if err != nil {
		return nil, 0, err
	}
	ds := make([]*design.Design, n)
	setup, err := timeSetup(func() error {
		for k := range ds {
			s := spec
			s.Seed = specSeed(seed*int64(n)+int64(k), spec.Seed)
			if ds[k], err = synth.Generate(s); err != nil {
				return err
			}
		}
		return nil
	})
	return ds, setup, err
}

// flowDesigns ecc circuits are routed in turn in every flow_ecc run.
// Their routing times differ by up to 20 % (one more negotiation round),
// and with a single circuit per run that difference set most of the
// spread between seeds.
const flowDesigns = 4

// runFlowECC times cold core.RunContext flows on ecc circuits. Every
// result must verify clean and repeat the metrics row and objective of
// the first flow of the same circuit.
func runFlowECC(cfg config) (*outcome, error) {
	out := newOutcome()
	designs, setup, err := tableDesigns("ecc", cfg.seed, flowDesigns)
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setup
	opts := core.Options{Workers: cfg.workers}
	// refs keeps the first result of each circuit, without its routes
	// and artifacts.
	refs := make([]*core.RunResult, flowDesigns)
	lat, busy := loop(cfg.seconds, flowDesigns, func(i int) func() {
		out.attempted++
		k := i % flowDesigns
		res, err := core.RunContext(context.Background(), designs[k], opts)
		return func() {
			switch {
			case err != nil:
				out.fail("flow: %v", err)
			case !checkRouted(out, designs[k], res):
				// counted by checkRouted
			case refs[k] == nil:
				res.Router, res.Artifacts = nil, nil
				refs[k] = res
			case res.Metrics.ZeroTimes().Row() != refs[k].Metrics.ZeroTimes().Row() || res.PinOpt.Objective != refs[k].PinOpt.Objective:
				out.fail("flow: result differs from the first run of the same circuit")
			}
		}
	})
	recordLatencies(out, lat, busy)
	var objective float64
	var routed, nets int
	for k, ref := range refs {
		if ref == nil {
			return nil, fmt.Errorf("no flow of circuit %d succeeded", k)
		}
		objective += ref.PinOpt.Objective
		routed += ref.Metrics.RoutedNets
		nets += ref.Metrics.TotalNets
	}
	out.metrics["objective"] = objective
	out.metrics["routed_pct"] = 100 * float64(routed) / float64(nets)
	if err := recordRSS(out); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}
	runtime.GC()
	tr := newTracer()
	lr, err := layeredFlow(tr, designs[0], cfg.workers, nil)
	if err != nil {
		return nil, fmt.Errorf("traced flow: %w", err)
	}
	out.attempted++
	if diff := sameFlow(lr, refs[0]); diff != "" {
		out.fail("traced flow differs from untraced: %s", diff)
	}
	if err := timeCodec(tr, lr.artifacts); err != nil {
		out.fail("codec: %v", err)
	}
	var first []float64 // untraced flows of the traced circuit
	for i := 0; i < len(lat); i += flowDesigns {
		first = append(first, lat[i])
	}
	recordLayers(out, tr, lr, quantile(first, 0.5))
	return out, writeTrace(out, tr, cfg, "flow_ecc")
}

// checkRouted counts a failure when res does not verify clean on a fresh
// grid, and reports whether it did.
func checkRouted(out *outcome, d *design.Design, res *core.RunResult) bool {
	rep := verify.Check(d, grid.New(d), res.Router)
	if !rep.Ok() {
		out.fail("verify: %d violations, first: %s", len(rep.Errors), rep.Errors[0])
	}
	return rep.Ok()
}

// recordRSS stores this process's peak resident set.
func recordRSS(out *outcome) error {
	mb, err := peakRSSMB("self")
	out.metrics["peak_rss_mb"] = mb
	return err
}

// writeTrace saves the spans and notes where.
func writeTrace(out *outcome, tr *tracer, cfg config, name string) error {
	path, err := tr.write(cfg.root, fmt.Sprintf("%s-seed%d", name, cfg.seed))
	out.notes["trace_file"] = path
	return err
}

// runPinoptTop times core.OptimizePinAccessContext on top. Every panel
// of every result must pass the assignment model's legality check, and
// every result must repeat the first one's reports.
func runPinoptTop(cfg config) (*outcome, error) {
	out := newOutcome()
	designs, setup, err := tableDesigns("top", cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	d := designs[0]
	out.metrics["setup_s"] = setup
	opts := core.Options{Workers: cfg.workers}
	var ref *core.PinOptReport
	var legalPins int
	lat, busy := loop(cfg.seconds, 1, func(int) func() {
		out.attempted++
		rep, seeds, err := core.OptimizePinAccessContext(context.Background(), d, opts)
		return func() {
			if err != nil {
				out.fail("pinopt: %v", err)
				return
			}
			legal := 0
			for _, s := range seeds {
				if err := assign.Build(s.Set, assign.SqrtProfit).CheckLegal(s.Solution); err != nil {
					out.fail("pinopt: panel with pins %v: %v", s.Set.PinIDs[:1], err)
					continue
				}
				legal += len(s.Set.PinIDs)
			}
			if ref == nil {
				ref, legalPins = rep, legal
				return
			}
			if diff := samePinAccess(rep.Panels, rep.Objective, ref); diff != "" {
				out.fail("pinopt: result differs from the first run: %s", diff)
			}
		}
	})
	recordLatencies(out, lat, busy)
	if ref == nil {
		return nil, fmt.Errorf("no pin-access run succeeded")
	}
	out.metrics["objective"] = ref.Objective
	out.metrics["routed_pct"] = 100 * float64(legalPins) / float64(ref.TotalPins)
	out.notes["pins"], out.notes["panels"] = ref.TotalPins, len(ref.Panels)
	if err := recordRSS(out); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return out, nil
	}
	runtime.GC()
	tr := newTracer()
	lr := &layeredResult{}
	lr.opSpan = tr.begin("op", "pinopt")
	pi := tr.begin("core", "core.pinopt")
	err = layeredPinAccess(tr, d, cfg.workers, nil, lr)
	tr.end(pi)
	tr.end(lr.opSpan)
	if err != nil {
		return nil, fmt.Errorf("traced pin access: %w", err)
	}
	out.attempted++
	if diff := samePinAccess(lr.panels, lr.objective, ref); diff != "" {
		out.fail("traced pin access differs from untraced: %s", diff)
	}
	recordLayers(out, tr, lr, quantile(lat, 0.5))
	return out, writeTrace(out, tr, cfg, "pinopt_top")
}
