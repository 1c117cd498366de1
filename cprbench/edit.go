package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"cpr/internal/core"
	"cpr/internal/design"
	"cpr/internal/designio"
	"cpr/internal/geom"
)

// oneColumnEdit moves one random pin one column left or right, retrying
// until the edited design validates. Pin and net IDs are unchanged.
func oneColumnEdit(d *design.Design, rng *rand.Rand) (*design.Design, error) {
	for attempt := 0; attempt < 1000; attempt++ {
		pins := append([]design.Pin(nil), d.Pins...)
		p := &pins[rng.Intn(len(pins))]
		dx := 1 - 2*rng.Intn(2)
		p.Shape = geom.MakeRect(p.Shape.X0+dx, p.Shape.Y0, p.Shape.X1+dx, p.Shape.Y1)
		nd := *d
		nd.Pins = pins
		if nd.Validate() == nil {
			return &nd, nil
		}
	}
	return nil, fmt.Errorf("no valid one-column pin edit in 1000 attempts")
}

// sameAsCold runs a cold flow of the edited design and reports how the
// rerun's design and route dumps differ from the cold run's; empty
// means byte-identical.
func sameAsCold(d *design.Design, rerun *core.RunResult, opts core.Options) string {
	cold, err := core.RunContext(context.Background(), d, opts)
	if err != nil {
		return fmt.Sprintf("cold run of edited design: %v", err)
	}
	a, errA := dumpRun(d, rerun)
	b, errB := dumpRun(d, cold)
	if errA != nil || errB != nil {
		return fmt.Sprintf("dump: %v %v", errA, errB)
	}
	if !bytes.Equal(a, b) {
		return "strict rerun differs from a cold run of the same design"
	}
	return ""
}

// dumpRun serialises the observable outcome of a run: the design in
// designio form, the pin-access report, every route, and the metrics
// with wall-clock fields zeroed.
func dumpRun(d *design.Design, res *core.RunResult) ([]byte, error) {
	var b bytes.Buffer
	if err := designio.Write(&b, d); err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "pinopt %d %d %d %v %+v\n", res.PinOpt.TotalPins, res.PinOpt.TotalIntervals,
		res.PinOpt.TotalConflicts, res.PinOpt.Objective, res.PinOpt.Panels)
	r := res.Router
	fmt.Fprintf(&b, "routed=%d vias=%d wl=%d initcong=%d iters=%d congunrouted=%d drcunrouted=%d\n",
		r.RoutedNets, r.Vias, r.Wirelength, r.InitialCongested,
		r.NegotiationIters, r.CongestionUnrouted, r.DRCUnrouted)
	for netID, nr := range r.Routes {
		if nr == nil {
			continue
		}
		fmt.Fprintf(&b, "net %d routed=%v fail=%q nodes %v edges %v virtual %v\n",
			netID, nr.Routed, nr.FailReason, nr.Nodes, nr.Edges, nr.Virtual)
	}
	fmt.Fprintf(&b, "metrics %+v\n", res.Metrics.ZeroTimes())
	return b.Bytes(), nil
}
