// Package metrics computes the evaluation metrics of the paper's §5 from
// routing results: routability ("Rout."), via count ("Via#"), wirelength
// ("WL" — grid wirelength of routed nets plus half-perimeter wirelength of
// unrouted nets), runtime, and initial congested grid counts. The runtime
// columns come from the run's spans (internal/core): opt(s) = pinopt,
// rt(s) = route:independent+negotiate+resolve and vrfy(s) = route:drc,
// both summed over regions, and cpu(s) = pinopt + route.
package metrics

import (
	"fmt"
	"time"

	"cpr/internal/design"
	"cpr/internal/router"
)

// Routing summarizes one routing run in the paper's Table 2 vocabulary.
type Routing struct {
	Circuit   string
	TotalNets int
	// RoutedNets is the number of design-rule-clean connected nets.
	RoutedNets int
	// RoutPct is 100 * RoutedNets / TotalNets.
	RoutPct float64
	// Vias is the via count over routed nets.
	Vias int
	// WL is grid wirelength of routed nets plus HPWL of unrouted nets.
	WL int
	// CPUSeconds is wall-clock routing (plus optimization) time.
	CPUSeconds float64
	// OptimizeSeconds is the pin access optimization share of CPUSeconds
	// (zero for baseline modes without pin-opt).
	OptimizeSeconds float64
	// RouteSeconds covers the router's independent-routing, negotiation,
	// and congestion-resolution stages.
	RouteSeconds float64
	// VerifySeconds is the line-end extension / design rule check stage.
	VerifySeconds float64
	// InitialCongested is the congested grid count before rip-up and
	// reroute (Figure 7(b)).
	InitialCongested int
	// NegotiationIters counts rip-up rounds.
	NegotiationIters int
}

// FromResult assembles metrics from a router result. It leaves the
// seconds fields zero: internal/core fills them from the run's spans
// with SetStageSeconds.
func FromResult(d *design.Design, res *router.Result) Routing {
	m := Routing{
		Circuit:          d.Name,
		TotalNets:        len(d.Nets),
		RoutedNets:       res.RoutedNets,
		Vias:             res.Vias,
		WL:               res.Wirelength,
		InitialCongested: res.InitialCongested,
		NegotiationIters: res.NegotiationIters,
	}
	if m.TotalNets > 0 {
		m.RoutPct = 100 * float64(m.RoutedNets) / float64(m.TotalNets)
	}
	for netID, nr := range res.Routes {
		if nr == nil || !nr.Routed {
			m.WL += d.HPWL(netID)
		}
	}
	return m
}

// SetStageSeconds fills the seconds fields from per-name span duration
// sums (telemetry.Span.SubtreeDurations of a run): OptimizeSeconds =
// pinopt, RouteSeconds = route:independent + route:negotiate +
// route:resolve, VerifySeconds = route:drc and CPUSeconds = pinopt +
// route. A name with no span contributes zero.
func (m *Routing) SetStageSeconds(d map[string]time.Duration) {
	m.OptimizeSeconds = d["pinopt"].Seconds()
	m.RouteSeconds = (d["route:independent"] + d["route:negotiate"] + d["route:resolve"]).Seconds()
	m.VerifySeconds = d["route:drc"].Seconds()
	m.CPUSeconds = (d["pinopt"] + d["route"]).Seconds()
}

// ZeroTimes returns a copy with every wall-clock field zeroed — the
// canonical form determinism checks compare, since timings legitimately
// vary run to run while everything else must be byte-identical.
func (m Routing) ZeroTimes() Routing {
	m.CPUSeconds, m.OptimizeSeconds, m.RouteSeconds, m.VerifySeconds = 0, 0, 0, 0
	return m
}

// Row renders the metrics as a Table 2 style row. CPUSeconds keeps its
// historical meaning (total wall clock); the three phase columns break
// it down into pin access optimization, routing (independent +
// negotiation + congestion resolution), and verification (line-end DRC).
func (m Routing) Row() string {
	return fmt.Sprintf("%-6s %7d %8.2f %8d %9d %9.2f %8.2f %8.2f %8.2f",
		m.Circuit, m.TotalNets, m.RoutPct, m.Vias, m.WL, m.CPUSeconds,
		m.OptimizeSeconds, m.RouteSeconds, m.VerifySeconds)
}

// Header returns the column header matching Row.
func Header() string {
	return fmt.Sprintf("%-6s %7s %8s %8s %9s %9s %8s %8s %8s",
		"ckt", "nets", "Rout.%", "Via#", "WL", "cpu(s)", "opt(s)", "rt(s)", "vrfy(s)")
}

// Ratio holds per-metric ratios between two runs (paper's "Ratio" row and
// Figure 7(a) LR/ILP comparison).
type Ratio struct {
	Rout float64
	Vias float64
	WL   float64
	CPU  float64
}

// RatioOf computes a/b per metric. Zero denominators yield zero.
func RatioOf(a, b Routing) Ratio {
	div := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	return Ratio{
		Rout: div(a.RoutPct, b.RoutPct),
		Vias: div(float64(a.Vias), float64(b.Vias)),
		WL:   div(float64(a.WL), float64(b.WL)),
		CPU:  div(a.CPUSeconds, b.CPUSeconds),
	}
}

// Average aggregates metric rows by arithmetic mean (the paper's "Avg."
// row).
func Average(rows []Routing) Routing {
	if len(rows) == 0 {
		return Routing{Circuit: "Avg."}
	}
	avg := Routing{Circuit: "Avg."}
	for _, r := range rows {
		avg.TotalNets += r.TotalNets
		avg.RoutedNets += r.RoutedNets
		avg.RoutPct += r.RoutPct
		avg.Vias += r.Vias
		avg.WL += r.WL
		avg.CPUSeconds += r.CPUSeconds
		avg.OptimizeSeconds += r.OptimizeSeconds
		avg.RouteSeconds += r.RouteSeconds
		avg.VerifySeconds += r.VerifySeconds
		avg.InitialCongested += r.InitialCongested
	}
	n := float64(len(rows))
	avg.TotalNets = int(float64(avg.TotalNets)/n + 0.5)
	avg.RoutedNets = int(float64(avg.RoutedNets)/n + 0.5)
	avg.RoutPct /= n
	avg.Vias = int(float64(avg.Vias)/n + 0.5)
	avg.WL = int(float64(avg.WL)/n + 0.5)
	avg.CPUSeconds /= n
	avg.OptimizeSeconds /= n
	avg.RouteSeconds /= n
	avg.VerifySeconds /= n
	avg.InitialCongested = int(float64(avg.InitialCongested)/n + 0.5)
	return avg
}
