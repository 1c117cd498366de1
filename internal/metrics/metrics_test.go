package metrics

import (
	"strings"
	"testing"
	"time"

	"cpr/internal/design"
	"cpr/internal/geom"
	"cpr/internal/grid"
	"cpr/internal/router"
	"cpr/internal/tech"
)

func routedDesign(t *testing.T) (*design.Design, *grid.Graph, *router.Result) {
	t.Helper()
	d := design.New("m", 20, 10, tech.Default())
	n0 := d.AddNet("a")
	n1 := d.AddNet("b")
	d.AddPin("a0", n0, geom.MakeRect(3, 2, 3, 2))
	d.AddPin("a1", n0, geom.MakeRect(13, 2, 13, 2))
	d.AddPin("b0", n1, geom.MakeRect(3, 7, 3, 7))
	d.AddPin("b1", n1, geom.MakeRect(13, 7, 13, 7))
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	g := grid.New(d)
	res := router.New(d, g, router.Config{}).Run()
	return d, g, res
}

func TestFromResultBasics(t *testing.T) {
	d, _, res := routedDesign(t)
	m := FromResult(d, res)
	if m.TotalNets != 2 || m.RoutedNets != 2 {
		t.Fatalf("nets %d/%d, want 2/2", m.RoutedNets, m.TotalNets)
	}
	if m.RoutPct != 100 {
		t.Errorf("RoutPct = %g, want 100", m.RoutPct)
	}
	if m.Vias != res.Vias || m.WL != res.Wirelength {
		t.Errorf("vias/WL mismatch: %d/%d vs %d/%d", m.Vias, m.WL, res.Vias, res.Wirelength)
	}
}

func TestUnroutedNetsAddHPWL(t *testing.T) {
	d, _, res := routedDesign(t)
	// Force net 1 unrouted and recompute.
	res.Routes[1].Routed = false
	res.RoutedNets = 1
	m := FromResult(d, res)
	if m.RoutedNets != 1 || m.RoutPct != 50 {
		t.Errorf("RoutPct = %g, want 50", m.RoutPct)
	}
	wantExtra := d.HPWL(1)
	if m.WL != res.Wirelength+wantExtra {
		t.Errorf("WL = %d, want %d + %d", m.WL, res.Wirelength, wantExtra)
	}
}

func TestRowAndHeaderAlign(t *testing.T) {
	d, _, res := routedDesign(t)
	m := FromResult(d, res)
	row := m.Row()
	head := Header()
	if len(strings.Fields(row)) != 9 || len(strings.Fields(head)) != 9 {
		t.Errorf("row/header field counts differ:\n%s\n%s", head, row)
	}
}

func TestPhaseSplitFromStageElapsed(t *testing.T) {
	d, _, res := routedDesign(t)
	m := FromResult(d, res)
	m.SetStageSeconds(map[string]time.Duration{
		"pinopt":            50 * time.Millisecond,
		"route":             1500 * time.Millisecond,
		"route:independent": 100 * time.Millisecond,
		"route:negotiate":   200 * time.Millisecond,
		"route:resolve":     300 * time.Millisecond,
		"route:drc":         400 * time.Millisecond,
	})
	if m.OptimizeSeconds != 0.05 {
		t.Errorf("OptimizeSeconds = %g, want 0.05", m.OptimizeSeconds)
	}
	if m.RouteSeconds != 0.6 {
		t.Errorf("RouteSeconds = %g, want 0.6", m.RouteSeconds)
	}
	if m.VerifySeconds != 0.4 {
		t.Errorf("VerifySeconds = %g, want 0.4", m.VerifySeconds)
	}
	// CPUSeconds keeps its historical meaning: total wall clock of the
	// pinopt and route stages, independent of the phase breakdown.
	if m.CPUSeconds != 1.55 {
		t.Errorf("CPUSeconds = %g, want 1.55", m.CPUSeconds)
	}
}

func TestRatioOf(t *testing.T) {
	a := Routing{RoutPct: 96, Vias: 110, WL: 1000, CPUSeconds: 2}
	b := Routing{RoutPct: 48, Vias: 100, WL: 500, CPUSeconds: 4}
	r := RatioOf(a, b)
	if r.Rout != 2 || r.Vias != 1.1 || r.WL != 2 || r.CPU != 0.5 {
		t.Errorf("ratio = %+v", r)
	}
	zero := RatioOf(a, Routing{})
	if zero.Rout != 0 || zero.Vias != 0 {
		t.Error("zero denominators must give zero ratios")
	}
}

func TestAverage(t *testing.T) {
	rows := []Routing{
		{TotalNets: 100, RoutedNets: 90, RoutPct: 90, Vias: 200, WL: 1000, CPUSeconds: 1},
		{TotalNets: 200, RoutedNets: 200, RoutPct: 100, Vias: 400, WL: 3000, CPUSeconds: 3},
	}
	avg := Average(rows)
	if avg.RoutPct != 95 || avg.Vias != 300 || avg.WL != 2000 || avg.CPUSeconds != 2 {
		t.Errorf("avg = %+v", avg)
	}
	empty := Average(nil)
	if empty.Circuit != "Avg." || empty.Vias != 0 {
		t.Errorf("empty avg = %+v", empty)
	}
}

func TestCPUSecondsFromElapsed(t *testing.T) {
	d, _, res := routedDesign(t)
	m := FromResult(d, res)
	if m.CPUSeconds != 0 {
		t.Errorf("FromResult CPUSeconds = %g, want 0 before SetStageSeconds", m.CPUSeconds)
	}
	// A baseline run has no pinopt span: CPU time is the route span alone.
	m.SetStageSeconds(map[string]time.Duration{"route": 1500 * time.Millisecond})
	if m.CPUSeconds != 1.5 || m.OptimizeSeconds != 0 {
		t.Errorf("CPUSeconds/OptimizeSeconds = %g/%g, want 1.5/0", m.CPUSeconds, m.OptimizeSeconds)
	}
}
