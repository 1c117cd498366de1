// Quickstart: generate a small synthetic circuit, run the concurrent pin
// access router, and print the paper-style metrics row.
package main

import (
	"fmt"
	"log"

	"cpr"
)

func main() {
	// A small standard-cell-like design: 150 nets on a 220x80 grid
	// (8 cell rows of 10 M2 tracks each).
	d, err := cpr.GenerateCircuit(cpr.Spec{
		Name:   "quickstart",
		Nets:   150,
		Width:  220,
		Height: 80,
		Seed:   42,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats := d.ComputeStats()
	fmt.Printf("design: %d nets, %d pins, %d panels\n", stats.Nets, stats.Pins, stats.Panels)

	// Run the full CPR flow: per-panel pin access optimization with
	// Lagrangian relaxation, then negotiation-congestion routing.
	res, err := cpr.Run(d, cpr.Options{Mode: cpr.ModeCPR})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pin access optimization: %d pins -> %d candidate intervals, %d conflict sets (%.1fms)\n",
		res.PinOpt.TotalPins, res.PinOpt.TotalIntervals, res.PinOpt.TotalConflicts,
		res.Metrics.OptimizeSeconds*1000)

	m := res.Metrics
	fmt.Printf("routing: %.2f%% routability, %d vias, %d wirelength, %.2fs\n",
		m.RoutPct, m.Vias, m.WL, m.CPUSeconds)
	fmt.Printf("initial congested grids: %d (the number CPR exists to shrink)\n",
		m.InitialCongested)
}
