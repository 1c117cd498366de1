// Package pipeline is golden input: artifacts and their cache keys are
// built here, so the package is restricted like the solvers it stages.
package pipeline

import "time"

// SolvePanel times a stage with a private clock instead of a span.
func SolvePanel() time.Duration {
	start := time.Now()      // want `call to time\.Now in result-producing package`
	return time.Since(start) // want `call to time\.Since in result-producing package`
}
