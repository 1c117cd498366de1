package nondeterm_test

import (
	"testing"

	"cpr/internal/analysis/analysistest"
	"cpr/internal/analysis/nondeterm"
)

func TestNondeterm(t *testing.T) {
	analysistest.Run(t, "testdata", nondeterm.Analyzer,
		"cpr/internal/lagrange",
		"cpr/internal/pipeline",
		"cpr/internal/jobs",
		"cpr/cmd/tool",
		"other",
	)
}
