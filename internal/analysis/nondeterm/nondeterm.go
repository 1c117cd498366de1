// Package nondeterm forbids nondeterministic inputs inside the
// result-producing packages of the pipeline. The cprd cache contract
// (PR 2) assumes an optimization result is a pure function of the
// design and the options fingerprint; a call to the wall clock, the
// process environment, a random source, or the GOMAXPROCS value inside
// pinaccess, conflict, assign, lagrange, router, core, or pipeline could
// break that silently. Driver-layer packages (cmd/..., internal/jobs) may
// use them freely. Stage timing belongs in telemetry spans; any other
// clock site needs a //cprlint:nondeterm justification.
package nondeterm

import (
	"go/ast"
	"strings"

	"cpr/internal/analysis"
)

// Analyzer is the nondeterm pass.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterm",
	Doc:  "forbids time.Now, math/rand, os.Getenv, and GOMAXPROCS-dependent calls in result-producing packages (pinaccess, conflict, assign, lagrange, router, core, pipeline)",
	Run:  run,
}

// restricted are the result-producing packages: everything a cache key
// of design-hash + options must fully determine.
var restricted = []string{
	"/internal/pinaccess",
	"/internal/conflict",
	"/internal/assign",
	"/internal/lagrange",
	"/internal/router",
	"/internal/core",
	"/internal/pipeline",
}

// allowed are driver-layer packages where wall clocks and environment
// reads are part of the job (explicit, although they are already
// outside the restricted set).
var allowed = []string{"/cmd/", "/internal/jobs"}

// forbiddenFuncs maps package path to the forbidden function names; an
// empty list forbids the whole package.
var forbiddenFuncs = map[string][]string{
	"time":         {"Now", "Since", "Until"},
	"os":           {"Getenv", "LookupEnv", "Environ"},
	"runtime":      {"GOMAXPROCS", "NumCPU"},
	"math/rand":    {},
	"math/rand/v2": {},
}

func run(pass *analysis.Pass) error {
	path := "/" + pass.Pkg.Path()
	for _, a := range allowed {
		if strings.Contains(path, a) || strings.HasPrefix(pass.Pkg.Path(), strings.TrimPrefix(a, "/")) {
			return nil
		}
	}
	scoped := false
	for _, r := range restricted {
		if strings.Contains(path, r) {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			names, ok := forbiddenFuncs[fn.Pkg().Path()]
			if !ok {
				return true
			}
			banned := len(names) == 0
			for _, name := range names {
				if fn.Name() == name {
					banned = true
					break
				}
			}
			if banned {
				pass.Reportf(call.Pos(),
					"call to %s.%s in result-producing package %s: results must be a pure function of the design and options (annotate //cprlint:nondeterm <reason> if this cannot reach a result)",
					fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
			}
			return true
		})
	}
	return nil
}
