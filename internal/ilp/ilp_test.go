package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cpr/internal/lp"
)

// bruteForce exhaustively solves a small binary ILP, returning the optimal
// objective and whether any feasible point exists.
func bruteForce(p *Problem) (best float64, found bool) {
	n := p.NumVars
	best = math.Inf(-1)
	x := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := 0; j < n; j++ {
			x[j] = mask&(1<<j) != 0
		}
		if !feasible(p, x) {
			continue
		}
		found = true
		if obj := objectiveOf(p, x); obj > best {
			best = obj
		}
	}
	return best, found
}

func TestKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 2 and 5a+4b+3c <= 8.
	p := NewProblem(3)
	p.Objective = []float64{10, 6, 4}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, lp.LE, 2)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 5}, {Var: 1, Coef: 4}, {Var: 2, Coef: 3}}, lp.LE, 8)
	res := Solve(p, Config{}, nil)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-14) > 1e-9 { // a + c = 10 + 4
		t.Errorf("objective = %g, want 14", res.Objective)
	}
	if !res.X[0] || res.X[1] || !res.X[2] {
		t.Errorf("x = %v, want [true false true]", res.X)
	}
}

func TestAssignmentShapedILP(t *testing.T) {
	// Pin-access shape: each "pin" picks exactly one interval, conflicts
	// exclude pairs. Fractional LP optimum forces actual branching when
	// profits collide.
	p := NewProblem(4)
	p.Objective = []float64{5, 3, 5, 3}
	p.AddUnitBounds = false
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Term{{Var: 2, Coef: 1}, {Var: 3, Coef: 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 2, Coef: 1}}, lp.LE, 1)
	res := Solve(p, Config{}, nil)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-8) > 1e-9 { // 5 + 3
		t.Errorf("objective = %g, want 8", res.Objective)
	}
}

func TestInfeasibleILP(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{1, 1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Term{{Var: 1, Coef: 1}}, lp.EQ, 1)
	res := Solve(p, Config{}, nil)
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestWarmStart(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{2, 1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 1)
	warm := []bool{false, true}
	res := Solve(p, Config{}, warm)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-2) > 1e-9 {
		t.Errorf("objective = %g, want 2 (warm start must not cap the search)", res.Objective)
	}
}

func TestInfeasibleWarmStartIgnored(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{1, 1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 1)
	res := Solve(p, Config{}, []bool{true, true}) // violates constraint
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-1) > 1e-9 {
		t.Errorf("objective = %g, want 1", res.Objective)
	}
}

func TestNodeLimit(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{1, 1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 1)
	res := Solve(p, Config{MaxNodes: 1}, nil)
	if res.Status != Feasible && res.Status != Limit && res.Status != Optimal {
		t.Fatalf("unexpected status %v", res.Status)
	}
	if res.Nodes > 1 {
		t.Errorf("nodes = %d, want <= 1", res.Nodes)
	}
}

func TestTimeLimit(t *testing.T) {
	// A 1ns budget must terminate immediately but still return cleanly.
	p := NewProblem(6)
	for j := range p.Objective {
		p.Objective[j] = float64(j + 1)
	}
	for a := 0; a < 6; a++ {
		for b := a + 1; b < 6; b++ {
			p.AddConstraint([]lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.LE, 1)
		}
	}
	res := Solve(p, Config{TimeLimit: time.Nanosecond}, nil)
	if res.Status != Limit && res.Status != Feasible {
		t.Fatalf("status = %v, want a limit status", res.Status)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem(0)
	res := Solve(p, Config{}, nil)
	if res.Status != Optimal || res.Objective != 0 {
		t.Fatalf("empty: %+v", res)
	}
}

func TestAllVarsFree(t *testing.T) {
	// No constraints: optimum picks every positive-profit variable.
	p := NewProblem(4)
	p.Objective = []float64{3, -2, 0, 5}
	res := Solve(p, Config{}, nil)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-8) > 1e-9 {
		t.Errorf("objective = %g, want 8", res.Objective)
	}
	if !res.X[0] || res.X[1] || !res.X[3] {
		t.Errorf("x = %v", res.X)
	}
}

// TestRandomAgainstBruteForce cross-checks branch and bound against
// exhaustive enumeration on random small assignment-flavoured ILPs.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9) // up to 10 vars
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.Objective[j] = float64(rng.Intn(21) - 5)
		}
		// Random partition into "pins" with equality rows.
		perm := rng.Perm(n)
		i := 0
		for i < n {
			k := 1 + rng.Intn(3)
			if i+k > n {
				k = n - i
			}
			var terms []lp.Term
			for _, v := range perm[i : i+k] {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
			p.AddConstraint(terms, lp.EQ, 1)
			i += k
		}
		// Random conflict rows.
		for c := rng.Intn(4); c > 0; c-- {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			p.AddConstraint([]lp.Term{{Var: a, Coef: 1}, {Var: b, Coef: 1}}, lp.LE, 1)
		}
		res := Solve(p, Config{}, nil)
		want, found := bruteForce(p)
		if !found {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: status %v, brute force says infeasible", trial, res.Status)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v, want optimal", trial, res.Status)
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: objective %g, brute force %g", trial, res.Objective, want)
		}
		if !feasible(p, res.X) {
			t.Fatalf("trial %d: returned infeasible x", trial)
		}
	}
}

func TestRootBoundDominatesOptimum(t *testing.T) {
	p := NewProblem(3)
	p.Objective = []float64{4, 3, 2}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}, {Var: 2, Coef: 1}}, lp.LE, 2)
	res := Solve(p, Config{}, nil)
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.RootBound < res.Objective-1e-9 {
		t.Errorf("root bound %g below optimum %g", res.RootBound, res.Objective)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Feasible.String() != "feasible" ||
		Infeasible.String() != "infeasible" || Limit.String() != "limit" {
		t.Error("status strings wrong")
	}
}

func TestDeadlinePropagatesToLP(t *testing.T) {
	// With an expired deadline the solver must come back immediately,
	// reporting the warm-start incumbent if one was provided.
	p := NewProblem(4)
	p.Objective = []float64{4, 3, 2, 1}
	p.AddConstraint([]lp.Term{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 1)
	p.AddConstraint([]lp.Term{{Var: 2, Coef: 1}, {Var: 3, Coef: 1}}, lp.LE, 1)
	warm := []bool{false, true, false, true}
	res := Solve(p, Config{TimeLimit: time.Nanosecond}, warm)
	if res.Status != Feasible && res.Status != Limit && res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Status == Feasible && res.Objective < 4-1e-9 {
		t.Errorf("incumbent objective %g below warm start 4", res.Objective)
	}
}
