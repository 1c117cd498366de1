// Package ilp implements an exact 0/1 integer linear programming solver via
// LP-relaxation branch and bound, built on the simplex solver in package lp.
//
// The paper formulates concurrent pin access optimization as a binary ILP
// (Formula (1)) and solves it with an exact solver to obtain the optimality
// reference for the Lagrangian relaxation algorithm. This package plays
// that role in the reproduction.
package ilp

import (
	"math"
	"time"

	"cpr/internal/lp"
)

// Problem is a binary integer linear program: maximize c'x subject to the
// sparse constraints, with every variable restricted to {0, 1}.
type Problem struct {
	NumVars     int
	Objective   []float64
	Constraints []lp.Constraint

	// AddUnitBounds controls whether x_j <= 1 rows are added to LP
	// relaxations. Leave it true unless every variable is already bounded
	// by the constraint system (as in the pin access assignment model,
	// where each variable appears in a sum-to-one pin constraint).
	AddUnitBounds bool
}

// NewProblem returns an empty binary ILP with n variables and unit bounds
// enabled.
func NewProblem(n int) *Problem {
	return &Problem{NumVars: n, Objective: make([]float64, n), AddUnitBounds: true}
}

// AddConstraint appends a sparse constraint.
func (p *Problem) AddConstraint(terms []lp.Term, sense lp.Sense, rhs float64) {
	p.Constraints = append(p.Constraints, lp.Constraint{Terms: terms, Sense: sense, RHS: rhs})
}

// Status reports the outcome of a branch-and-bound run.
type Status int

const (
	// Optimal means the search space was exhausted; X is a proven optimum.
	Optimal Status = iota
	// Feasible means a limit was hit; X is the best incumbent found.
	Feasible
	// Infeasible means the search space was exhausted with no solution.
	Infeasible
	// Limit means a limit was hit before any feasible solution was found.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	default:
		return "limit"
	}
}

// Config bounds the branch-and-bound search.
//
//keypurity:options
type Config struct {
	// MaxNodes caps the number of explored nodes (0 = no cap).
	MaxNodes int
	// TimeLimit caps wall-clock time (0 = no cap).
	TimeLimit time.Duration
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	X         []bool
	Objective float64
	// Nodes is the number of branch-and-bound nodes processed.
	Nodes int
	// RootBound is the LP relaxation optimum at the root.
	RootBound float64
}

const intTol = 1e-6

// Solve runs best-effort exact branch and bound on the problem. A
// feasible warm start of length p.NumVars seeds the incumbent; a nil or
// infeasible one is ignored.
func Solve(p *Problem, cfg Config, warm []bool) Result {
	s := &solver{p: p, cfg: cfg, incumbentObj: math.Inf(-1)}
	if cfg.TimeLimit > 0 {
		//cprlint:keypurity deadline arming for TimeLimit enforcement; TimeLimit>0 configs are excluded from content addressing (SolverConfig.Cacheable)
		s.deadline = time.Now().Add(cfg.TimeLimit)
	}
	if warm != nil && len(warm) == p.NumVars && feasible(p, warm) {
		s.incumbent = append([]bool(nil), warm...)
		s.incumbentObj = objectiveOf(p, warm)
	}

	root := make([]int8, p.NumVars)
	for i := range root {
		root[i] = -1
	}
	s.branch(root, true)

	res := Result{Nodes: s.nodes, RootBound: s.rootBound}
	switch {
	case s.incumbent == nil && s.hitLimit:
		res.Status = Limit
	case s.incumbent == nil:
		res.Status = Infeasible
	case s.hitLimit:
		res.Status = Feasible
		res.X = s.incumbent
		res.Objective = s.incumbentObj
	default:
		res.Status = Optimal
		res.X = s.incumbent
		res.Objective = s.incumbentObj
	}
	return res
}

type solver struct {
	p            *Problem
	cfg          Config
	deadline     time.Time
	nodes        int
	hitLimit     bool
	incumbent    []bool
	incumbentObj float64
	rootBound    float64
}

// branch explores the subtree rooted at the given fixing vector
// (-1 free, 0, 1). isRoot records the relaxation bound for reporting.
func (s *solver) branch(fixed []int8, isRoot bool) {
	if s.hitLimit {
		return
	}
	if s.cfg.MaxNodes > 0 && s.nodes >= s.cfg.MaxNodes {
		s.hitLimit = true
		return
	}
	//cprlint:keypurity deadline polling for TimeLimit enforcement; TimeLimit>0 configs are excluded from content addressing (SolverConfig.Cacheable)
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.hitLimit = true
		return
	}
	s.nodes++

	relax, varMap, fixedObj, ok := s.reducedLP(fixed)
	if !ok {
		return // fixings already violate a constraint
	}
	if relax.NumVars == 0 {
		// Fully fixed: fixedObj is the node value.
		s.offerSolution(fixed, fixedObj)
		if isRoot {
			s.rootBound = fixedObj
		}
		return
	}
	sol := lp.Solve(relax)
	if sol.Status == lp.Infeasible {
		return
	}
	if sol.Status != lp.Optimal {
		// Unbounded cannot occur with unit bounds; iteration limit is
		// treated as a node we cannot bound, so explore by branching on
		// the first free variable.
		s.branchOnVar(fixed, firstFree(fixed))
		return
	}
	bound := sol.Objective + fixedObj
	if isRoot {
		s.rootBound = bound
	}
	if bound <= s.incumbentObj+1e-9 {
		return // cannot improve the incumbent
	}
	// Integral relaxation?
	fracVar, fracDist := -1, -1.0
	for j, v := range sol.X {
		d := math.Abs(v - math.Round(v))
		if d > intTol && d > fracDist {
			fracDist = d
			fracVar = j
		}
	}
	if fracVar < 0 {
		full := append([]int8(nil), fixed...)
		for j, v := range sol.X {
			if math.Round(v) >= 0.5 {
				full[varMap[j]] = 1
			} else {
				full[varMap[j]] = 0
			}
		}
		s.offerSolution(full, bound)
		return
	}
	s.branchOnVar(fixed, varMap[fracVar])
}

func (s *solver) branchOnVar(fixed []int8, v int) {
	if v < 0 {
		return
	}
	child := append([]int8(nil), fixed...)
	child[v] = 1
	s.branch(child, false)
	child2 := append([]int8(nil), fixed...)
	child2[v] = 0
	s.branch(child2, false)
}

func firstFree(fixed []int8) int {
	for j, f := range fixed {
		if f == -1 {
			return j
		}
	}
	return -1
}

// offerSolution converts a fully fixed vector into a candidate incumbent.
// Free variables in the vector are treated as 0.
func (s *solver) offerSolution(fixed []int8, obj float64) {
	x := make([]bool, len(fixed))
	for j, f := range fixed {
		x[j] = f == 1
	}
	if !feasible(s.p, x) {
		return
	}
	exact := objectiveOf(s.p, x)
	_ = obj
	if exact > s.incumbentObj {
		s.incumbentObj = exact
		s.incumbent = x
	}
}

// reducedLP builds the LP relaxation with fixed variables substituted out.
// varMap maps reduced variable indices back to original indices. ok is
// false when a fully fixed constraint is already violated.
func (s *solver) reducedLP(fixed []int8) (relax *lp.Problem, varMap []int, fixedObj float64, ok bool) {
	p := s.p
	varMap = make([]int, 0, p.NumVars)
	inverse := make([]int, p.NumVars)
	for j := range inverse {
		inverse[j] = -1
	}
	for j := 0; j < p.NumVars; j++ {
		switch fixed[j] {
		case -1:
			inverse[j] = len(varMap)
			varMap = append(varMap, j)
		case 1:
			fixedObj += p.Objective[j]
		}
	}
	relax = lp.NewProblem(len(varMap))
	relax.Deadline = s.deadline
	for rj, oj := range varMap {
		relax.Objective[rj] = p.Objective[oj]
	}
	for _, c := range p.Constraints {
		var terms []lp.Term
		rhs := c.RHS
		for _, tm := range c.Terms {
			switch fixed[tm.Var] {
			case -1:
				terms = append(terms, lp.Term{Var: inverse[tm.Var], Coef: tm.Coef})
			case 1:
				rhs -= tm.Coef
			}
		}
		if len(terms) == 0 {
			switch c.Sense {
			case lp.LE:
				if rhs < -1e-9 {
					return nil, nil, 0, false
				}
			case lp.GE:
				if rhs > 1e-9 {
					return nil, nil, 0, false
				}
			case lp.EQ:
				if math.Abs(rhs) > 1e-9 {
					return nil, nil, 0, false
				}
			}
			continue
		}
		relax.AddConstraint(terms, c.Sense, rhs)
	}
	if p.AddUnitBounds {
		for rj := range varMap {
			relax.AddConstraint([]lp.Term{{Var: rj, Coef: 1}}, lp.LE, 1)
		}
	}
	return relax, varMap, fixedObj, true
}

// feasible reports whether a binary vector satisfies every constraint.
func feasible(p *Problem, x []bool) bool {
	for _, c := range p.Constraints {
		lhs := 0.0
		for _, tm := range c.Terms {
			if x[tm.Var] {
				lhs += tm.Coef
			}
		}
		switch c.Sense {
		case lp.LE:
			if lhs > c.RHS+1e-9 {
				return false
			}
		case lp.GE:
			if lhs < c.RHS-1e-9 {
				return false
			}
		case lp.EQ:
			if math.Abs(lhs-c.RHS) > 1e-9 {
				return false
			}
		}
	}
	return true
}

// objectiveOf returns c'x for a binary vector.
func objectiveOf(p *Problem, x []bool) float64 {
	obj := 0.0
	for j, set := range x {
		if set {
			obj += p.Objective[j]
		}
	}
	return obj
}
