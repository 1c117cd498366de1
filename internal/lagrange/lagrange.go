// Package lagrange implements the scalable Lagrangian relaxation algorithm
// for the weighted interval assignment problem (paper §3.4, Algorithms 1
// and 2).
//
// The conflict constraints (1c) are relaxed into the objective with
// multipliers lambda_m, updated by subgradient descent:
//
//	lambda_m^{k+1} = max(0, lambda_m^k + t_k * (sum_{I_i in C_m} x_i - 1))
//	t_k = L_m / k^alpha
//
// where L_m is the length of the common intersection of conflict set C_m
// and alpha = 0.95 by default. Each LR subproblem — pick one interval per
// pin maximizing total gain (profit minus accumulated penalties) — is
// solved by the greedy maxGains routine, optimal whenever no interval is
// shared between pins (Theorem 2). The best selection seen across
// iterations is kept; any residual conflicts are removed by greedily
// shrinking intervals to their minimum intervals, which is guaranteed to
// terminate because the all-minimum solution is conflict free (Theorem 1).
package lagrange

import (
	"context"
	"math"
	"sort"

	"cpr/internal/assign"
	"cpr/internal/parallel"
)

// Config tunes the LR solver. Zero values take the paper's defaults.
// Every result-affecting field is a plain value; cancellation arrives
// through Solve's context instead.
//
//keypurity:options
type Config struct {
	// MaxIterations is the iteration upper bound UB (default 200).
	MaxIterations int
	// Alpha is the subgradient step exponent (default 0.95).
	Alpha float64
	// DisableSameNetTieBreak turns off the Algorithm 1 tie-breaking rule
	// that prefers intervals covering more same-net pins (for ablation).
	DisableSameNetTieBreak bool
	// FullSubgradient also decreases multipliers of satisfied conflict
	// sets (textbook subgradient) instead of the paper's increase-on-
	// violation-only rule (for ablation).
	FullSubgradient bool
	// SkipRefinement skips the final greedy conflict removal (for
	// ablation; the result may then be illegal).
	SkipRefinement bool
	// SkipPostImprove disables the legality-preserving local improvement
	// pass run after LR terminates. The pass is an addition over the
	// paper's Algorithm 2 (which stops at the first violation-free
	// solution): each pin greedily upgrades to a more profitable
	// conflict-free interval. Disable to measure the bare algorithm.
	SkipPostImprove bool
	// Workers bounds the goroutines used inside each subgradient
	// iteration: the gain refresh is sharded per interval chunk and the
	// multiplier update per conflict set, with penalty deltas folded back
	// in conflict-set index order so every floating point accumulation
	// happens in the sequential order. <= 1 runs fully sequentially; the
	// result is byte-identical for every value.
	//
	//keypurity:exempt execution parallelism; the internal/parallel determinism contract makes results byte-identical for every worker count
	Workers int
	// Observer, when non-nil, receives one IterationStat per subgradient
	// iteration — the convergence series behind trace spans and the
	// Figure 6 style ablation plots. It is strictly observational: the
	// callback sees copies of the iteration state and cannot influence
	// the trajectory, so results are byte-identical with or without it,
	// and it is excluded from every cache-key fingerprint. It runs on the
	// solving goroutine; keep it cheap.
	//
	//keypurity:exempt strictly observational; the callback sees copies and cannot influence the trajectory
	Observer func(IterationStat)
}

// IterationStat is one subgradient iteration's convergence snapshot.
type IterationStat struct {
	// Iteration is the 1-based iteration number k.
	Iteration int `json:"iter"`
	// Violations is the number of violated conflict sets in this
	// iteration's selection (the "conflicts remaining" series).
	Violations int `json:"violations"`
	// BestViolations is the minimum violation count seen so far.
	BestViolations int `json:"best_violations"`
	// SelectedProfit is the raw profit of this iteration's selection —
	// the primal value, a lower bound on the optimum once feasible.
	SelectedProfit float64 `json:"profit"`
	// DualValue is the Lagrangian function value of the selection under
	// the iteration's multipliers (selected gains plus the multiplier
	// sum) — the upper-bound side of the convergence gap. It is computed
	// from the greedy subproblem solution, so it is an estimate of the
	// true dual bound, matching what Algorithm 1 actually optimizes.
	DualValue float64 `json:"dual"`
}

func (c Config) withDefaults() Config {
	if c.MaxIterations == 0 {
		c.MaxIterations = 200
	}
	if c.Alpha == 0 {
		c.Alpha = 0.95
	}
	return c
}

// Result reports the LR run.
type Result struct {
	// Solution is the final (legal unless SkipRefinement) assignment.
	Solution *assign.Solution
	// Iterations is the number of LR iterations executed.
	Iterations int
	// BestViolations is the violation count of the best selection before
	// greedy conflict removal.
	BestViolations int
	// Converged reports whether LR reached zero violations on its own.
	Converged bool
	// ShrunkPins counts pins demoted to minimum intervals by refinement.
	ShrunkPins int
	// ImprovedPins counts pin upgrades made by the post-improvement pass.
	ImprovedPins int
}

// Solve runs Algorithm 2 on the model. ctx is polled between subgradient
// iterations; once it is done the loop exits early with the best
// selection seen so far (refinement still runs so the returned solution
// stays legal). A context that never fires leaves the iteration
// trajectory untouched, so results are byte-identical to an
// uncancellable run.
func Solve(ctx context.Context, m *assign.Model, cfg Config) Result {
	cfg = cfg.withDefaults()
	n := m.NumIntervals()

	// Gains start at the profits; penalties accumulate per interval as
	// the sum of its conflict sets' multipliers.
	penalties := make([]float64, n)
	lambda := make([]float64, len(m.Conflicts.Sets))

	// Pre-sorted interval order is recomputed per iteration (gains
	// change); scratch buffers are reused.
	order := make([]int, n)
	gains := make([]float64, n)
	selected := make([]bool, n)

	// Per-iteration parallelism (cfg.Workers > 1): the gain refresh and
	// the per-conflict-set multiplier updates are independent subproblems;
	// scratch slots carry their results into an ordered merge.
	gainWorkers, setWorkers := iterationWorkers(cfg, n, len(lambda))
	setDeltas := make([]float64, len(lambda))
	setCounts := make([]int, len(lambda))

	var best []bool
	minVio := math.MaxInt
	iters := 0
	for k := 1; k <= cfg.MaxIterations && minVio > 0; k++ {
		if ctx.Err() != nil {
			break
		}
		iters = k
		parallel.ForEachChunk(gainWorkers, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				gains[i] = m.Profits[i] - penalties[i]
			}
		})
		maxGains(m, gains, order, selected, cfg)
		// The observer's dual value wants the multipliers the selection
		// was made under, so the sums are taken before penalize mutates
		// lambda. Reads only — the trajectory is untouched.
		var obsProfit, obsDual float64
		if cfg.Observer != nil {
			for _, l := range lambda {
				obsDual += l
			}
			for i, sel := range selected {
				if sel {
					obsProfit += m.Profits[i]
					obsDual += gains[i]
				}
			}
		}
		vio := penalize(m, selected, lambda, penalties, k, cfg, setWorkers, setDeltas, setCounts)
		if vio < minVio {
			minVio = vio
			best = append(best[:0], selected...)
		}
		if cfg.Observer != nil {
			cfg.Observer(IterationStat{
				Iteration:      k,
				Violations:     vio,
				BestViolations: minVio,
				SelectedProfit: obsProfit,
				DualValue:      obsDual,
			})
		}
	}
	if best == nil {
		best = selected
	}

	res := Result{
		Iterations:     iters,
		BestViolations: minVio,
		Converged:      minVio == 0,
	}
	sol := m.Evaluate(best)
	if !cfg.SkipRefinement && sol.Violations > 0 {
		res.ShrunkPins = refine(m, sol)
		sol = m.FromAssignment(sol.ByPin)
	}
	if !cfg.SkipPostImprove && sol.Violations == 0 {
		res.ImprovedPins = postImprove(m, sol)
		sol = m.FromAssignment(sol.ByPin)
	}
	res.Solution = sol
	return res
}

// postImprove greedily upgrades pins to more profitable intervals while
// preserving legality. Only moves that are trivially legal are made: the
// pin's current interval must serve no other pin, and the candidate must
// cover exactly this pin and sit in conflict sets with no other selected
// member. Returns the number of upgrades.
func postImprove(m *assign.Model, sol *assign.Solution) int {
	selected := make([]bool, m.NumIntervals())
	users := make(map[int]int) // interval -> #pins assigned to it
	for _, iv := range sol.ByPin {
		selected[iv] = true
		users[iv]++
	}
	improved := 0
	for pass := 0; pass < 10; pass++ {
		changed := false
		for _, pid := range m.Set.PinIDs {
			cur := sol.ByPin[pid]
			if users[cur] != 1 {
				continue // shared interval: the pin cannot leave legally
			}
			best, bestProfit := -1, m.Profits[cur]
			for _, cand := range m.Set.ByPin[pid] {
				if cand == cur || selected[cand] {
					continue
				}
				if len(m.Set.Intervals[cand].PinIDs) != 1 {
					continue // would double-cover another pin's (1b) row
				}
				if m.Profits[cand] <= bestProfit {
					continue
				}
				free := true
				for _, si := range m.Conflicts.MemberOf[cand] {
					for _, other := range m.Conflicts.Sets[si].IDs {
						if other != cur && other != cand && selected[other] {
							free = false
							break
						}
					}
					if !free {
						break
					}
				}
				if free {
					best, bestProfit = cand, m.Profits[cand]
				}
			}
			if best >= 0 {
				selected[cur] = false
				users[cur] = 0
				selected[best] = true
				users[best] = 1
				sol.ByPin[pid] = best
				improved++
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return improved
}

// maxGains implements Algorithm 1's greedy LR subproblem: select intervals
// in non-increasing gain order, skipping any interval with an
// already-assigned pin, until all pins are covered. Ties are broken by the
// number of same-net pins covered (intra-panel connections preferred).
func maxGains(m *assign.Model, gains []float64, order []int, selected []bool, cfg Config) {
	for i := range order {
		order[i] = i
	}
	ivs := m.Set.Intervals
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if gains[ia] != gains[ib] {
			return gains[ia] > gains[ib]
		}
		if !cfg.DisableSameNetTieBreak {
			if la, lb := len(ivs[ia].PinIDs), len(ivs[ib].PinIDs); la != lb {
				return la > lb
			}
		}
		return ia < ib
	})
	for i := range selected {
		selected[i] = false
	}
	assigned := make(map[int]bool, m.NumPins())
	remaining := m.NumPins()
	for _, i := range order {
		if remaining == 0 {
			break
		}
		skip := false
		for _, pid := range ivs[i].PinIDs {
			if assigned[pid] {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		selected[i] = true
		for _, pid := range ivs[i].PinIDs {
			assigned[pid] = true
			remaining--
		}
	}
}

// iterationWorkers decides, per stage, whether the per-iteration work is
// big enough to amortize a fork-join. The cutover depends only on problem
// sizes, never on timing, so the choice — and with it the exact execution —
// is reproducible.
func iterationWorkers(cfg Config, numIntervals, numSets int) (gainWorkers, setWorkers int) {
	gainWorkers, setWorkers = 1, 1
	if cfg.Workers <= 1 {
		return
	}
	// The gain refresh is one subtraction per interval: it takes a large
	// model before goroutines pay for themselves.
	if numIntervals >= 64*parallel.Threshold {
		gainWorkers = cfg.Workers
	}
	if numSets >= parallel.Threshold {
		setWorkers = cfg.Workers
	}
	return
}

// penalize implements Algorithm 1's multiplier update: for every violated
// conflict set, move lambda_m along the subgradient with step
// t_k = L_m / k^alpha, and propagate the change into per-interval
// penalties. Returns the violation count.
//
// The per-conflict-set subproblems run on up to workers goroutines. Each
// set owns its lambda slot and writes its penalty delta and selection
// count to scratch (deltas and counts, one slot per set); the deltas are
// then folded into the shared per-interval penalties serially in set
// index order, so every floating point accumulation happens in the same
// order and the multiplier trajectory is byte-identical for every worker
// count.
func penalize(m *assign.Model, selected []bool, lambda, penalties []float64, k int, cfg Config, workers int, deltas []float64, counts []int) int {
	kAlpha := math.Pow(float64(k), cfg.Alpha)
	sets := m.Conflicts.Sets
	parallel.ForEachChunk(workers, len(sets), func(lo, hi int) {
		for si := lo; si < hi; si++ {
			cs := &sets[si]
			count := 0
			for _, id := range cs.IDs {
				if selected[id] {
					count++
				}
			}
			counts[si] = count
			deltas[si] = 0
			if count <= 1 && !cfg.FullSubgradient {
				continue
			}
			lm := float64(cs.Common.Len())
			tk := lm / kAlpha
			next := lambda[si] + tk*float64(count-1)
			if next < 0 {
				next = 0
			}
			if delta := next - lambda[si]; delta != 0 {
				lambda[si] = next
				deltas[si] = delta
			}
		}
	})
	vio := 0
	for si := range sets {
		if counts[si] > 1 {
			vio++
		}
		if delta := deltas[si]; delta != 0 {
			for _, id := range sets[si].IDs {
				penalties[id] += delta
			}
		}
	}
	return vio
}

// refine performs the greedy conflict removal of Algorithm 2 line 11:
// while any conflict set holds more than one selected interval, shrink the
// offending intervals (all but the most profitable member) down to their
// pins' minimum intervals on the same track. Because minimum intervals are
// pairwise disjoint, the process strictly reduces the number of non-minimum
// assignments and terminates in a conflict-free state.
//
// The solution's ByPin map is updated in place; Selected/metrics must be
// recomputed by the caller. Returns the number of pin demotions.
func refine(m *assign.Model, sol *assign.Solution) int {
	shrunk := 0
	set := m.Set
	for pass := 0; pass <= m.NumPins()+1; pass++ {
		selected := make([]bool, m.NumIntervals())
		users := make(map[int][]int) // interval -> pins using it
		// Sorted pin order keeps users[iv] (and thus demote order)
		// independent of map iteration order.
		pids := make([]int, 0, len(sol.ByPin))
		for pid := range sol.ByPin {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			iv := sol.ByPin[pid]
			selected[iv] = true
			users[iv] = append(users[iv], pid)
		}
		changed := false
		for si := range m.Conflicts.Sets {
			cs := &m.Conflicts.Sets[si]
			var sel []int
			for _, id := range cs.IDs {
				if selected[id] {
					sel = append(sel, id)
				}
			}
			if len(sel) < 2 {
				continue
			}
			// Keep the most profitable member; shrink every other
			// non-minimum member. If nothing else can shrink, shrink the
			// keeper itself.
			keep := sel[0]
			for _, id := range sel[1:] {
				if m.Profits[id] > m.Profits[keep] {
					keep = id
				}
			}
			any := false
			for _, id := range sel {
				if id == keep || set.Intervals[id].MinForPin >= 0 {
					continue
				}
				shrunk += demote(m, sol, id, users[id])
				selected[id] = false
				any = true
				changed = true
			}
			if !any && set.Intervals[keep].MinForPin < 0 {
				shrunk += demote(m, sol, keep, users[keep])
				selected[keep] = false
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return shrunk
}

// demote reassigns every pin using interval id to its minimum interval on
// the same track (falling back to any minimum interval).
func demote(m *assign.Model, sol *assign.Solution, id int, pins []int) int {
	track := m.Set.Intervals[id].Track
	n := 0
	for _, pid := range pins {
		if sol.ByPin[pid] != id {
			continue
		}
		min := m.Set.MinInterval(pid, track)
		if min < 0 {
			min = m.Set.AnyMinInterval(pid)
		}
		if min >= 0 && min != id {
			sol.ByPin[pid] = min
			n++
		}
	}
	return n
}
