package conflict

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"cpr/internal/geom"
	"cpr/internal/pinaccess"
)

// mk builds a bare interval list on one track from spans.
func mk(track int, spans ...geom.Interval) []pinaccess.Interval {
	ivs := make([]pinaccess.Interval, len(spans))
	for i, s := range spans {
		ivs[i] = pinaccess.Interval{ID: i, Track: track, Span: s, MinForPin: -1}
	}
	return ivs
}

func TestNoConflicts(t *testing.T) {
	ivs := mk(0, geom.Interval{Lo: 0, Hi: 2}, geom.Interval{Lo: 4, Hi: 6}, geom.Interval{Lo: 8, Hi: 9})
	if sets := Detect(ivs); len(sets) != 0 {
		t.Errorf("disjoint intervals produced %d conflict sets", len(sets))
	}
}

func TestSimplePairConflict(t *testing.T) {
	ivs := mk(0, geom.Interval{Lo: 0, Hi: 5}, geom.Interval{Lo: 3, Hi: 8})
	sets := Detect(ivs)
	if len(sets) != 1 {
		t.Fatalf("got %d sets, want 1", len(sets))
	}
	if !reflect.DeepEqual(sets[0].IDs, []int{0, 1}) {
		t.Errorf("IDs = %v", sets[0].IDs)
	}
	if sets[0].Common != (geom.Interval{Lo: 3, Hi: 5}) {
		t.Errorf("Common = %v, want [3,5]", sets[0].Common)
	}
}

func TestChainProducesTwoMaximalSets(t *testing.T) {
	// A=[0,5], B=[3,10], C=[6,8]: cliques {A,B} and {B,C}.
	ivs := mk(0,
		geom.Interval{Lo: 0, Hi: 5},
		geom.Interval{Lo: 3, Hi: 10},
		geom.Interval{Lo: 6, Hi: 8})
	sets := Detect(ivs)
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2: %+v", len(sets), sets)
	}
	if !reflect.DeepEqual(sets[0].IDs, []int{0, 1}) || !reflect.DeepEqual(sets[1].IDs, []int{1, 2}) {
		t.Errorf("sets = %+v", sets)
	}
}

func TestNestedIntervals(t *testing.T) {
	// Outer [0,10] with two disjoint inner intervals: two maximal cliques.
	ivs := mk(0,
		geom.Interval{Lo: 0, Hi: 10},
		geom.Interval{Lo: 2, Hi: 3},
		geom.Interval{Lo: 5, Hi: 6})
	sets := Detect(ivs)
	if len(sets) != 2 {
		t.Fatalf("got %d sets, want 2: %+v", len(sets), sets)
	}
}

func TestTracksAreIndependent(t *testing.T) {
	ivs := []pinaccess.Interval{
		{ID: 0, Track: 0, Span: geom.Interval{Lo: 0, Hi: 5}, MinForPin: -1},
		{ID: 1, Track: 1, Span: geom.Interval{Lo: 0, Hi: 5}, MinForPin: -1},
	}
	if sets := Detect(ivs); len(sets) != 0 {
		t.Errorf("intervals on different tracks must not conflict: %+v", sets)
	}
}

func TestIdenticalIntervals(t *testing.T) {
	ivs := mk(0, geom.Interval{Lo: 1, Hi: 4}, geom.Interval{Lo: 1, Hi: 4}, geom.Interval{Lo: 1, Hi: 4})
	sets := Detect(ivs)
	if len(sets) != 1 || len(sets[0].IDs) != 3 {
		t.Fatalf("got %+v, want one set of 3", sets)
	}
}

// figure4Track reconstructs the flavour of paper Figure 4(b): a dense track
// where a1's five nested/stacked intervals overlap neighbours' intervals,
// producing a linear number of conflict sets.
func TestFigure4StyleTrack(t *testing.T) {
	ivs := mk(0,
		geom.Interval{Lo: 0, Hi: 6},   // Ia1_0
		geom.Interval{Lo: 0, Hi: 9},   // Ia1_1
		geom.Interval{Lo: 0, Hi: 13},  // Ia1_2
		geom.Interval{Lo: 4, Hi: 13},  // Ia1_3
		geom.Interval{Lo: 4, Hi: 9},   // Ia1_4
		geom.Interval{Lo: 8, Hi: 13},  // Id1_2
		geom.Interval{Lo: 11, Hi: 18}, // Ic_*
		geom.Interval{Lo: 15, Hi: 18}, // Id1_*
	)
	sets := Detect(ivs)
	// Linearity: at most n maximal sets.
	if len(sets) > len(ivs) {
		t.Fatalf("emitted %d sets for %d intervals; must be linear", len(sets), len(ivs))
	}
	assertSetsValid(t, ivs, sets)
}

// assertSetsValid checks the three correctness properties of the sweep:
// each set is a clique with the reported common span, every overlapping
// pair co-occurs in some set, and no set is a subset of another.
func assertSetsValid(t *testing.T, ivs []pinaccess.Interval, sets []Set) {
	t.Helper()
	for si, s := range sets {
		if len(s.IDs) < 2 {
			t.Errorf("set %d has fewer than 2 members", si)
		}
		common := ivs[s.IDs[0]].Span
		for _, id := range s.IDs[1:] {
			common = common.Intersect(ivs[id].Span)
		}
		if common.Empty() {
			t.Errorf("set %d is not a clique (empty common span)", si)
		}
		if common != s.Common {
			t.Errorf("set %d Common = %v, want %v", si, s.Common, common)
		}
	}
	// Pair coverage.
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].Track != ivs[j].Track || !ivs[i].Span.Overlaps(ivs[j].Span) {
				continue
			}
			found := false
			for _, s := range sets {
				hasI, hasJ := false, false
				for _, id := range s.IDs {
					if id == i {
						hasI = true
					}
					if id == j {
						hasJ = true
					}
				}
				if hasI && hasJ {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("overlapping pair (%d,%d) not covered by any set", i, j)
			}
		}
	}
	// No subset relations (maximality between emitted sets).
	for a := range sets {
		for b := range sets {
			if a == b || sets[a].Track != sets[b].Track {
				continue
			}
			if isSubset(sets[a].IDs, sets[b].IDs) {
				t.Errorf("set %v is a subset of %v", sets[a].IDs, sets[b].IDs)
			}
		}
	}
}

func isSubset(a, b []int) bool {
	if len(a) > len(b) {
		return false
	}
	set := make(map[int]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}

// bruteForceCliques computes maximal point-stabbing cliques directly.
func bruteForceCliques(ivs []pinaccess.Interval, lo, hi int) [][]int {
	var cliques [][]int
	seen := make(map[string]bool)
	for x := lo; x <= hi; x++ {
		var c []int
		for i := range ivs {
			if ivs[i].Span.Contains(x) {
				c = append(c, i)
			}
		}
		if len(c) < 2 {
			continue
		}
		key := keyOf(c)
		if !seen[key] {
			seen[key] = true
			cliques = append(cliques, c)
		}
	}
	// Drop non-maximal stabs.
	var maximal [][]int
	for i, c := range cliques {
		sub := false
		for j, d := range cliques {
			if i != j && isSubset(c, d) && len(c) < len(d) {
				sub = true
				break
			}
		}
		if !sub {
			maximal = append(maximal, c)
		}
	}
	return maximal
}

func keyOf(ids []int) string {
	b := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), ',')
	}
	return string(b)
}

// TestSweepMatchesBruteForce cross-checks the sweep against point-stabbing
// enumeration on random single-track instances.
func TestSweepMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 2 + r.Intn(10)
			spans := make([]geom.Interval, n)
			for i := range spans {
				lo := r.Intn(20)
				spans[i] = geom.Interval{Lo: lo, Hi: lo + r.Intn(8)}
			}
			vals[0] = reflect.ValueOf(spans)
		},
	}
	prop := func(spans []geom.Interval) bool {
		ivs := mk(0, spans...)
		sets := Detect(ivs)
		want := bruteForceCliques(ivs, 0, 30)
		if len(sets) != len(want) {
			return false
		}
		gotKeys := make(map[string]bool)
		for _, s := range sets {
			gotKeys[keyOf(s.IDs)] = true
		}
		for _, c := range want {
			sort.Ints(c)
			if !gotKeys[keyOf(c)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestBuildMatrixMembership(t *testing.T) {
	ivs := mk(0,
		geom.Interval{Lo: 0, Hi: 5},
		geom.Interval{Lo: 3, Hi: 10},
		geom.Interval{Lo: 6, Hi: 8})
	m := BuildMatrixWorkers(ivs, 1)
	if len(m.Sets) != 2 {
		t.Fatalf("sets = %d, want 2", len(m.Sets))
	}
	if !reflect.DeepEqual(m.MemberOf[0], []int{0}) ||
		!reflect.DeepEqual(m.MemberOf[1], []int{0, 1}) ||
		!reflect.DeepEqual(m.MemberOf[2], []int{1}) {
		t.Errorf("MemberOf = %v", m.MemberOf)
	}
}

func TestViolations(t *testing.T) {
	ivs := mk(0,
		geom.Interval{Lo: 0, Hi: 5},
		geom.Interval{Lo: 3, Hi: 10},
		geom.Interval{Lo: 6, Hi: 8})
	m := BuildMatrixWorkers(ivs, 1)
	if got := m.Violations([]bool{true, true, true}); got != 2 {
		t.Errorf("Violations(all) = %d, want 2", got)
	}
	if got := m.Violations([]bool{true, false, true}); got != 0 {
		t.Errorf("Violations(0,2) = %d, want 0", got)
	}
	if got := m.Violations([]bool{false, true, true}); got != 1 {
		t.Errorf("Violations(1,2) = %d, want 1", got)
	}
}

// oracleDetect is the brute-force multi-track oracle: per track, the
// maximal point-stabbing cliques of size >= 2 with their common spans,
// ordered like the sweep (track ascending, then common-span left edge).
// It is O(tracks * width * n) time and O(n^2) in comparisons — correct by
// construction, deliberately ignorant of the sweep's active-list logic.
func oracleDetect(ivs []pinaccess.Interval, lo, hi int) []Set {
	byTrack := make(map[int][]int)
	for i := range ivs {
		byTrack[ivs[i].Track] = append(byTrack[ivs[i].Track], i)
	}
	tracks := make([]int, 0, len(byTrack))
	for tr := range byTrack {
		tracks = append(tracks, tr)
	}
	sort.Ints(tracks)

	var out []Set
	for _, tr := range tracks {
		sub := make([]pinaccess.Interval, 0, len(byTrack[tr]))
		back := make([]int, 0, len(byTrack[tr]))
		for _, id := range byTrack[tr] {
			iv := ivs[id]
			iv.ID = len(sub)
			sub = append(sub, iv)
			back = append(back, id)
		}
		var trackSets []Set
		for _, c := range bruteForceCliques(sub, lo, hi) {
			ids := make([]int, len(c))
			common := sub[c[0]].Span
			for i, local := range c {
				ids[i] = back[local]
				common = common.Intersect(sub[local].Span)
			}
			sort.Ints(ids)
			trackSets = append(trackSets, Set{Track: tr, IDs: ids, Common: common})
		}
		sort.Slice(trackSets, func(a, b int) bool {
			return trackSets[a].Common.Lo < trackSets[b].Common.Lo
		})
		out = append(out, trackSets...)
	}
	return out
}

// randomIntervals draws n intervals over the given track and coordinate
// ranges with sequential IDs, as pinaccess generation would emit them.
func randomIntervals(r *rand.Rand, n, tracks, width, maxLen int) []pinaccess.Interval {
	ivs := make([]pinaccess.Interval, n)
	for i := range ivs {
		lo := r.Intn(width)
		ivs[i] = pinaccess.Interval{
			ID:        i,
			Track:     r.Intn(tracks),
			Span:      geom.Interval{Lo: lo, Hi: lo + r.Intn(maxLen)},
			MinForPin: -1,
		}
	}
	return ivs
}

// TestDetectMatchesOracleMultiTrack cross-checks the production sweep
// against the brute-force oracle on random multi-track instances,
// comparing the full Set values — members, tracks, common spans, and
// emission order — not just set counts.
func TestDetectMatchesOracleMultiTrack(t *testing.T) {
	r := rand.New(rand.NewSource(1702))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		n := 2 + r.Intn(30)
		tracks := 1 + r.Intn(5)
		ivs := randomIntervals(r, n, tracks, 40, 10)
		got := Detect(ivs)
		want := oracleDetect(ivs, 0, 60)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d tracks=%d):\n got %+v\nwant %+v", trial, n, tracks, got, want)
		}
	}
}

// TestDetectWorkersMatchesSequential drives the sharded sweep over enough
// tracks to engage its parallel branch and asserts byte-identical output
// against the sequential path and the oracle.
func TestDetectWorkersMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	for trial := 0; trial < 10; trial++ {
		ivs := randomIntervals(r, 600, 100, 50, 8)
		seq := Detect(ivs)
		for _, workers := range []int{2, 8} {
			par := DetectWorkers(ivs, workers)
			if !reflect.DeepEqual(par, seq) {
				t.Fatalf("trial %d: DetectWorkers(%d) differs from sequential", trial, workers)
			}
		}
		if want := oracleDetect(ivs, 0, 70); !reflect.DeepEqual(seq, want) {
			t.Fatalf("trial %d: sweep differs from oracle on the wide instance", trial)
		}
		seqM := BuildMatrixWorkers(ivs, 1)
		parM := BuildMatrixWorkers(ivs, 8)
		if !reflect.DeepEqual(parM, seqM) {
			t.Fatalf("trial %d: BuildMatrixWorkers(8) differs from sequential", trial)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	if sets := Detect(nil); len(sets) != 0 {
		t.Error("Detect(nil) should be empty")
	}
	m := BuildMatrixWorkers(nil, 1)
	if len(m.Sets) != 0 || m.Violations(nil) != 0 {
		t.Error("BuildMatrixWorkers(nil, 1) should be empty")
	}
}
