// Package conflict implements linear conflict set detection for pin access
// intervals (paper §3.2).
//
// A conflict set is a maximal group of intervals on one routing track whose
// spans share a common grid point (a maximal clique of the interval overlap
// graph). For n intervals the sweep emits at most n maximal sets, which
// keeps the ILP constraint count linear instead of quadratic
// (one sum-<=-1 row per set instead of one row per overlapping pair).
package conflict

import (
	"sort"

	"cpr/internal/geom"
	"cpr/internal/parallel"
	"cpr/internal/pinaccess"
)

// Set is one maximal conflict set on a track.
type Set struct {
	// Track is the M2 track all members lie on.
	Track int
	// IDs are the member interval IDs, ascending.
	IDs []int
	// Common is the intersection of all member spans. Its length is the
	// L_m used for the Lagrangian subgradient step size.
	Common geom.Interval
}

// Detect sweeps every track and returns all maximal conflict sets with at
// least two members, ordered by track then left edge of the common span.
func Detect(intervals []pinaccess.Interval) []Set {
	return DetectWorkers(intervals, 1)
}

// DetectWorkers is Detect with the per-track sweeps sharded across up to
// workers goroutines (<= 1 is sequential). Tracks are independent, each
// sweep writes to its own slot, and slots are concatenated in ascending
// track order, so the result is byte-identical for every worker count.
func DetectWorkers(intervals []pinaccess.Interval, workers int) []Set {
	byTrack := make(map[int][]int)
	for i := range intervals {
		byTrack[intervals[i].Track] = append(byTrack[intervals[i].Track], i)
	}
	tracks := make([]int, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Ints(tracks)

	if len(tracks) < parallel.Threshold {
		workers = 1
	}
	shards := make([][]Set, len(tracks))
	parallel.ForEach(workers, len(tracks), func(ti int) {
		shards[ti] = detectTrack(intervals, byTrack[tracks[ti]], tracks[ti])
	})
	var out []Set
	for _, shard := range shards {
		out = append(out, shard...)
	}
	return out
}

// detectTrack runs the left-to-right sweep on one track's intervals.
func detectTrack(intervals []pinaccess.Interval, ids []int, track int) []Set {
	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(a, b int) bool {
		sa, sb := intervals[sorted[a]].Span, intervals[sorted[b]].Span
		if sa.Lo != sb.Lo {
			return sa.Lo < sb.Lo
		}
		if sa.Hi != sb.Hi {
			return sa.Hi < sb.Hi
		}
		return sorted[a] < sorted[b]
	})

	var out []Set
	var active []int
	added := false

	emit := func() {
		if !added || len(active) < 2 {
			return
		}
		members := append([]int(nil), active...)
		sort.Ints(members)
		common := intervals[members[0]].Span
		for _, id := range members[1:] {
			common = common.Intersect(intervals[id].Span)
		}
		out = append(out, Set{Track: track, IDs: members, Common: common})
	}

	for _, id := range sorted {
		lo := intervals[id].Span.Lo
		needRemoval := false
		for _, a := range active {
			if intervals[a].Span.Hi < lo {
				needRemoval = true
				break
			}
		}
		if needRemoval {
			emit()
			added = false
			keep := active[:0]
			for _, a := range active {
				if intervals[a].Span.Hi >= lo {
					keep = append(keep, a)
				}
			}
			active = keep
		}
		active = append(active, id)
		added = true
	}
	emit()
	return out
}

// Matrix is the conflict structure in the form consumed by the assignment
// solvers: for every interval, the conflict sets it belongs to.
type Matrix struct {
	Sets []Set
	// MemberOf[i] lists indices into Sets for interval i.
	MemberOf [][]int
}

// BuildMatrixWorkers runs DetectWorkers and indexes every interval's
// conflict-set membership. The membership index is derived serially
// from the ordered set list, so it inherits the sweep's determinism.
func BuildMatrixWorkers(intervals []pinaccess.Interval, workers int) *Matrix {
	sets := DetectWorkers(intervals, workers)
	m := &Matrix{Sets: sets, MemberOf: make([][]int, len(intervals))}
	for si := range sets {
		for _, id := range sets[si].IDs {
			m.MemberOf[id] = append(m.MemberOf[id], si)
		}
	}
	return m
}

// Violations counts the conflict sets with more than one selected interval.
// selected[i] reports whether interval i is chosen.
func (m *Matrix) Violations(selected []bool) int {
	vio := 0
	for si := range m.Sets {
		count := 0
		for _, id := range m.Sets[si].IDs {
			if selected[id] {
				count++
				if count > 1 {
					vio++
					break
				}
			}
		}
	}
	return vio
}
