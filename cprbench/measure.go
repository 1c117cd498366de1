package main

import (
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times each workload repeats its set-up;
// setup_s is the median.
const setupRepeats = 3

// seedOffset spaces per-seed circuit seeds apart, so seed 0 keeps the
// Table 2 seeds and every other seed gives unrelated circuits.
const seedOffset = 1_000_003

// specSeed derives a circuit seed from the workload seed and the
// circuit's own base seed.
func specSeed(seed, base int64) int64 { return base + seed*seedOffset }

// streamSeed derives an independent random stream (edit chains, request
// mixes) from the workload seed.
func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64() >> 1)
}

// timeSetup runs fn setupRepeats times and returns the median duration
// in seconds. fn keeps whatever its last call built.
func timeSetup(fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// quantile is the linearly interpolated q-quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail returns the highest of the 99th, 95th, 90th and 75th percentiles
// of xs that has at least ten samples beyond it, with that percentile;
// (0, 0) when even the 75th has fewer.
func tail(xs []float64) (value, pct float64) {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return 0, 0
}

// recordLatencies stores the latency metrics of operation latencies (in
// seconds) that completed in wall seconds.
func recordLatencies(out *outcome, lat []float64, wall float64) {
	ms := make([]float64, len(lat))
	var sum float64
	for i, l := range lat {
		ms[i] = l * 1000
		sum += ms[i]
	}
	out.metrics["latency_ms"] = sum / float64(len(ms))
	out.metrics["throughput_per_s"] = float64(len(lat)) / wall
	out.metrics["ops.samples"] = float64(len(lat))
	out.metrics["ops.p50_ms"] = quantile(ms, 0.5)
	out.metrics["ops.tail_ms"], out.metrics["ops.tail_pct"] = tail(ms)
	out.notes["latencies_ms"] = ms
}

// loop calls op at least minOps times and until its calls have taken
// about seconds in total: it starts another call while the total plus
// half the last call's latency is short of seconds, so a run overshoots
// by half a call on average. It returns each call's latency and their
// sum. The function op returns, if any, runs off the clock right after
// the call: that is where outputs are checked. A failing op is counted
// by the caller; its latency is still recorded.
func loop(seconds float64, minOps int, op func(i int) (check func())) (lat []float64, busy float64) {
	for i := 0; i < max(minOps, 1) || busy+lat[i-1]/2 < seconds; i++ {
		t0 := time.Now()
		check := op(i)
		d := time.Since(t0).Seconds()
		lat = append(lat, d)
		busy += d
		if check != nil {
			check()
		}
	}
	return lat, busy
}
