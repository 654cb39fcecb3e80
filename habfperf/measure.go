package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// summary is a median with the quartiles around it.
type summary struct {
	q1, med, q3 float64
	n           int
}

// summarize returns the quartiles of xs by linear interpolation between
// order statistics. xs is sorted in place.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	return summary{q1: quantile(xs, 0.25), med: quantile(xs, 0.5), q3: quantile(xs, 0.75), n: len(xs)}
}

// quantile reads the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// repeat times fn reps times, each after a GC fence, and summarizes the
// durations in seconds. drop, when set, releases the previous call's
// result before the fence, so every call starts from the same heap.
func repeat(reps int, drop func(), fn func() error) (summary, error) {
	ds := make([]float64, reps)
	for i := range ds {
		if drop != nil {
			drop()
		}
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return summary{}, err
		}
		ds[i] = time.Since(start).Seconds()
	}
	return summarize(ds), nil
}

// measuredRounds is how many timed rounds one run's measuring time is cut
// into. A warm-up round of the same length runs first and is discarded.
const measuredRounds = 20

// round is what one timed round observed.
type round struct {
	ops     int       // membership answers plus acknowledged Adds
	elapsed float64   // seconds
	lat     []float64 // per-call latencies, µs
	addLat  []float64 // per-Add latencies, µs
}

// roundStats are the figures of a timed phase. keysPerS summarizes the
// per-round rates and overall is total answers over total round time;
// the latencies are medians over rounds of each round's percentile.
type roundStats struct {
	keysPerS, p50, p90, p99, addP50 summary
	perRound                        []float64 // keys/s of each measured round, in order
	overall                         float64
	ops                             int
	gcCycles                        uint32 // collections the runtime started itself
	mallocs                         uint64
	ctxSwitches                     int64
	cpu                             time.Duration
}

// runRounds runs the timed phase: a warm-up round, then measuredRounds
// rounds of total/measuredRounds each, each after a runtime.GC fence.
// step does one unit of work (one call or burst) into r and returns
// false to end the phase early on a broken connection; rounds end on a
// unit boundary. after, when set, runs once at the end of every round,
// outside the round's time, and records its own latencies into r.addLat:
// it spreads a second measurement over the whole phase, so a slow spell
// of the host touches both alike.
func runRounds(total time.Duration, step func(r *round) bool, after func(r *round)) roundStats {
	per := total / measuredRounds
	var r round
	var st roundStats
	var elapsed float64
	var p50, p90, p99, add []float64
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	for i := -1; i < measuredRounds; i++ {
		r.ops, r.lat, r.addLat = 0, r.lat[:0], r.addLat[:0]
		runtime.GC()
		if i == 0 {
			runtime.ReadMemStats(&ms0)
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail with RUSAGE_SELF
		}
		start := time.Now()
		ok := true
		for ok && time.Since(start) < per {
			ok = step(&r)
		}
		r.elapsed = time.Since(start).Seconds()
		if after != nil && ok {
			after(&r)
		}
		if i >= 0 {
			st.ops += r.ops
			elapsed += r.elapsed
			st.perRound = append(st.perRound, float64(r.ops)/r.elapsed)
			sort.Float64s(r.lat)
			p50 = append(p50, quantile(r.lat, 0.50))
			p90 = append(p90, quantile(r.lat, 0.90))
			p99 = append(p99, quantile(r.lat, 0.99))
			if len(r.addLat) > 0 {
				sort.Float64s(r.addLat)
				add = append(add, quantile(r.addLat, 0.5))
			}
		}
		if !ok {
			break
		}
	}
	runtime.ReadMemStats(&ms1)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	// Every fence after the first is one forced cycle; only the cycles
	// the runtime started itself are the workload's.
	st.gcCycles = (ms1.NumGC - ms0.NumGC) - (ms1.NumForcedGC - ms0.NumForcedGC)
	st.mallocs = ms1.Mallocs - ms0.Mallocs
	st.ctxSwitches = (ru1.Nvcsw + ru1.Nivcsw) - (ru0.Nvcsw + ru0.Nivcsw)
	st.cpu = time.Duration(syscall.TimevalToNsec(ru1.Utime)+syscall.TimevalToNsec(ru1.Stime)) -
		time.Duration(syscall.TimevalToNsec(ru0.Utime)+syscall.TimevalToNsec(ru0.Stime))
	st.keysPerS = summarize(append([]float64(nil), st.perRound...))
	st.overall = float64(st.ops) / elapsed
	st.p50, st.p90, st.p99, st.addP50 = summarize(p50), summarize(p90), summarize(p99), summarize(add)
	return st
}

// timeEach times fn on each key (µs), each call in a span named layer,
// appending to dst.
func timeEach(dst []float64, tr *tracer, layer string, keys [][]byte, fn func(key []byte)) []float64 {
	for i, k := range keys {
		tr.begin(layer, int64(i))
		start := time.Now()
		fn(k)
		dst = append(dst, float64(time.Since(start).Nanoseconds())/1e3)
		tr.end()
	}
	return dst
}

// minSample is the least time one sample of a sampler spans: an
// operation shorter than that is timed over as many back-to-back calls
// as fill it, so neither the clock's own cost nor one slow call decides
// a sample: single restores of one snapshot swing about twofold from
// call to call.
const minSample = 2 * time.Millisecond

// sampler times one operation in samples taken at moments spread over a
// run, so a slow spell of the host lands in few of them and their median
// passes it by. calls is how many calls one sample times, the least
// power of two that fills minSample; a sample records the time per call
// in seconds.
type sampler struct {
	calls int
	ds    []float64
}

// take records n samples of fn. The first take sets calls by doubling,
// so a cold first call cannot leave samples short.
func (s *sampler) take(n int, fn func() error) error {
	for c := 1; s.calls == 0; c *= 2 {
		d, err := timeCalls(c, fn)
		if err != nil {
			return err
		}
		if d >= minSample {
			s.calls = c
		}
	}
	for range n {
		d, err := timeCalls(s.calls, fn)
		if err != nil {
			return err
		}
		s.ds = append(s.ds, d.Seconds()/float64(s.calls))
	}
	return nil
}

// timeCalls times c back-to-back calls of fn.
func timeCalls(c int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for range c {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

func (s *sampler) summary() summary { return summarize(append([]float64(nil), s.ds...)) }

// referenceLoop times a fixed pure-CPU loop. Printed at the start and end
// of every run, it shows whether the host ran in a slow spell; it is not
// a metric.
func referenceLoop() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink ^= x
	return time.Since(start)
}

// sink keeps the results of timed pure computations live.
var sink uint64

// phases notes how long each untimed phase of a run took, so a slow run
// shows where its time went.
type phases struct {
	rep  *report
	last time.Time
}

func newPhases(rep *report) *phases { return &phases{rep: rep, last: time.Now()} }

func (p *phases) done(name string) {
	now := time.Now()
	p.rep.note("phase %-10s %8.3f s", name, now.Sub(p.last).Seconds())
	p.last = now
}
