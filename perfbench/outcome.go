package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"xfaas/internal/core"
	"xfaas/internal/stats"
	"xfaas/internal/workload"
)

// outcome is a repetition's simulated result: a pure function of the
// workload and seed, identical on every repetition and under any change
// that only speeds the simulator up.
type outcome struct {
	generated    float64
	submitErrors float64
	completed    float64
	deadLetters  float64
	pending      int
	events       uint64
	// util is the exact run-mean fleet CPU utilization from the
	// core-second accountants, weighted by each platform's capacity.
	util float64
	e2e  *stats.Histogram
	// counts are the per-layer simulated counters, by metric stem.
	counts map[string]float64
}

// collect reads a finished run's simulated outputs from its platforms
// and generators. events is Engine.Processed (or Group.Processed).
func collect(plats []*core.Platform, gens []*workload.Generator, events uint64) outcome {
	o := outcome{events: events, e2e: stats.NewHistogram(), counts: map[string]float64{}}
	c := o.counts
	for _, g := range gens {
		o.generated += g.Generated.Value()
		o.submitErrors += g.Errors.Value()
	}
	// Every worker has the same CPU capacity, so a platform's capacity
	// is its worker count.
	var workers float64
	for _, p := range plats {
		o.completed += p.Completions.Value()
		o.pending += p.PendingCalls()
		o.e2e.Merge(p.E2ELatency)
		n := 0.0
		for _, reg := range p.Regions() {
			n += float64(len(reg.Workers))
		}
		o.util += p.Acct.MeanUtilization(p.Engine.Now()) * n
		workers += n
		c["migrated_out"] += p.MigratedOut.Value()
		for _, reg := range p.Regions() {
			for _, s := range []struct {
				name string
				v    float64
			}{
				{"submitted", reg.Normal.Submitted.Value() + reg.Spiky.Submitted.Value()},
				{"throttled", reg.Normal.Throttled.Value() + reg.Spiky.Throttled.Value()},
				{"routed", reg.QueueLB.Routed.Value()},
				{"cross_region", reg.QueueLB.CrossRegion.Value()},
				{"lb_dispatched", reg.LB.Dispatched.Value()},
				{"lb_rejected", reg.LB.Rejected.Value()},
			} {
				c[s.name] += s.v
			}
			for _, sh := range reg.Shards {
				o.deadLetters += sh.DeadLetters.Value()
				c["redelivered"] += sh.Redelivered.Value()
			}
			for _, sc := range reg.Scheds {
				c["polled"] += sc.Polled.Value()
				c["quota_throttled"] += sc.QuotaThrottled.Value()
				c["congestion_denied"] += sc.CongestionDenied.Value()
			}
			for _, w := range reg.Workers {
				// Started executions: finished, still running, or
				// cancelled by a winning hedge.
				c["started"] += w.Executions.Value() + float64(w.Running()) + w.Cancelled.Value()
				c["rejections"] += w.Rejections.Value()
				c["cold"] += w.ColdExecutions.Value()
			}
		}
	}
	o.util /= workers
	return o
}

// failedFrac is the failure share the pipeline compares: submit errors
// returned to the generator plus dead-lettered calls of every
// disposition, over generated calls.
func (o outcome) failedFrac() float64 {
	return ratio(o.submitErrors+o.deadLetters, o.generated)
}

// digest fingerprints the simulated outputs: completions, dead letters,
// pending calls, processed events and the E2E histogram's shape. Two
// repetitions at one seed must agree on it.
func (o outcome) digest() string {
	return fingerprint(fmt.Sprintf("events=%d\n%s", o.events, o.calls()))
}

// callsDigest fingerprints the call outcomes alone. A traced run must
// agree on it with an untraced one; its event count differs, because the
// invariant probes run on the simulated clock.
func (o outcome) callsDigest() string { return fingerprint(o.calls()) }

// calls renders the call outcomes exactly.
func (o outcome) calls() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gen=%.0f err=%.0f done=%.0f dead=%.0f pending=%d util=%x\n",
		o.generated, o.submitErrors, o.completed, o.deadLetters, o.pending, math.Float64bits(o.util))
	fmt.Fprintf(&b, "e2e n=%d sum=%x min=%x max=%x", o.e2e.Count(),
		math.Float64bits(o.e2e.Sum()), math.Float64bits(o.e2e.Min()), math.Float64bits(o.e2e.Max()))
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		fmt.Fprintf(&b, " %x", math.Float64bits(o.e2e.Quantile(q)))
	}
	return b.String()
}

func fingerprint(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// beyondP99 counts the E2E samples ranked above the p99 sample.
func (o outcome) beyondP99() uint64 {
	n := o.e2e.Count()
	return n - uint64(0.99*float64(n))
}

// timed runs fn once under the repetition's observers and returns its
// host time and the heap allocations it made.
func timed(o repOpts, fn func()) (time.Duration, uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	profiling := o.profile != nil
	if profiling {
		if err := pprof.StartCPUProfile(o.profile); err != nil {
			fail("cpu profile: %v", err)
			profiling = false
		}
	}
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	if profiling {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	return d, after.Mallocs - before.Mallocs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
