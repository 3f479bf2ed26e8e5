package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"xfaas/internal/core"
)

// cpuLayers are the layers a CPU sample can be charged to: every
// package under internal/ that a workload runs, "gc" and "other".
// Samples charged to any other package fold into "other".
var cpuLayers = []string{
	"sim", "core", "workload", "submitter", "queuelb", "durableq", "journal",
	"scheduler", "policy", "workerlb", "worker", "congestion", "ratelimit",
	"gtc", "locality", "utilization", "jit", "slo", "stats", "rng",
	"function", "cluster", "isolation", "downstream", "rim", "drain",
	"chaos", "config", "kv", "trace", "invariant", "psim", "gc", "other",
}

const profileHz = 500

// phases are the CallTrace.Breakdown components, in lifecycle order.
var phases = []string{"submit", "migrate", "deferred", "queue", "retry", "sched", "exec"}

// tracedOut is what a traced repetition observes beyond its outcome.
type tracedOut struct {
	violations []string
	// phase is the mean of each breakdown component in simulated
	// seconds over the recorders' retained traces; calls is their count.
	phase map[string]float64
	calls int
}

// observeTraced reads the invariant checkers and trace recorders of a
// finished traced run.
func observeTraced(plats []*core.Platform) *tracedOut {
	t := &tracedOut{phase: map[string]float64{}}
	for _, p := range plats {
		during := len(p.Inv.Violations())
		for i, v := range p.Inv.Final() {
			when := "during the run"
			if i >= during {
				when = "at the end-of-run evaluation (Checker.Final)"
			}
			t.violations = append(t.violations, fmt.Sprintf("%v, found %s", v, when))
		}
		seen := map[uint64]bool{}
		for _, ct := range append(p.Tracer.Recent(), p.Tracer.Slowest()...) {
			if seen[ct.ID] {
				continue
			}
			seen[ct.ID] = true
			c, ok := ct.Breakdown()
			if !ok {
				continue
			}
			for i, d := range []time.Duration{c.Submit, c.Migrate, c.Deferred, c.Queue, c.Retry, c.Sched, c.Exec} {
				t.phase[phases[i]] += d.Seconds()
			}
			t.calls++
		}
	}
	for k := range t.phase {
		t.phase[k] /= float64(max(t.calls, 1))
	}
	return t
}

// perLayer makes untraced repetitions for a third of the budget (the
// overhead base and digest reference), then one traced repetition of
// the same seed with the tracer, the invariant checker, the submit timer
// and a CPU profile on, and derives the per-layer metrics.
func perLayer(w workloadSpec, seed uint64, budget time.Duration) ([]rep, []metric) {
	start := time.Now()
	var reps []rep
	for len(reps) < 1 || time.Since(start) < budget/3 {
		reps = append(reps, w.rep(seed, repOpts{}))
		checkDigest(w.name, reps)
	}

	var prof bytes.Buffer
	// 500 Hz instead of pprof's 100 Hz, for a steadier attribution. The
	// runtime notes on stderr that StartCPUProfile cannot lower it again.
	runtime.SetCPUProfileRate(profileHz)
	tr := w.rep(seed, repOpts{traced: true, profile: &prof})
	fmt.Printf("traced: calls digest %s host %.3fs\n", tr.out.callsDigest(), tr.host.Seconds())
	if got, want := tr.out.calls(), reps[0].out.calls(); got != want {
		fail("%s: tracing perturbed the simulation:\n--- untraced ---\n%s\n--- traced ---\n%s", w.name, want, got)
	}
	for _, v := range tr.traced.violations {
		fail("%s: invariant violation: %s", w.name, v)
	}
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		fail("decode cpu profile: %v", err)
	}
	att := attribute(samples)
	fmt.Printf("traced: %d profile samples, %.3fs sampled CPU\n", len(samples), float64(att.total)/1e9)

	var host, speedup []float64
	steps := map[string][]float64{}
	for _, r := range reps {
		host = append(host, r.host.Seconds())
		if r.seqHost > 0 {
			speedup = append(speedup, r.seqHost.Seconds()/r.host.Seconds())
		}
		for k, d := range r.steps {
			steps[k] = append(steps[k], d.Seconds())
		}
	}

	var ms []metric
	share := foldLayers(att.share)
	for _, l := range cpuLayers {
		ms = append(ms, metric{l + ".cpu_frac", "fraction", share[l]})
	}
	c, done := tr.out.counts, tr.out.completed
	ms = append(ms,
		metric{"scheduler.polled_per_simcall", "count", ratio(c["polled"], done)},
		metric{"scheduler.quota_throttled_per_simcall", "count", ratio(c["quota_throttled"], done)},
		metric{"scheduler.congestion_denied_per_simcall", "count", ratio(c["congestion_denied"], done)},
		metric{"durableq.redelivered_per_simcall", "count", ratio(c["redelivered"], done)},
		metric{"submitter.submit_ns", "ns", ratio(float64(tr.submitHost.Nanoseconds()), float64(tr.submits))},
		metric{"submitter.throttled_frac", "fraction", ratio(c["throttled"], c["throttled"]+c["submitted"])},
		metric{"queuelb.cross_region_frac", "fraction", ratio(c["cross_region"], c["routed"])},
		metric{"workerlb.accept_frac", "fraction", ratio(c["lb_dispatched"], c["lb_dispatched"]+c["lb_rejected"])},
		metric{"worker.reject_frac", "fraction", ratio(c["rejections"], c["rejections"]+c["started"])},
		metric{"worker.cold_frac", "fraction", ratio(c["cold"], c["started"])},
		metric{"psim.spin_frac", "fraction", att.spin},
		metric{"psim.migrated_frac", "fraction", ratio(c["migrated_out"], done)},
		metric{"psim.speedup", "x", median(speedup)},
	)
	for _, p := range phases {
		ms = append(ms, metric{"trace." + p + "_s", "s", tr.traced.phase[p]})
	}
	ms = append(ms,
		metric{"trace.calls", "count", float64(tr.traced.calls)},
		metric{"trace.overhead_frac", "fraction", tr.host.Seconds()/median(host) - 1},
		metric{"invariant.violations", "count", float64(len(tr.traced.violations))},
		metric{"setup.population_s", "s", median(steps["population"])},
		metric{"setup.platform_s", "s", median(steps["platform"])},
		metric{"setup.generator_s", "s", median(steps["generator"])},
	)
	return append(reps, tr), ms
}

// foldLayers maps attribution shares onto cpuLayers, folding any other
// package into "other", so the reported shares sum to 1.
func foldLayers(share map[string]float64) map[string]float64 {
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	out := map[string]float64{}
	for k, v := range share {
		if known[k] {
			out[k] += v
		} else {
			out["other"] += v
		}
	}
	return out
}
