package main

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"time"

	"xfaas"
	"xfaas/internal/core"
	"xfaas/internal/psim"
	"xfaas/internal/rng"
	"xfaas/internal/workload"
)

// workloadSpec is one fixed benchmark workload. The platform, its
// topology and its function population are fixed by the workload (built
// from configSeed); the benchmark's seed draws only the arrival stream
// the generators feed in. Nothing depends on how many repetitions a run
// makes.
type workloadSpec struct {
	name string
	why  string
	// rep builds the platform(s) and runs one repetition.
	rep func(seed uint64, o repOpts) rep
}

// configSeed keys every workload's platform, topology and population.
const configSeed = 1

// repOpts selects what one repetition observes. The zero value is the
// untraced end-to-end measurement.
type repOpts struct {
	// traced turns on the per-call tracer, the invariant checker and
	// the submit timer.
	traced bool
	// setupOnly returns after the set-up, without running.
	setupOnly bool
	// profile, when set, receives a CPU profile of the timed run.
	profile *bytes.Buffer
}

// rep is one repetition's measurements.
type rep struct {
	// setups are the host times of each set-up in the repetition: one
	// per platform build (fleet builds two: the Seq reference and the
	// parallel run).
	setups []time.Duration
	// steps are the host times of the set-up constructors, by name.
	steps map[string]time.Duration
	// host is the host time of the timed run (fleet: the parallel run).
	host time.Duration
	// seqHost is fleet's Seq reference run host time (0 elsewhere).
	seqHost time.Duration
	// allocs counts heap allocations during the timed run.
	allocs uint64
	// submits and submitHost are the number and host time of the timed
	// Platform.Submit calls (traced runs only).
	submits    int64
	submitHost time.Duration
	out        outcome
	// latencies are the exact E2E latencies of every completed call.
	latencies []float64
	// traced is set on traced repetitions.
	traced *tracedOut
}

var workloads = []workloadSpec{
	{
		name: "longtail",
		why:  "2000 rarely called functions at 20 calls/s on 48 workers: per-tick cost scales with registered functions, so DurableQ poll and the generator dominate",
		rep: func(seed uint64, o repOpts) rep {
			pcfg := xfaas.DefaultPopulationConfig()
			pcfg.Functions = 2000
			pcfg.TotalRPS = 20
			pcfg.SpikyFunctions = 0
			pcfg.MidnightSpikeFrac = 0
			cfg := xfaas.DefaultConfig()
			cfg.Cluster.Regions = 3
			cfg.Cluster.TotalWorkers = 48
			return single(seed, cfg, pcfg, time.Hour, o)
		},
	},
	{
		name: "backlog",
		why:  "offered load above capacity with spiky bursts and the midnight spike: a deep write-heavy DurableQ backlog with quota, congestion, GTC and time-shifting active",
		rep: func(seed uint64, o repOpts) rep {
			pcfg := xfaas.DefaultPopulationConfig()
			pcfg.TotalRPS = 60
			cfg := xfaas.DefaultConfig()
			cfg.Cluster.Regions = 6
			cfg.Cluster.TotalWorkers = 24
			return single(seed, cfg, pcfg, 2*time.Hour, o)
		},
	},
	{
		name: "fleet",
		why:  "20-partition parallel platform with 100k workers: the per-call submit and WorkerLB path, sim.Group and psim; the only parallel workload",
		rep: func(seed uint64, o repOpts) rep {
			opts := xfaas.DefaultParallelOptions()
			opts.Parts = 20
			opts.Regions = 20
			opts.TotalWorkers = 100000
			opts.Functions = 240
			opts.RPS = 1200
			opts.CrossFrac = 0.1
			opts.Minutes = 2
			opts.Prewarm = false
			opts.SLO = true
			opts.Seed = configSeed
			return fleet(opts, seed, o)
		},
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// single runs one repetition of a single-platform workload: build the
// population, platform and generator (timed as set-up), then run the
// engine for d of simulated time (timed as the run).
func single(seed uint64, cfg core.Config, pcfg workload.PopulationConfig, d time.Duration, o repOpts) rep {
	cfg.Seed = configSeed
	cfg.CodePushInterval = 0
	cfg.Observe.Accounting = true
	if o.traced {
		cfg.Trace.Enabled = true
		cfg.Trace.SampleEvery = 16
		cfg.Invariants.Enabled = true
	}
	r := rep{steps: map[string]time.Duration{}}
	resume := pauseGC()
	t0 := time.Now()
	pop := xfaas.NewPopulation(pcfg, xfaas.NewRand(configSeed+100))
	t1 := time.Now()
	p := xfaas.New(cfg, pop.Registry)
	t2 := time.Now()
	var st submitTimer
	submit := p.SubmitFunc()
	if o.traced {
		submit = st.wrap(submit)
	}
	gen := xfaas.NewGenerator(p.Engine, pop, p.Topo.CapacityShare(), submit, xfaas.NewRand(seed))
	t3 := time.Now()
	r.steps["population"] = t1.Sub(t0)
	r.steps["platform"] = t2.Sub(t1)
	r.steps["generator"] = t3.Sub(t2)
	r.setups = []time.Duration{t3.Sub(t0)}
	resume()
	if o.setupOnly {
		return r
	}
	lat := recordLatencies(p)

	r.host, r.allocs = timed(o, func() {
		gen.Start()
		p.Engine.RunFor(d)
	})
	r.submits, r.submitHost = st.n, st.host
	r.out = collect([]*core.Platform{p}, []*workload.Generator{gen}, p.Engine.Processed())
	r.latencies = *lat
	if o.traced {
		r.traced = observeTraced([]*core.Platform{p})
	}
	return r
}

// pauseGC collects garbage and pauses the collector until resume is
// called. Set-ups are timed with it paused, so a set-up's time is its
// construction work rather than whichever GC cycles happen to land in
// it; the next collection (timed collects before every run) reclaims
// the set-up's garbage.
func pauseGC() (resume func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// recordLatencies collects the exact submit→done latency of every
// completion, the same observations Platform.E2ELatency buckets.
func recordLatencies(p *core.Platform) *[]float64 {
	lat := new([]float64)
	p.AddOnExecuted(func(c *xfaas.Call) {
		*lat = append(*lat, (p.Engine.Now() - c.SubmitTime).Seconds())
	})
	return lat
}

// fleet runs one repetition of the partitioned workload: the Seq
// reference, then the parallel run of the same options, each on a fresh
// build. The two reports must be byte-identical. A traced repetition
// makes only the parallel run.
func fleet(opts psim.Options, seed uint64, o repOpts) rep {
	r := rep{steps: map[string]time.Duration{}}
	build := func(seq bool) (*psim.Runner, []*submitTimer, []*[]float64) {
		opts.Seq = seq
		opts.Traced = o.traced
		opts.Invariants = o.traced
		resume := pauseGC()
		t0 := time.Now()
		pr := xfaas.NewParallel(opts)
		t1 := time.Now()
		timers := seedGenerators(pr, seed, o.traced)
		t2 := time.Now()
		resume()
		r.setups = append(r.setups, t2.Sub(t0))
		r.steps["platform"] = t1.Sub(t0)
		r.steps["generator"] = t2.Sub(t1)
		var lats []*[]float64
		for _, part := range pr.Parts {
			lats = append(lats, recordLatencies(part.Platform))
		}
		return pr, timers, lats
	}

	if o.setupOnly {
		build(false)
		return r
	}
	var seqReport string
	if !o.traced {
		seq, _, _ := build(true)
		r.seqHost, _ = timed(repOpts{}, func() { seqReport = seq.Run() })
	}

	par, timers, lats := build(false)
	var parReport string
	r.host, r.allocs = timed(o, func() { parReport = par.Run() })
	if !o.traced && parReport != seqReport {
		fail("fleet: parallel report differs from the Seq reference:\n--- seq ---\n%s--- parallel ---\n%s", seqReport, parReport)
	}
	if o.traced {
		for _, t := range timers {
			r.submits += t.n
			r.submitHost += t.host
		}
	}
	var plats []*core.Platform
	var gens []*workload.Generator
	for i, part := range par.Parts {
		plats = append(plats, part.Platform)
		gens = append(gens, part.Generator)
		r.latencies = append(r.latencies, *lats[i]...)
	}
	r.out = collect(plats, gens, par.Group.Processed())
	if o.traced {
		r.traced = observeTraced(plats)
	}
	return r
}

// seedGenerators replaces each partition's generator with one drawing
// its arrivals from the benchmark seed (psim seeds its own from the
// platform seed), over the same sub-population psim deals the partition
// (every Parts-th model) and its region weights, with a timed submit
// path when traced. Each partition owns its own timer, so the parallel
// run shares nothing.
func seedGenerators(pr *psim.Runner, seed uint64, traced bool) []*submitTimer {
	src := rng.New(seed)
	timers := make([]*submitTimer, len(pr.Parts))
	for p, part := range pr.Parts {
		var models []*workload.FuncModel
		for i := p; i < len(pr.Pop.Models); i += pr.Opts.Parts {
			models = append(models, pr.Pop.Models[i])
		}
		sub := &workload.Population{Models: models, Registry: pr.Pop.Registry, TeamOf: pr.Pop.TeamOf}
		timers[p] = &submitTimer{}
		submit := part.Platform.SubmitFunc()
		if traced {
			submit = timers[p].wrap(submit)
		}
		part.Generator = workload.NewGenerator(pr.Group.Part(p), sub, part.Platform.Topo.CapacityShare(),
			submit, src.Split())
	}
	return timers
}

// submitTimer times every Platform.Submit the generator makes. Each
// partition owns its own timer, so the parallel run shares nothing.
type submitTimer struct {
	n    int64
	host time.Duration
}

func (t *submitTimer) wrap(inner workload.SubmitFunc) workload.SubmitFunc {
	return func(region xfaas.RegionID, client string, c *xfaas.Call) error {
		t0 := time.Now()
		err := inner(region, client, c)
		t.host += time.Since(t0)
		t.n++
		return err
	}
}
