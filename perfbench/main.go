// Command perfbench is the repository's benchmark. It runs fixed, seeded
// workloads against the public API, checks that the simulated outputs
// are deterministic and correct, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload longtail --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload fleet --trace 1      # per-layer metrics
//	bash perfbench/run.sh --workload all --seconds 120    # interleaved repeats
//
// With --trace 0 the run repeats the workload for --seconds host seconds
// and reports end-to-end metrics: host-time figures are medians over the
// repetitions, simulated figures are exact. With --trace 1 it makes
// untraced repetitions, then one traced, CPU-profiled repetition of the
// same seed, and reports per-layer metrics. METRICS.md defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// failures collects every correctness failure of the run.
var failures []string

func fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	failures = append(failures, msg)
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

func main() {
	var (
		name    = flag.String("workload", "longtail", "longtail, backlog, fleet, or all (interleaved repeat statistics)")
		seed    = flag.Uint64("seed", 1, "workload seed; 1 is every workload's default")
		seconds = flag.Int("seconds", 30, "host seconds to measure for")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced, profiled run")
	)
	flag.Parse()
	budget := time.Duration(*seconds) * time.Second

	if *name == "all" {
		interleaved(*seed, budget)
		if len(failures) > 0 {
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (longtail, backlog, fleet, all)\n", *name)
		os.Exit(2)
	}
	fmt.Printf("workload %s seed %d: %s\n", w.name, *seed, w.why)

	var metrics []metric
	var reps []rep
	switch *traced {
	case 0:
		var setups []float64
		reps, setups = measure(w, *seed, budget)
		metrics = endToEnd(w, reps, setups)
	case 1:
		reps, metrics = perLayer(w, *seed, budget)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}

	var attempted, failed float64
	for _, r := range reps {
		attempted += r.out.generated
		failed += r.out.submitErrors + r.out.deadLetters
	}
	for _, m := range metrics {
		fmt.Printf("%-44s %14.6g %s\n", m.name, m.value, m.unit)
	}
	emit(attempted, failed, metrics)
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// minReps is the fewest repetitions a run makes, however long they
// take; minSetups the fewest set-ups it times (repetitions that build
// fewer are topped up with set-ups that are not run).
const (
	minReps   = 3
	minSetups = 15
)

// measure repeats the workload until the budget is spent, and at least
// minReps times, then tops the set-ups up to minSetups. Every repetition
// must reproduce the first one's simulated outputs exactly. It returns
// the repetitions and the host seconds of every set-up.
func measure(w workloadSpec, seed uint64, budget time.Duration) ([]rep, []float64) {
	start := time.Now()
	var reps []rep
	for len(reps) < minReps || time.Since(start) < budget {
		reps = append(reps, w.rep(seed, repOpts{}))
		checkDigest(w.name, reps)
		if len(reps) > 1 {
			reps[len(reps)-1].latencies = nil // the first repetition's suffice
		}
	}
	var setups []float64
	add := func(r rep) {
		for _, s := range r.setups {
			setups = append(setups, s.Seconds())
		}
	}
	for _, r := range reps {
		add(r)
	}
	for len(setups) < minSetups {
		add(w.rep(seed, repOpts{setupOnly: true}))
	}
	return reps, setups
}

// checkDigest compares the newest repetition's digest with the first.
func checkDigest(name string, reps []rep) {
	first, last := reps[0].out.digest(), reps[len(reps)-1].out.digest()
	fmt.Printf("rep %d: digest %s calls %s host %.3fs\n", len(reps), last, reps[len(reps)-1].out.callsDigest(), reps[len(reps)-1].host.Seconds())
	if first != last {
		fail("%s: repetition %d digest %s differs from repetition 1 digest %s", name, len(reps), last, first)
	}
}

// endToEnd derives the end-to-end metrics from untraced repetitions.
func endToEnd(w workloadSpec, reps []rep, setup []float64) []metric {
	var rate, allocs, speedup []float64
	for _, r := range reps {
		rate = append(rate, r.out.completed/r.host.Seconds())
		allocs = append(allocs, float64(r.allocs))
		if r.seqHost > 0 {
			speedup = append(speedup, r.seqHost.Seconds()/r.host.Seconds())
		}
	}
	o := reps[0].out
	fmt.Printf("simcalls_per_s     %s (host, %d reps)\n", summary(rate, "%.0f"), len(rate))
	fmt.Printf("setup_s            %s (host)\n", summary(setup, "%.4f"))
	if len(speedup) > 0 {
		fmt.Printf("speedup            %s (host, seq/parallel)\n", summary(speedup, "%.3f"))
	}
	fmt.Printf("sim: generated %.0f completed %.0f submit-errors %.0f dead-letters %.0f pending %d events %d\n",
		o.generated, o.completed, o.submitErrors, o.deadLetters, o.pending, o.events)
	fmt.Printf("sim: e2e samples %d, %d beyond p99; failed_frac %.6g\n", o.e2e.Count(), o.beyondP99(), o.failedFrac())
	if o.completed == 0 {
		fail("%s: no call completed", w.name)
		return nil
	}
	lat := reps[0].latencies
	if uint64(len(lat)) != o.e2e.Count() {
		fail("%s: %d exact latencies against %d in Platform.E2ELatency", w.name, len(lat), o.e2e.Count())
	}
	sort.Float64s(lat)
	return []metric{
		{"simcalls_per_s", "1/s", median(rate)},
		{"setup_s", "s", median(setup)},
		{"peak_rss_mb", "MB", peakRSSMB()},
		{"allocs_per_simcall", "count", median(allocs) / o.completed},
		{"events_per_simcall", "count", float64(o.events) / o.completed},
		{"sim_completed_frac", "fraction", o.completed / o.generated},
		{"sim_e2e_p50_s", "s", rankQuantile(lat, 0.5)},
		{"sim_e2e_p99_s", "s", rankQuantile(lat, 0.99)},
		{"sim_util_mean", "fraction", o.util},
	}
}

// rankQuantile is the q-quantile of sorted xs by the rank rule
// Platform.E2ELatency uses: the sample at index floor(q·n).
func rankQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fail("getrusage: %v", err)
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// emit prints the result line: the run's last line of output.
func emit(attempted, failed float64, metrics []metric) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(failures) == 0,
		Attempted: int64(attempted),
		Failed:    int64(failed),
		Metrics:   map[string]value{},
	}
	for _, m := range metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
