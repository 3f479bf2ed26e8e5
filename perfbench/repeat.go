package main

import (
	"fmt"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4):
// position i(n+1)/4 in the sorted sample, interpolated linearly and
// clamped to the sample. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / m
}

// summary renders a sample as "median [q1, q3] n=N".
func summary(xs []float64, format string) string {
	q1, m, q3 := quartiles(xs)
	f := func(v float64) string { return fmt.Sprintf(format, v) }
	return fmt.Sprintf("%s [%s, %s] n=%d", f(m), f(q1), f(q3), len(xs))
}

// interleaved runs repetitions of every workload round-robin until the
// budget is spent, checking each workload's digests, and prints each
// host-time metric's median and quartiles per workload, with the
// repetition count.
func interleaved(seed uint64, budget time.Duration) {
	start := time.Now()
	rate := map[string][]float64{}
	setup := map[string][]float64{}
	speedup := map[string][]float64{}
	reps := map[string][]rep{}
	for round := 1; round == 1 || time.Since(start) < budget; round++ {
		for _, w := range workloads {
			r := w.rep(seed, repOpts{})
			r.latencies = nil
			reps[w.name] = append(reps[w.name], r)
			checkDigest(w.name, reps[w.name])
			rate[w.name] = append(rate[w.name], r.out.completed/r.host.Seconds())
			for _, s := range r.setups {
				setup[w.name] = append(setup[w.name], s.Seconds())
			}
			if r.seqHost > 0 {
				speedup[w.name] = append(speedup[w.name], r.seqHost.Seconds()/r.host.Seconds())
			}
		}
		fmt.Printf("round %d done at %.1fs\n", round, time.Since(start).Seconds())
	}
	for _, w := range workloads {
		fmt.Printf("%-9s simcalls_per_s %s spread %.3f\n", w.name, summary(rate[w.name], "%.0f"), spread(rate[w.name]))
		fmt.Printf("%-9s setup_s        %s spread %.3f\n", w.name, summary(setup[w.name], "%.4f"), spread(setup[w.name]))
		if s := speedup[w.name]; len(s) > 0 {
			fmt.Printf("%-9s speedup        %s spread %.3f\n", w.name, summary(s, "%.3f"), spread(s))
		}
	}
}
