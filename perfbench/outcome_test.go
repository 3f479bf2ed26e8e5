package main

import (
	"testing"

	"xfaas/internal/stats"
)

func sampleOutcome() outcome {
	h := stats.NewHistogram()
	for _, v := range []float64{0.5, 1, 2, 30} {
		h.Observe(v)
	}
	return outcome{generated: 10, completed: 4, pending: 6, events: 99, util: 0.25, e2e: h}
}

func TestDigestIsAFunctionOfTheOutputs(t *testing.T) {
	if a, b := sampleOutcome().digest(), sampleOutcome().digest(); a != b {
		t.Fatalf("equal outcomes digest differently: %s vs %s", a, b)
	}
	base := sampleOutcome().digest()
	for name, mutate := range map[string]func(*outcome){
		"completed":   func(o *outcome) { o.completed++ },
		"deadLetters": func(o *outcome) { o.deadLetters++ },
		"pending":     func(o *outcome) { o.pending-- },
		"events":      func(o *outcome) { o.events++ },
		"util":        func(o *outcome) { o.util += 1e-12 },
		"e2e":         func(o *outcome) { o.e2e.Observe(0.5) },
	} {
		o := sampleOutcome()
		mutate(&o)
		if o.digest() == base {
			t.Errorf("changing %s left the digest unchanged", name)
		}
	}
}

func TestCheckDigestFlagsAMismatch(t *testing.T) {
	defer func(saved []string) { failures = saved }(failures)
	failures = nil
	reps := []rep{{out: sampleOutcome()}, {out: sampleOutcome()}}
	checkDigest("w", reps)
	if len(failures) != 0 {
		t.Fatalf("identical repetitions flagged: %v", failures)
	}
	reps[1].out.completed++
	checkDigest("w", reps)
	if len(failures) != 1 {
		t.Fatalf("mismatched repetitions not flagged: %v", failures)
	}
}

func TestBeyondP99(t *testing.T) {
	h := stats.NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i + 1))
	}
	if got := (outcome{e2e: h}).beyondP99(); got != 10 {
		t.Fatalf("beyondP99 = %d, want 10", got)
	}
}
