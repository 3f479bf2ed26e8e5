package invariant

import (
	"strings"
	"testing"
	"time"

	"xfaas/internal/cluster"
	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/sim"
)

func newTestChecker(t *testing.T) (*sim.Engine, *Checker) {
	t.Helper()
	engine := sim.NewEngine()
	k := NewChecker(engine, Params{Enabled: true, Interval: 0, MaxViolations: 64}, 3)
	if k == nil {
		t.Fatal("enabled checker is nil")
	}
	return engine, k
}

func call(id uint64, name string, region int) *function.Call {
	return &function.Call{
		ID:           id,
		Spec:         &function.Spec{Name: name},
		SourceRegion: cluster.RegionID(region),
	}
}

// drive walks one call through the happy path up to the given stage.
func drive(k *Checker, c *function.Call, stage string) {
	k.Observe(c, lifecycle.Submit, 0)
	if stage == "submitted" {
		return
	}
	k.Observe(c, lifecycle.Enqueue, 0)
	if stage == "queued" {
		return
	}
	c.Attempt++
	k.Observe(c, lifecycle.Lease, 0)
	if stage == "leased" {
		return
	}
	k.Observe(c, lifecycle.Dispatch, lifecycle.Ref(0, 0))
	if stage == "running" {
		return
	}
	k.Observe(c, lifecycle.Complete, lifecycle.Ref(0, 0))
	if stage == "completed" {
		return
	}
	k.Observe(c, lifecycle.Ack, 0)
}

func wantViolation(t *testing.T, k *Checker, name string) {
	t.Helper()
	for _, v := range k.Violations() {
		if v.Name == name {
			return
		}
	}
	t.Fatalf("no %q violation; got %v", name, k.Violations())
}

func wantClean(t *testing.T, k *Checker) {
	t.Helper()
	if n := k.TotalViolations(); n != 0 {
		t.Fatalf("%d violations on a legal history: %v", n, k.Violations())
	}
}

func TestNilCheckerIsSafe(t *testing.T) {
	var k *Checker
	c := call(1, "f", 0)
	k.Observe(c, lifecycle.Submit, 0)
	k.Observe(c, lifecycle.Enqueue, 0)
	k.Observe(c, lifecycle.Lease, 0)
	k.Observe(c, lifecycle.Dispatch, lifecycle.Ref(0, 0))
	k.Observe(c, lifecycle.Complete, lifecycle.Ref(0, 0))
	k.Observe(c, lifecycle.Ack, 0)
	k.Observe(c, lifecycle.Nack, 0)
	k.Observe(c, lifecycle.LeaseExpired, 0)
	k.Observe(c, lifecycle.Retry, 0)
	k.Observe(c, lifecycle.DeadLetter, 0)
	k.Observe(c, lifecycle.Dropped, 0)
	k.Note("x", "y")
	k.RegisterProbe("p", func(sim.Time) []string { return []string{"boom"} })
	if k.Enabled() || k.Final() != nil || k.Violations() != nil ||
		k.TotalViolations() != 0 || k.LateEvents() != 0 || k.Evals() != 0 {
		t.Fatal("nil checker leaked state")
	}
	if (k.Totals() != Tally{}) {
		t.Fatal("nil checker has totals")
	}
	k.EachFunc(func(string, Tally) { t.Fatal("nil checker visited a func") })
	k.EachRegion(func(int, Tally) { t.Fatal("nil checker visited a region") })
}

func TestDisabledParamsReturnNil(t *testing.T) {
	if k := NewChecker(sim.NewEngine(), Params{}, 1); k != nil {
		t.Fatal("disabled params produced a live checker")
	}
}

func TestHappyPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	drive(k, call(1, "f", 0), "acked")
	wantClean(t, k)
	tot := k.Totals()
	if tot.Submitted != 1 || tot.Acked != 1 || tot.InFlight != 0 || tot.Gap() != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestRetryPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 1)
	drive(k, c, "running")
	k.Observe(c, lifecycle.Nack, 0)
	k.Observe(c, lifecycle.Retry, 0)
	c.Attempt++
	k.Observe(c, lifecycle.Lease, 0)
	k.Observe(c, lifecycle.Dispatch, lifecycle.Ref(1, 2))
	k.Observe(c, lifecycle.Complete, lifecycle.Ref(1, 2))
	k.Observe(c, lifecycle.Ack, 0)
	wantClean(t, k)
}

func TestDeadLetterPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 2)
	drive(k, c, "running")
	k.Observe(c, lifecycle.LeaseExpired, 0)
	k.Observe(c, lifecycle.DeadLetter, 0)
	wantClean(t, k)
	tot := k.Totals()
	if tot.DeadLettered != 1 || tot.Gap() != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestDropPathIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	k.Observe(c, lifecycle.Submit, 0)
	k.Observe(c, lifecycle.Dropped, 0)
	wantClean(t, k)
	if tot := k.Totals(); tot.Dropped != 1 || tot.Gap() != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestDuplicateIDViolates(t *testing.T) {
	_, k := newTestChecker(t)
	k.Observe(call(7, "f", 0), lifecycle.Submit, 0)
	k.Observe(call(7, "g", 0), lifecycle.Submit, 0)
	wantViolation(t, k, "duplicate-call-id")
}

func TestLeaseExclusivityViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running")
	k.Observe(c, lifecycle.Dispatch, lifecycle.Ref(0, 1)) // second dispatch with no settle in between
	wantViolation(t, k, "lease-exclusivity")
}

func TestAttemptMonotonicityViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running")
	k.Observe(c, lifecycle.Nack, 0)
	k.Observe(c, lifecycle.Retry, 0)
	k.Observe(c, lifecycle.Lease, 0) // same attempt number again
	wantViolation(t, k, "attempt-not-monotone")
}

func TestDropAfterPersistenceViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "queued")
	k.Observe(c, lifecycle.Dropped, 0)
	wantViolation(t, k, "drop-from-queued")
}

func TestDoubleCompleteSameWorkerViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "completed")
	k.Observe(c, lifecycle.Complete, lifecycle.Ref(0, 0)) // the same execution completing twice
	wantViolation(t, k, "complete-from-completed")
}

func TestStaleCompletionTolerated(t *testing.T) {
	// At-least-once overlap: the lease expires mid-execution, the call is
	// redelivered and dispatched to another worker, then the superseded
	// execution completes. No violation — but counted.
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running") // running on w-0-0
	k.Observe(c, lifecycle.LeaseExpired, 0)
	k.Observe(c, lifecycle.Retry, 0)
	c.Attempt++
	k.Observe(c, lifecycle.Lease, 0)
	k.Observe(c, lifecycle.Dispatch, lifecycle.Ref(0, 5)) // redelivered to w-0-5
	k.Observe(c, lifecycle.Complete, lifecycle.Ref(0, 0)) // stale completion from w-0-0
	k.Observe(c, lifecycle.Complete, lifecycle.Ref(0, 5)) // real completion
	k.Observe(c, lifecycle.Ack, 0)
	wantClean(t, k)
	if k.LateEvents() != 1 {
		t.Fatalf("late events = %d, want 1", k.LateEvents())
	}
}

func TestPostTerminalEventsTolerated(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "acked")
	k.Observe(c, lifecycle.Complete, lifecycle.Ref(0, 0))
	k.Observe(c, lifecycle.Ack, 0)
	k.Observe(c, lifecycle.Nack, 0)
	wantClean(t, k)
	if k.LateEvents() != 3 {
		t.Fatalf("late events = %d, want 3", k.LateEvents())
	}
}

func TestEarlyAckTolerated(t *testing.T) {
	// The shard's ack is authoritative: a superseded execution's ack can
	// settle the call while a redelivered attempt is still leased.
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	drive(k, c, "running")
	k.Observe(c, lifecycle.LeaseExpired, 0)
	k.Observe(c, lifecycle.Retry, 0)
	c.Attempt++
	k.Observe(c, lifecycle.Lease, 0)
	k.Observe(c, lifecycle.Ack, 0) // stale scheduler acks the redelivered lease
	wantClean(t, k)
	if tot := k.Totals(); tot.Acked != 1 || tot.InFlight != 0 {
		t.Fatalf("bad totals %+v", tot)
	}
}

func TestLocalityCheckRuns(t *testing.T) {
	_, k := newTestChecker(t)
	k.LocalityCheck = func(c *function.Call, region, worker int) string {
		if worker == 9 {
			return "w-9 outside group"
		}
		return ""
	}
	c := call(1, "f", 0)
	drive(k, c, "leased")
	k.Observe(c, lifecycle.Dispatch, lifecycle.Ref(0, 9))
	wantViolation(t, k, "locality")
}

func TestProbesRunOnIntervalAndFinal(t *testing.T) {
	engine := sim.NewEngine()
	k := NewChecker(engine, Params{Enabled: true, Interval: time.Minute}, 1)
	fired := 0
	k.RegisterProbe("always", func(now sim.Time) []string {
		fired++
		return []string{"tick"}
	})
	engine.RunFor(3 * time.Minute)
	if fired != 3 {
		t.Fatalf("probe fired %d times in 3 minutes, want 3", fired)
	}
	vs := k.Final()
	if fired != 4 {
		t.Fatalf("Final did not evaluate (fired=%d)", fired)
	}
	if len(vs) != 4 {
		t.Fatalf("got %d violations, want 4", len(vs))
	}
	for _, v := range vs {
		if v.Name != "always" || v.Detail != "tick" {
			t.Fatalf("bad violation %+v", v)
		}
	}
}

func TestMaxViolationsBounds(t *testing.T) {
	engine := sim.NewEngine()
	k := NewChecker(engine, Params{Enabled: true, MaxViolations: 3}, 1)
	for i := uint64(1); i <= 10; i++ {
		k.Observe(call(5, "f", 0), lifecycle.Submit, 0) // duplicate IDs after the first
	}
	if got := len(k.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want 3", got)
	}
	if got := k.TotalViolations(); got != 9 {
		t.Fatalf("total %d violations, want 9", got)
	}
}

func TestNoteAttachesContext(t *testing.T) {
	_, k := newTestChecker(t)
	k.Note("chaos.crash", "worker w-0-3")
	k.Observe(call(1, "f", 0), lifecycle.Submit, 0)
	k.Observe(call(1, "f", 0), lifecycle.Submit, 0)
	vs := k.Violations()
	if len(vs) != 1 || !strings.Contains(vs[0].Context, "chaos.crash") {
		t.Fatalf("context not attached: %+v", vs)
	}
	if !strings.Contains(vs[0].String(), "during chaos.crash") {
		t.Fatalf("String() omits context: %s", vs[0])
	}
}

func TestPerFuncAndPerRegionTallies(t *testing.T) {
	_, k := newTestChecker(t)
	drive(k, call(1, "a", 0), "acked")
	drive(k, call(2, "a", 1), "running")
	drive(k, call(3, "b", 2), "acked")
	funcs := map[string]Tally{}
	k.EachFunc(func(name string, t Tally) { funcs[name] = t })
	if funcs["a"].Submitted != 2 || funcs["a"].Acked != 1 || funcs["a"].InFlight != 1 {
		t.Fatalf("func a tally %+v", funcs["a"])
	}
	if funcs["b"].Acked != 1 || funcs["b"].Gap() != 0 {
		t.Fatalf("func b tally %+v", funcs["b"])
	}
	regions := map[int]Tally{}
	k.EachRegion(func(r int, t Tally) { regions[r] = t })
	if regions[0].Acked != 1 || regions[1].InFlight != 1 || regions[2].Acked != 1 {
		t.Fatalf("region tallies %+v", regions)
	}
}

func TestViolationStringFormat(t *testing.T) {
	v := Violation{At: 90 * time.Second, Name: "lease-exclusivity", CallID: 42, Detail: "d"}
	s := v.String()
	for _, want := range []string{"lease-exclusivity", "call=42", "d"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing %q", s, want)
		}
	}
}

func TestMigrateOutFromSubmittedIsClean(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	k.Observe(c, lifecycle.Submit, 0)
	k.Observe(c, lifecycle.Migrated, 0)
	wantClean(t, k)
	tt := k.Totals()
	if tt.MigratedOut != 1 || tt.InFlight != 0 {
		t.Fatalf("totals after migrate-out: %+v", tt)
	}
	if tt.Gap() != 0 {
		t.Fatalf("gap %+d after clean migrate-out", tt.Gap())
	}
}

func TestMigrateInEntersLikeSubmission(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(7, "f", 1)
	k.Observe(c, lifecycle.MigrateIn, 0)
	drive2 := func() {
		k.Observe(c, lifecycle.Enqueue, 0)
		c.Attempt++
		k.Observe(c, lifecycle.Lease, 0)
		k.Observe(c, lifecycle.Dispatch, lifecycle.Ref(0, 0))
		k.Observe(c, lifecycle.Complete, lifecycle.Ref(0, 0))
		k.Observe(c, lifecycle.Ack, 0)
	}
	drive2()
	wantClean(t, k)
	tt := k.Totals()
	if tt.MigratedIn != 1 || tt.Acked != 1 || tt.Submitted != 0 {
		t.Fatalf("totals after migrate-in lifecycle: %+v", tt)
	}
	if tt.Gap() != 0 {
		t.Fatalf("gap %+d after migrated call settled", tt.Gap())
	}
}

func TestMigrateOutAfterPersistenceViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(2, "f", 0)
	drive(k, c, "queued")
	k.Observe(c, lifecycle.Migrated, 0)
	wantViolation(t, k, "migrate-from-queued")
}

func TestMigrateOutUnknownViolates(t *testing.T) {
	_, k := newTestChecker(t)
	k.Observe(call(3, "f", 0), lifecycle.Migrated, 0)
	wantViolation(t, k, "migrate-unknown")
}

func TestMigrateInDuplicateViolates(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(4, "f", 0)
	k.Observe(c, lifecycle.Submit, 0)
	k.Observe(c, lifecycle.MigrateIn, 0)
	wantViolation(t, k, "duplicate-call-id")
}

func TestMigrateNilCheckerIsSafe(t *testing.T) {
	var k *Checker
	c := call(5, "f", 0)
	k.Observe(c, lifecycle.Migrated, 0)
	k.Observe(c, lifecycle.MigrateIn, 0)
	if k.Totals() != (Tally{}) {
		t.Fatal("nil checker has totals")
	}
}

func TestMigratedInCanBeDropped(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(6, "f", 0)
	k.Observe(c, lifecycle.MigrateIn, 0)
	k.Observe(c, lifecycle.Dropped, 0)
	wantClean(t, k)
	tt := k.Totals()
	if tt.MigratedIn != 1 || tt.Dropped != 1 || tt.Gap() != 0 {
		t.Fatalf("totals after migrate-in drop: %+v (gap %+d)", tt, tt.Gap())
	}
}
