package invariant

import (
	"testing"

	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
)

var (
	primary = lifecycle.Ref(0, 0) // the worker drive dispatches to
	hedgeW  = lifecycle.Ref(0, 1)
)

// prepare puts a fresh call into a prior ledger state. Beyond the ledger
// states it knows "absent" (no entry), "hedged" (running with a live
// hedge on hedgeW) and "orphaned" (lost while leased: no entry, but a
// crash orphaned the ID).
func prepare(k *Checker, c *function.Call, prior string) {
	switch prior {
	case "absent":
	case "hedged":
		drive(k, c, "running")
		k.Observe(c, lifecycle.HedgeDispatch, hedgeW)
	case "settling":
		drive(k, c, "running")
		k.Observe(c, lifecycle.Nack, 0)
	case "orphaned":
		drive(k, c, "leased")
		k.Observe(c, lifecycle.Lost, 0)
	default:
		drive(k, c, prior)
	}
}

// TestTransitionTable drives one event per (kind, prior state) through
// Observe and checks the ledger's next state ("" when the call left the
// ledger or never entered it) and what the event was: clean (""), a
// tolerated late event ("late"), or a violation by name.
func TestTransitionTable(t *testing.T) {
	rows := []struct {
		kind  lifecycle.Kind
		prior string
		arg   int64
		next  string
		event string
	}{
		{lifecycle.Submit, "absent", 0, "submitted", ""},
		{lifecycle.Submit, "queued", 0, "submitted", "duplicate-call-id"},
		{lifecycle.MigrateIn, "absent", 0, "submitted", ""},
		{lifecycle.MigrateIn, "running", 0, "submitted", "duplicate-call-id"},
		{lifecycle.Migrated, "submitted", 3, "", ""},
		{lifecycle.Migrated, "queued", 3, "", "migrate-from-queued"},
		{lifecycle.Migrated, "absent", 3, "", "migrate-unknown"},
		{lifecycle.Dropped, "submitted", 0, "", ""},
		{lifecycle.Dropped, "leased", 0, "", "drop-from-leased"},
		{lifecycle.Dropped, "absent", 0, "", "drop-unknown"},
		{lifecycle.Enqueue, "submitted", 0, "queued", ""},
		{lifecycle.Enqueue, "queued", 0, "queued", "enqueue-from-queued"},
		{lifecycle.Enqueue, "absent", 0, "queued", "enqueue-unknown"},
		{lifecycle.Lease, "queued", 0, "leased", ""},
		{lifecycle.Lease, "running", 0, "leased", "lease-from-running"},
		{lifecycle.Lease, "absent", 0, "leased", "lease-unknown"},
		{lifecycle.Dispatch, "leased", primary, "running", ""},
		{lifecycle.Dispatch, "running", hedgeW, "running", "lease-exclusivity"},
		{lifecycle.Dispatch, "queued", primary, "running", "dispatch-from-queued"},
		{lifecycle.Dispatch, "absent", primary, "running", "dispatch-unknown"},
		{lifecycle.Dispatch, "orphaned", primary, "", "late"},
		{lifecycle.Complete, "running", primary, "completed", ""},
		{lifecycle.Complete, "completed", primary, "completed", "complete-from-completed"},
		{lifecycle.Complete, "running", hedgeW, "running", "late"},
		{lifecycle.Complete, "absent", primary, "", "late"},
		{lifecycle.HedgeDispatch, "running", hedgeW, "running", ""},
		{lifecycle.HedgeDispatch, "hedged", lifecycle.Ref(0, 2), "running", "hedge-duplicate"},
		{lifecycle.HedgeDispatch, "running", primary, "running", "hedge-same-worker"},
		{lifecycle.HedgeDispatch, "leased", hedgeW, "leased", "hedge-from-leased"},
		{lifecycle.HedgeDispatch, "absent", hedgeW, "", "hedge-unknown"},
		{lifecycle.HedgeDispatch, "orphaned", hedgeW, "", "late"},
		{lifecycle.HedgeWin, "hedged", hedgeW, "running", ""},
		{lifecycle.HedgeWin, "running", hedgeW, "running", "late"},
		{lifecycle.HedgeWin, "absent", hedgeW, "", "late"},
		{lifecycle.HedgeCancel, "hedged", hedgeW, "running", ""},
		{lifecycle.HedgeCancel, "absent", hedgeW, "", "late"},
		{lifecycle.Ack, "completed", 0, "", ""},
		{lifecycle.Ack, "submitted", 0, "", "ack-from-submitted"},
		{lifecycle.Ack, "queued", 0, "", "late"},
		{lifecycle.Ack, "running", 0, "", "late"},
		{lifecycle.Ack, "absent", 0, "", "late"},
		{lifecycle.Nack, "running", 0, "settling", ""},
		{lifecycle.Nack, "queued", 0, "settling", "nack-from-queued"},
		{lifecycle.Nack, "absent", 0, "", "late"},
		{lifecycle.LeaseExpired, "leased", 0, "settling", ""},
		{lifecycle.LeaseExpired, "settling", 0, "settling", "expire-from-settling"},
		{lifecycle.Release, "leased", 0, "queued", ""},
		{lifecycle.Release, "running", 0, "queued", "release-from-running"},
		{lifecycle.Release, "absent", 0, "", "late"},
		{lifecycle.DrainMigrated, "queued", primary, "queued", ""},
		{lifecycle.DrainMigrated, "leased", primary, "leased", "drain-migrate-from-leased"},
		{lifecycle.DrainMigrated, "absent", primary, "", "late"},
		{lifecycle.Retry, "settling", 0, "queued", ""},
		{lifecycle.Retry, "leased", 0, "queued", "retry-from-leased"},
		{lifecycle.DeadLetter, "settling", 0, "", ""},
		{lifecycle.DeadLetter, "running", 0, "", "deadletter-from-running"},
		{lifecycle.BudgetExhausted, "settling", 0, "", ""},
		{lifecycle.BudgetExhausted, "queued", 0, "", "budget-deadletter-from-queued"},
		{lifecycle.BudgetExhausted, "absent", 0, "", "late"},
		{lifecycle.Expired, "queued", 0, "", ""},
		{lifecycle.Expired, "leased", 0, "", ""},
		{lifecycle.Expired, "settling", 0, "", ""},
		{lifecycle.Expired, "running", 0, "", "expire-sweep-from-running"},
		{lifecycle.Expired, "absent", 0, "", "late"},
		{lifecycle.Shed, "leased", 0, "", ""},
		{lifecycle.Shed, "queued", 0, "", "shed-from-queued"},
		{lifecycle.Shed, "absent", 0, "", "shed-after-terminal"},
		{lifecycle.Shed, "orphaned", 0, "", "late"},
		{lifecycle.Lost, "submitted", 0, "", ""},
		{lifecycle.Lost, "running", 0, "", ""},
		{lifecycle.Lost, "absent", 0, "", "lost-settled"},
		{lifecycle.Recovered, "queued", 0, "queued", ""},
		{lifecycle.Recovered, "running", 0, "queued", ""},
		{lifecycle.Recovered, "absent", 0, "queued", "late"},
		{lifecycle.ExecEnd, "running", 0, "running", ""}, // trace-only: no rule
	}
	for _, r := range rows {
		t.Run(r.kind.String()+"/"+r.prior, func(t *testing.T) {
			_, k := newTestChecker(t)
			c := call(1, "f", 0)
			prepare(k, c, r.prior)
			if n := k.TotalViolations(); n != 0 {
				t.Fatalf("setup violated: %v", k.Violations())
			}
			late := k.LateEvents()
			if r.kind == lifecycle.Lease {
				c.Attempt++
			}
			k.Observe(c, r.kind, r.arg)

			next := ""
			if e, ok := k.ledger[c.ID]; ok {
				next = stateName(e.state)
			}
			if next != r.next {
				t.Errorf("next state %q, want %q", next, r.next)
			}
			event := ""
			switch vs := k.Violations(); {
			case len(vs) > 0:
				event = vs[0].Name
			case k.LateEvents() > late:
				event = "late"
			}
			if event != r.event {
				t.Errorf("event %q, want %q (violations %v)", event, r.event, k.Violations())
			}
		})
	}
}

// TestTransitionTableRefs checks the execution refs the hedge and settle
// rules move, which the next state alone does not show.
func TestTransitionTableRefs(t *testing.T) {
	_, k := newTestChecker(t)
	c := call(1, "f", 0)
	prepare(k, c, "hedged")
	if e := k.ledger[c.ID]; e.hedge != workerRef(hedgeW) || e.worker != workerRef(primary) {
		t.Fatalf("hedge dispatch refs: worker %x hedge %x", e.worker, e.hedge)
	}
	k.Observe(c, lifecycle.HedgeWin, hedgeW)
	if e := k.ledger[c.ID]; e.hedge != 0 || e.worker != workerRef(hedgeW) {
		t.Fatalf("hedge win refs: worker %x hedge %x", e.worker, e.hedge)
	}
	// The winner's completion is the current execution's; the cancelled
	// primary's is a late event.
	k.Observe(c, lifecycle.Complete, primary)
	k.Observe(c, lifecycle.Complete, hedgeW)
	if e := k.ledger[c.ID]; e.state != stCompleted || k.LateEvents() != 1 {
		t.Fatalf("after completions: state %s late %d", stateName(e.state), k.LateEvents())
	}
	k.Observe(c, lifecycle.Nack, 0)
	if e := k.ledger[c.ID]; e.worker != 0 || e.hedge != 0 {
		t.Fatalf("settle kept refs: worker %x hedge %x", e.worker, e.hedge)
	}
	wantClean(t, k)
}

// TestTransitionTableBooks checks the conservation counter each clean
// terminal or source books; the dead-letter dispositions also book
// DeadLettered.
func TestTransitionTableBooks(t *testing.T) {
	rows := []struct {
		kind  lifecycle.Kind
		prior string
		got   func(Tally) uint64
		dead  bool
	}{
		{lifecycle.Ack, "completed", func(t Tally) uint64 { return t.Acked }, false},
		{lifecycle.Dropped, "submitted", func(t Tally) uint64 { return t.Dropped }, false},
		{lifecycle.Migrated, "submitted", func(t Tally) uint64 { return t.MigratedOut }, false},
		{lifecycle.Lost, "running", func(t Tally) uint64 { return t.Lost }, false},
		{lifecycle.DeadLetter, "settling", func(t Tally) uint64 { return t.Exhausted }, true},
		{lifecycle.BudgetExhausted, "settling", func(t Tally) uint64 { return t.BudgetDenied }, true},
		{lifecycle.Expired, "queued", func(t Tally) uint64 { return t.Expired }, true},
		{lifecycle.Shed, "leased", func(t Tally) uint64 { return t.Shed }, true},
		{lifecycle.Recovered, "absent", func(t Tally) uint64 { return t.Resurrected }, false},
		{lifecycle.MigrateIn, "absent", func(t Tally) uint64 { return t.MigratedIn }, false},
	}
	for _, r := range rows {
		t.Run(r.kind.String(), func(t *testing.T) {
			_, k := newTestChecker(t)
			c := call(1, "f", 1)
			prepare(k, c, r.prior)
			k.Observe(c, r.kind, 0)
			tot := k.Totals()
			if r.got(tot) != 1 {
				t.Fatalf("counter not booked: %+v", tot)
			}
			if dead := tot.DeadLettered == 1; dead != r.dead {
				t.Fatalf("DeadLettered = %d, want dead-letter %v", tot.DeadLettered, r.dead)
			}
			if tot.Gap() != 0 {
				t.Fatalf("conservation gap %d: %+v", tot.Gap(), tot)
			}
			k.EachRegion(func(region int, rt Tally) {
				if region == 1 && r.got(rt) != 1 {
					t.Fatalf("region 1 not booked: %+v", rt)
				}
			})
		})
	}
}
