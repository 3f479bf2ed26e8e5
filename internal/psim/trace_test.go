package psim

import (
	"testing"

	"xfaas/internal/lifecycle"
)

// TestMigratedTraceStitching is the regression gate for cross-partition
// trace stitching. Before stitching, a migrated call's trace was
// finalized at the migration instant on the source partition (Outcome ==
// migrated, no enqueue events), so no completed trace ever carried both a
// migrate span and the call's real outcome — and the breakdown identity
// submit + migrate + deferred + queue + retry + sched + exec == e2e was
// unverifiable for exactly the calls that crossed the fabric. Now the
// trace follows the call: the source extracts it, the destination adopts
// it, and one span tree spans both partitions.
func TestMigratedTraceStitching(t *testing.T) {
	opts := testOptions()
	opts.Traced = true
	opts.CrossFrac = 0.5
	opts.Minutes = 4
	r := New(opts)
	r.Run()

	var migrated, acked int
	for _, part := range r.Parts {
		for _, ct := range part.Platform.Tracer.Recent() {
			if !ct.Done {
				continue
			}
			hasMig := false
			for _, e := range ct.Events {
				if e.Kind == lifecycle.Migrated {
					hasMig = true
					break
				}
			}
			if !hasMig {
				continue
			}
			migrated++
			// A stitched trace must not be finalized by the migration event
			// itself: its outcome is the call's real disposition.
			if ct.Outcome == lifecycle.Migrated {
				t.Errorf("call %d finalized at migration (unstitched trace)", ct.ID)
				continue
			}
			if ct.Outcome == lifecycle.Ack {
				acked++
			}
			c, ok := ct.Breakdown()
			if !ok {
				t.Errorf("call %d: migrated trace has no breakdown", ct.ID)
				continue
			}
			// The telescoping identity must close exactly — sim.Time is
			// integer nanoseconds, so there is no tolerance to grant.
			if c.Sum() != ct.Latency() {
				t.Errorf("call %d: breakdown sum %v != e2e %v (submit=%v migrate=%v deferred=%v queue=%v retry=%v sched=%v exec=%v)",
					ct.ID, c.Sum(), ct.Latency(), c.Submit, c.Migrate, c.Deferred, c.Queue, c.Retry, c.Sched, c.Exec)
			}
			// Fabric transit takes real simulated time, and it must be
			// charged to the migrate phase, not smeared into submit or queue.
			if ct.Outcome == lifecycle.Ack && c.Migrate <= 0 {
				t.Errorf("call %d: acked migrated trace has migrate=%v, want > 0", ct.ID, c.Migrate)
			}
		}
	}
	if migrated == 0 {
		t.Fatal("no completed migrated traces sampled despite CrossFrac=0.5")
	}
	if acked == 0 {
		t.Fatal("no migrated trace completed with an ack — stitching is not carrying traces across the fabric")
	}
}
