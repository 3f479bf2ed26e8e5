// Package lifecycle is the platform's one call-lifecycle event stream.
// Every state transition of a call — submit, route, DurableQ
// enqueue/lease, scheduler admission and dispatch, execution, ack,
// nack/retry, dead-letter, crash loss and replay — is one Kind, emitted
// once at its call site through a Stream. The stream fans each event out
// to its two subscribers: the trace recorder (internal/trace), which keeps
// span timelines for sampled calls, and the invariant ledger
// (internal/invariant), which checks every call's transitions against its
// rule table. Control-plane events (chaos injections, breaker and health
// flips, drains) go through the same stream.
//
// Adding a transition means adding a Kind here, emitting it at its call
// site, and giving it a ledger rule and, if it needs one, a span mapping.
//
// The stream costs nothing when both subscribers are off: Emit is a nil
// check and a flag check, with no interface dispatch and no allocation
// (the submit path's 1 alloc/op bench gate pins this).
package lifecycle

import (
	"xfaas/internal/cluster"
	"xfaas/internal/function"
)

// Kind labels one transition in a call's lifecycle. Arg's meaning is
// per-Kind.
type Kind uint8

const (
	// Submit: accepted by a submitter (ID assigned, batch-buffered).
	Submit Kind = iota
	// Route: QueueLB chose a destination region (arg: region).
	Route
	// Enqueue: persisted into a DurableQ shard (arg: shard ref).
	Enqueue
	// Lease: offered to a scheduler (arg: attempt number).
	Lease
	// LeaseExpired: lease timed out without ACK/NACK.
	LeaseExpired
	// Scheduled: moved FuncBuffer → RunQ past all admission gates.
	Scheduled
	// QuotaDenied: blocked by the central rate limiter this tick.
	QuotaDenied
	// CongestionDenied: blocked by AIMD/slow-start/concurrency.
	CongestionDenied
	// IsolationDenied: argument-flow check rejected the call.
	IsolationDenied
	// Dispatch: sent to a worker (arg: worker ref).
	Dispatch
	// ExecStart: execution began on a worker.
	ExecStart
	// ExecEnd: execution finished (arg: 0 ok, 1 error).
	ExecEnd
	// DownstreamRetry: downstream sub-call needed retries (arg: extra
	// attempts used).
	DownstreamRetry
	// Backpressure: completion carried a back-pressure exception.
	Backpressure
	// SLOMiss: completed after its deadline.
	SLOMiss
	// Evacuated: scheduler handed the call back (breaker open, detected
	// outage, or detected worker death).
	Evacuated
	// Nack: failed execution reported to the DurableQ.
	Nack
	// Retry: requeued for redelivery (arg: backoff nanoseconds).
	Retry
	// Ack: terminal success — removed from the DurableQ.
	Ack
	// DeadLetter: terminal failure — retries exhausted (arg: attempts).
	DeadLetter
	// Dropped: terminal — never persisted anywhere (total DurableQ
	// outage at submission).
	Dropped
	// Lost: terminal — destroyed by a component crash before settling (a
	// journal's torn tail, a submitter's unflushed batch).
	Lost
	// Recovered: requeued by journal replay after a shard crash (arg: the
	// journal op the call was recovered from).
	Recovered
	// Expired: terminal — swept to dead-letter past its deadline
	// (arg: attempts).
	Expired
	// Shed: terminal — dead-lettered by queue-delay shedding (arg: queue
	// delay in nanoseconds).
	Shed
	// BudgetExhausted: terminal — the function's retry budget was empty
	// at redelivery time (arg: attempts).
	BudgetExhausted
	// Migrated: handed to another partition over the parallel-simulation
	// fabric (arg: destination partition). Terminal for this partition's
	// ledger; the trace continues on the destination (see
	// trace.Recorder.Extract).
	Migrated
	// HedgeDispatch: a speculative copy was dispatched to a second worker
	// because the primary outran the function's hedge delay (arg: hedge
	// worker ref).
	HedgeDispatch
	// HedgeWin: the speculative copy finished first; the primary was
	// cancelled (arg: winning worker ref).
	HedgeWin
	// HedgeCancel: the primary finished first; the speculative copy was
	// cancelled (arg: cancelled worker ref).
	HedgeCancel

	// The kinds below refine a transition for the ledger; a trace records
	// them under an existing span kind or not at all.

	// Complete: the scheduler received a worker's completion (arg: worker
	// ref). Not traced: the worker's ExecEnd is the span.
	Complete
	// Release: a draining scheduler handed its lease back; the call is
	// plain queued work again. Traced as a zero-backoff Retry.
	Release
	// DrainMigrated: a regional drain moved a queued call to a peer
	// shard (arg: destination shard ref). Traced as Migrated.
	DrainMigrated
	// MigrateIn: a call arrived from another partition. Not traced: the
	// destination recorder adopts the source's open trace instead.
	MigrateIn

	// NumKinds is the number of kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"submit", "route", "enqueue", "lease", "lease-expired", "scheduled",
	"quota-denied", "congestion-denied", "isolation-denied", "dispatch",
	"exec-start", "exec-end", "downstream-retry", "backpressure",
	"slo-miss", "evacuated", "nack", "retry", "ack", "dead-letter",
	"dropped", "lost", "recovered", "expired", "shed", "budget-exhausted",
	"migrated", "hedge-dispatch", "hedge-win", "hedge-cancel",
	"complete", "release", "drain-migrated", "migrate-in",
}

func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// Terminal reports whether the kind ends the call: no event follows it
// in any partition. (Migrated ends only the source partition's part.)
func (k Kind) Terminal() bool {
	return k == Ack || k == DeadLetter || k == Dropped || k == Lost ||
		k == Expired || k == Shed || k == BudgetExhausted
}

// Ref packs a (region, index) component identity into an event arg.
func Ref(region cluster.RegionID, index int) int64 {
	return int64(region)<<32 | int64(uint32(index))
}

// SplitRef unpacks a Ref arg.
func SplitRef(arg int64) (region cluster.RegionID, index int) {
	return cluster.RegionID(arg >> 32), int(uint32(arg))
}

// Tracer is the trace recorder's side of the stream. It sees every event
// of a sampled call, and every Submit while tracing is on (where it makes
// the sampling decision).
type Tracer interface {
	Enabled() bool
	Observe(c *function.Call, k Kind, arg int64)
	Control(kind, detail string)
}

// Ledger is the invariant checker's side of the stream. It sees every
// event of every call.
type Ledger interface {
	Observe(c *function.Call, k Kind, arg int64)
	Note(kind, detail string)
}

// Stream fans lifecycle and control events out to its subscribers. All
// methods are safe on a nil receiver (no-ops), so components hold a plain
// field and never branch on configuration.
type Stream struct {
	tracer  Tracer
	tracing bool
	ledger  Ledger
}

// NewStream returns a stream over a recorder and a ledger; either may be
// nil. Pass a nil interface, not a typed nil pointer, for an absent
// subscriber — that is what keeps the disabled path free of dispatch.
func NewStream(tracer Tracer, ledger Ledger) *Stream {
	return &Stream{tracer: tracer, tracing: tracer != nil && tracer.Enabled(), ledger: ledger}
}

// Emit publishes one lifecycle transition of call c.
func (s *Stream) Emit(c *function.Call, k Kind, arg int64) {
	if s == nil {
		return
	}
	if s.tracer != nil && (c.Sampled || (k == Submit && s.tracing)) {
		s.tracer.Observe(c, k, arg)
	}
	if s.ledger != nil {
		s.ledger.Observe(c, k, arg)
	}
}

// Control records a control-plane state transition (a breaker or health
// flip, an AIMD backoff, a shed change) in the trace's control log.
func (s *Stream) Control(kind, detail string) {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.Control(kind, detail)
}

// Note records a control event that also becomes the ledger's ambient
// context: violations that follow it carry it (a chaos injection, a
// drain).
func (s *Stream) Note(kind, detail string) {
	if s == nil {
		return
	}
	s.Control(kind, detail)
	if s.ledger != nil {
		s.ledger.Note(kind, detail)
	}
}
