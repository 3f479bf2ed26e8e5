// Package invariant continuously checks the platform's correctness
// claims while a simulation runs: call conservation (every submitted
// call is eventually acked, dead-lettered, dropped, or still in flight —
// per function, per region, and in total), lease exclusivity (no call
// dispatched to two workers under one lease, including across chaos
// evacuations), attempt monotonicity, quota ceilings, AIMD bounds and
// slow-start caps, locality containment, and worker accounting closure.
//
// The checker subscribes to the lifecycle stream (internal/lifecycle):
// components emit each call transition once, and Observe applies it to a
// small state machine (the ledger) driven by a per-kind rule table. When
// the checker is disabled it is nil, the stream never calls it, and the
// submit path stays at its single allocation (the strict bench gate).
//
// Structural checks that need a platform-wide view (conservation closure
// against component counters, quota/AIMD/utilization probes) are
// registered by internal/core as named probes and run at simulated-time
// intervals and once at run end. A violation carries the offending call's ID — the
// same ID the tracer samples by — so xfaas-inspect can print the call's
// critical path next to the violation.
package invariant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xfaas/internal/function"
	"xfaas/internal/lifecycle"
	"xfaas/internal/sim"
)

// Params configure the checker.
type Params struct {
	// Enabled turns invariant checking on. Off by default: the hooks are
	// nil-receiver no-ops and cost nothing.
	Enabled bool
	// Interval is how often the registered probes run (0 = only at run
	// end via Final).
	Interval time.Duration
	// MaxViolations bounds the retained violation records; the total
	// count keeps incrementing past it.
	MaxViolations int
}

// DefaultParams checks every simulated minute and keeps 64 violations.
func DefaultParams() Params {
	return Params{Interval: time.Minute, MaxViolations: 64}
}

// Violation is one observed invariant breach.
type Violation struct {
	At   sim.Time
	Name string
	// CallID is the offending call (0 for structural probe violations).
	CallID uint64
	Detail string
	// Context is the most recent Note at the time of the breach —
	// typically the last chaos event, so violations read with their
	// fault environment attached.
	Context string
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s", v.At, v.Name)
	if v.CallID != 0 {
		s += fmt.Sprintf(" call=%d", v.CallID)
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	if v.Context != "" {
		s += " (during " + v.Context + ")"
	}
	return s
}

// Ledger states of one call. The legal transitions are the platform's
// at-least-once lifecycle: submitted → queued → leased → running →
// completed → acked, with nack/expiry detours through settling back to
// queued (retry) or out to dead-letter, and drop as a terminal straight
// from submitted (routing failure before persistence). State zero means
// "unchanged" as a rule's next state.
const (
	stSubmitted uint8 = iota + 1
	stQueued
	stLeased
	stRunning
	stCompleted
	stSettling
)

var stateNames = [...]string{"?", "submitted", "queued", "leased", "running", "completed", "settling"}

func stateName(s uint8) string { return stateNames[s] }

// states is a set of ledger states.
type states uint8

func in(ss ...uint8) states {
	var m states
	for _, s := range ss {
		m |= 1 << s
	}
	return m
}

func (m states) has(s uint8) bool { return m&(1<<s) != 0 }

var (
	anyState = in(stSubmitted, stQueued, stLeased, stRunning, stCompleted, stSettling)
	// live holds the states in which a scheduler or worker may hold a copy
	// of the call that outlives its durable record.
	live = in(stLeased, stRunning, stCompleted, stSettling)
)

// centry is the ledger record of one in-flight call. Entries are deleted
// at terminal states, so the ledger's size tracks the in-flight count,
// not the run length.
type centry struct {
	state   uint8
	region  int32 // submission region
	attempt int32
	worker  int64 // packed worker ref while running
	// hedge is the packed ref of a live speculative (hedged) copy's
	// worker, zero when none. A hedge never creates a second ledger
	// entry — the clone shares the call ID — so conservation closes with
	// no new terms; this field only tracks which extra worker may
	// legally produce the winning completion.
	hedge int64
	fn    string
}

// workerRef is a lifecycle worker-ref arg biased by one region, so that
// worker (0,0) never collides with the zero value centry.worker uses as
// its "no execution" sentinel.
func workerRef(arg int64) int64 { return arg + 1<<32 }

func refString(ref int64) string {
	return fmt.Sprintf("w-%d-%d", ref>>32-1, int32(ref))
}

// Tally is a conservation snapshot: terminal outcomes plus the current
// in-flight count. Submitted + Resurrected == Acked + DeadLettered +
// Dropped + Lost + InFlight at every event boundary. Lost counts calls
// destroyed by component crashes before settling (a journal's torn
// tail, a submitter's unflushed batch); Resurrected counts settled
// calls a journal replay legally re-delivered because their terminal
// record was torn off (at-least-once overlap — the ack still stood).
type Tally struct {
	Submitted    uint64
	Acked        uint64
	DeadLettered uint64
	Dropped      uint64
	Lost         uint64
	Resurrected  uint64
	InFlight     int
	// Dead-letter dispositions: Exhausted + Expired + BudgetDenied + Shed
	// == DeadLettered. They refine the terminal, so Gap() is unchanged.
	Exhausted    uint64
	Expired      uint64
	BudgetDenied uint64
	Shed         uint64
	// MigratedOut/MigratedIn book cross-partition fabric handoffs in a
	// partitioned run: a call leaving this platform instance is a
	// terminal here (MigratedOut) and a source on the destination
	// (MigratedIn), so each partition's ledger closes independently while
	// the fabric's Σout ≥ Σin closure holds globally.
	MigratedOut uint64
	MigratedIn  uint64
}

// counter indexes a conservation count. Sources put a call on the
// books, terminals take it off; each dead-letter disposition (Exhausted
// and after) also books cDead.
type counter uint8

const (
	cNone counter = iota
	cSubmitted
	cMigratedIn
	cResurrected
	cAcked
	cDropped
	cLost
	cMigratedOut
	cDead
	cExhausted
	cExpired
	cBudgetDenied
	cShed
	numCounters
)

func (c counter) terminal() bool { return c >= cAcked }

type counts [numCounters]uint64

type probe struct {
	name string
	fn   func(now sim.Time) []string
}

// Checker is the invariant engine. All methods are safe on a nil
// receiver (they no-op), so components hold plain fields and call hooks
// unconditionally. A mutex guards all state: HTTP handlers snapshot
// violations while the paced engine advances, same as trace.Recorder.
type Checker struct {
	engine *sim.Engine
	params Params

	// LocalityCheck, when set (by core), validates a dispatch against the
	// function's locality group at dispatch time; it returns "" when the
	// placement is legal. It runs under the checker's lock and must not
	// call back into the checker.
	LocalityCheck func(c *function.Call, region, worker int) string

	// ExpiryDispatchCheck, when set (by core, iff expiry sweeping is on),
	// makes dispatching a call past its deadline a violation: the sweeps
	// promise expired calls never reach a worker. Off by default because
	// without sweeping, dispatching an expired call is the platform's
	// normal behavior (it completes as an SLO miss).
	ExpiryDispatchCheck bool

	mu         sync.Mutex
	ledger     map[uint64]centry
	byFunc     map[string]*counts
	byRegion   []counts
	total      counts
	violations []Violation
	nViol      uint64
	lateEvents uint64
	evals      uint64
	note       string
	// orphaned marks calls whose durable record diverged from a live copy
	// a scheduler or worker may still hold: booked lost while leased or
	// running (a crashed shard's torn tail), or replay-requeued while a
	// pre-crash execution was still in flight. Later events on those IDs
	// are at-least-once fallout — tolerated, never re-entered into the
	// ledger. Bounded by the crash blast radius, not the call volume.
	orphaned map[uint64]struct{}

	probes []probe
}

// NewChecker returns a checker for a platform with numRegions regions.
// When params.Enabled is false it returns nil, which is the disabled
// checker: every hook on it is a no-op.
func NewChecker(engine *sim.Engine, params Params, numRegions int) *Checker {
	if !params.Enabled {
		return nil
	}
	if params.MaxViolations <= 0 {
		params.MaxViolations = 64
	}
	k := &Checker{
		engine:   engine,
		params:   params,
		ledger:   make(map[uint64]centry),
		byFunc:   make(map[string]*counts),
		byRegion: make([]counts, numRegions),
	}
	if params.Interval > 0 {
		engine.Every(params.Interval, func() { k.evaluate(engine.Now()) })
	}
	return k
}

// Enabled reports whether the checker is live.
func (k *Checker) Enabled() bool { return k != nil }

// RegisterProbe adds a named structural check run at every evaluation.
// The probe returns one detail string per violation it found (empty
// slice or nil when the invariant holds). Probes run outside the
// checker's lock and may call its accessors.
func (k *Checker) RegisterProbe(name string, fn func(now sim.Time) []string) {
	if k == nil {
		return
	}
	k.mu.Lock()
	k.probes = append(k.probes, probe{name: name, fn: fn})
	k.mu.Unlock()
}

// Note records ambient context (e.g. an active chaos fault); subsequent
// violations carry it so a breach reads with its fault environment.
func (k *Checker) Note(kind, detail string) {
	if k == nil {
		return
	}
	k.mu.Lock()
	if detail != "" {
		kind += " " + detail
	}
	k.note = kind
	k.mu.Unlock()
}

// violate records one breach. Callers hold k.mu.
func (k *Checker) violate(name string, callID uint64, format string, args ...any) {
	k.nViol++
	if len(k.violations) >= k.params.MaxViolations {
		return
	}
	k.violations = append(k.violations, Violation{
		At:      k.engine.Now(),
		Name:    name,
		CallID:  callID,
		Detail:  fmt.Sprintf(format, args...),
		Context: k.note,
	})
}

func (k *Checker) fcounts(fn string) *counts {
	c, ok := k.byFunc[fn]
	if !ok {
		c = &counts{}
		k.byFunc[fn] = c
	}
	return c
}

// book adds a call to a conservation counter: in total, for its function
// and for its submission region. Callers hold k.mu.
func (k *Checker) book(e centry, ctr counter) {
	add := func(cs *counts) {
		cs[ctr]++
		if ctr >= cExhausted {
			cs[cDead]++
		}
	}
	add(&k.total)
	add(k.fcounts(e.fn))
	if int(e.region) < len(k.byRegion) {
		add(&k.byRegion[e.region])
	}
}

// onUnknown says what an event for an ID with no ledger entry means.
type onUnknown uint8

const (
	// lateIfUnknown: at-least-once fallout — a superseded execution, or a
	// settle after the call's terminal — counted in LateEvents.
	lateIfUnknown onUnknown = iota
	// breachIfUnknown: "<name>-unknown", a call the ledger never saw;
	// the event applies to nothing.
	breachIfUnknown
	// adoptIfUnknown: the same breach, after which the event applies to a
	// fresh entry.
	adoptIfUnknown
	// settledIfUnknown: the rule's breach, a call that already left the
	// ledger through a terminal.
	settledIfUnknown
	// opens: a source event; it opens an entry, and a live ID is a
	// duplicate.
	opens
	// resurrects: a journal replay of a call whose terminal record was
	// torn off; it opens a resurrected entry (legal at-least-once
	// duplication, counted as a late event).
	resurrects
)

// rule is one lifecycle kind's transition in the ledger.
type rule struct {
	// name prefixes the kind's violations: "<name>-from-<state>" for an
	// illegal source state, "<name>-unknown" for an unseen ID.
	name string
	// from is the set of legal source states; to is the next state
	// (0 = unchanged).
	from states
	to   uint8
	// count is the counter the event books: a source when it opens an
	// entry, a terminal when the call leaves the ledger under it.
	count counter
	// unknown decides an event for an ID without an entry; verb names
	// the event in that breach's detail, and breach names a settled one.
	unknown onUnknown
	verb    string
	breach  string
	// orphanLate tolerates an unknown ID a crash orphaned (see
	// Checker.orphaned) as a late event.
	orphanLate bool
	// reset clears the execution refs; orphans marks the ID orphaned when
	// it leaves a live state.
	reset, orphans bool
	// detail formats an illegal-source violation (or, for a source, a
	// duplicate-ID one) from the function name; "func %s" when empty.
	detail string
}

// illegal names the violation of a transition from state s.
func (r *rule) illegal(s uint8) string { return r.name + "-from-" + stateName(s) }

// rules is the ledger's transition table, indexed by lifecycle kind. A
// kind with no rule (the trace-only admission and execution spans) does
// not touch the ledger.
var rules = [lifecycle.NumKinds]rule{
	// An ID was assigned and the call joined a submitter batch.
	lifecycle.Submit: {name: "submit", to: stSubmitted, count: cSubmitted,
		unknown: opens, detail: "id assigned twice (func %s)"},
	// A call arrived from another partition: like a submission, but booked
	// as immigrated work so each partition's ledger closes on its own.
	lifecycle.MigrateIn: {name: "migrate-in", to: stSubmitted, count: cMigratedIn,
		unknown: opens, detail: "migrated-in id already live (func %s)"},
	// Handed to another partition at routing time, before persistence.
	lifecycle.Migrated: {name: "migrate", from: in(stSubmitted), count: cMigratedOut,
		unknown: breachIfUnknown, verb: "migrated", detail: "migrated after durable persistence (func %s)"},
	// A routing failure before persistence — the only legal way a call
	// disappears without an ack or dead-letter.
	lifecycle.Dropped: {name: "drop", from: in(stSubmitted), count: cDropped,
		unknown: breachIfUnknown, verb: "dropped", detail: "dropped after durable persistence (func %s)"},
	lifecycle.Enqueue: {name: "enqueue", from: in(stSubmitted), to: stQueued,
		unknown: adoptIfUnknown, verb: "enqueued"},
	// Each lease must carry a strictly increasing attempt (see legal).
	lifecycle.Lease: {name: "lease", from: in(stQueued), to: stLeased,
		unknown: adoptIfUnknown, verb: "leased"},
	// Dispatch while running is the lease-exclusivity breach; a scheduler
	// dispatching its copy of a call a crash settled out from under it is
	// at-least-once overlap.
	lifecycle.Dispatch: {name: "dispatch", from: in(stLeased), to: stRunning,
		unknown: adoptIfUnknown, verb: "dispatched", orphanLate: true},
	// The worker identity tells at-least-once overlap from a breach: a
	// completion from a superseded execution (its lease expired and the
	// call moved on) is a late event; one from the current execution in
	// any state but running is a breach (one execution completing twice).
	lifecycle.Complete: {name: "complete", from: in(stRunning), to: stCompleted},
	// A speculative copy is legal only while the primary runs, and only
	// one may be live (see legal).
	lifecycle.HedgeDispatch: {name: "hedge", from: in(stRunning),
		unknown: breachIfUnknown, verb: "hedged", orphanLate: true},
	lifecycle.HedgeWin:    {name: "hedge-win", from: anyState},
	lifecycle.HedgeCancel: {name: "hedge-cancel", from: anyState},
	// The shard's ack is authoritative: a superseded execution's ack can
	// land while a redelivery is queued, leased or running, ending the call
	// early (a late event). Only an ack before persistence is a breach.
	lifecycle.Ack: {name: "ack", from: in(stCompleted), count: cAcked,
		detail: "func %s acked before persistence"},
	// A negative settle (failure or evacuation) or a lease expiry.
	lifecycle.Nack:         {name: "nack", from: in(stLeased, stRunning, stCompleted), to: stSettling, reset: true},
	lifecycle.LeaseExpired: {name: "expire", from: in(stLeased, stRunning, stCompleted), to: stSettling, reset: true},
	// A draining scheduler hands its lease back: plain queued work again,
	// with no settle detour.
	lifecycle.Release: {name: "release", from: in(stLeased), to: stQueued, reset: true},
	// A drain moves a queued call's durable home; conservation keys on the
	// submission region, so the entry only has to still be queued.
	lifecycle.DrainMigrated: {name: "drain-migrate", from: in(stQueued)},
	lifecycle.Retry:         {name: "retry", from: in(stSettling), to: stQueued},
	lifecycle.DeadLetter:    {name: "deadletter", from: in(stSettling), count: cExhausted},
	// A redelivery refused by an empty retry budget.
	lifecycle.BudgetExhausted: {name: "budget-deadletter", from: in(stSettling), count: cBudgetDenied},
	// Sweeps catch a call queued, leased (the dispatch-time sweep) or
	// settling — never running: an expired call on a worker means the
	// sweeps failed.
	lifecycle.Expired: {name: "expire-sweep", from: in(stQueued, stLeased, stSettling), count: cExpired},
	// Shedding targets leased calls in a scheduler buffer; shedding a
	// settled call is the "executed to success and shed" breach.
	lifecycle.Shed: {name: "shed", from: in(stLeased), count: cShed,
		unknown: settledIfUnknown, verb: "shed", breach: "shed-after-terminal", orphanLate: true},
	// A crash can catch a call in any live state. Losing a call with no
	// entry is the durability breach: the component destroyed work it had
	// already settled, e.g. an acked call.
	lifecycle.Lost: {name: "lost", from: anyState, count: cLost, orphans: true,
		unknown: settledIfUnknown, verb: "component lost", breach: "lost-settled"},
	// Journal replay after a shard crash: any live state legally returns
	// to queued, and the refs reset so an orphaned execution's completion
	// reads as a late event.
	lifecycle.Recovered: {name: "recover", from: anyState, to: stQueued, count: cResurrected,
		reset: true, orphans: true, unknown: resurrects},
}

// Observe applies one lifecycle event to the ledger: the checker's
// subscription to the lifecycle stream and its only per-call entry point.
// The kind's rule decides the transition; legal adds the few checks that
// need more than a state.
func (k *Checker) Observe(c *function.Call, kind lifecycle.Kind, arg int64) {
	if k == nil || rules[kind].name == "" {
		return
	}
	r := &rules[kind]
	ref := workerRef(arg) // meaningful for the worker-carrying kinds only
	k.mu.Lock()
	defer k.mu.Unlock()
	e, known := k.ledger[c.ID]
	if !known || r.unknown == opens {
		var ok bool
		if e, ok = k.admit(c, r, known); !ok {
			return
		}
	} else if !k.legal(c, kind, r, e, ref) {
		return
	}
	if r.orphans && live.has(e.state) {
		// A pre-crash scheduler or worker still holds this call; its later
		// dispatch or completion is at-least-once fallout.
		k.markOrphaned(c.ID)
	}
	switch kind {
	case lifecycle.Lease:
		e.attempt = int32(c.Attempt)
	case lifecycle.Dispatch:
		k.placement(c, arg)
		e.worker = ref
	case lifecycle.HedgeDispatch:
		e.hedge = ref
	case lifecycle.HedgeWin:
		e.worker, e.hedge = ref, 0
	case lifecycle.HedgeCancel:
		e.hedge = 0
	}
	if r.reset {
		e.worker, e.hedge = 0, 0
	}
	if r.count.terminal() {
		k.book(e, r.count)
		delete(k.ledger, c.ID)
		return
	}
	if r.to != 0 {
		e.state = r.to
	}
	k.ledger[c.ID] = e
}

// admit decides an event for an ID with no ledger entry, or a source
// event for any ID. It returns the fresh entry the event applies to, or
// false when the event ends here. Callers hold k.mu.
func (k *Checker) admit(c *function.Call, r *rule, known bool) (centry, bool) {
	e := centry{region: int32(c.SourceRegion), fn: c.Spec.Name}
	if r.orphanLate {
		if _, orphan := k.orphaned[c.ID]; orphan {
			k.lateEvents++
			return e, false
		}
	}
	switch r.unknown {
	case lateIfUnknown:
		k.lateEvents++
		return e, false
	case breachIfUnknown, adoptIfUnknown:
		k.violate(r.name+"-unknown", c.ID, "%s a call the ledger never saw", r.verb)
		return e, r.unknown == adoptIfUnknown
	case settledIfUnknown:
		k.violate(r.breach, c.ID, "%s a call the ledger already settled (func %s)", r.verb, c.Spec.Name)
		return e, false
	case resurrects:
		k.lateEvents++
	case opens:
		if known {
			k.violate("duplicate-call-id", c.ID, r.detail, c.Spec.Name)
		}
	}
	k.book(e, r.count)
	return e, true
}

// legal checks a known call's transition against its rule, plus the
// kind-specific checks. It returns false for a superseded execution's
// event, which applies to nothing. Callers hold k.mu.
func (k *Checker) legal(c *function.Call, kind lifecycle.Kind, r *rule, e centry, ref int64) bool {
	switch {
	case kind == lifecycle.Complete && e.worker != ref,
		kind == lifecycle.HedgeWin && e.hedge != ref:
		k.lateEvents++
		return false
	case r.from.has(e.state):
	case kind == lifecycle.Ack && e.state != stSubmitted:
		k.lateEvents++
	case kind == lifecycle.Dispatch && e.state == stRunning:
		k.violate("lease-exclusivity", c.ID, "dispatched to %s while running on %s (func %s)",
			refString(ref), refString(e.worker), e.fn)
	case kind == lifecycle.Lease:
		k.violate(r.illegal(e.state), c.ID, "func %s attempt %d", e.fn, c.Attempt)
	case kind == lifecycle.Complete:
		k.violate(r.illegal(e.state), c.ID, "func %s on %s", e.fn, refString(ref))
	case r.detail != "":
		k.violate(r.illegal(e.state), c.ID, r.detail, e.fn)
	default:
		k.violate(r.illegal(e.state), c.ID, "func %s", e.fn)
	}
	switch kind {
	case lifecycle.Lease:
		if int32(c.Attempt) <= e.attempt {
			k.violate("attempt-not-monotone", c.ID,
				"attempt %d after %d (func %s)", c.Attempt, e.attempt, e.fn)
		}
	case lifecycle.HedgeDispatch:
		if e.hedge != 0 {
			k.violate("hedge-duplicate", c.ID,
				"hedged to %s while a hedge already runs on %s (func %s)",
				refString(ref), refString(e.hedge), e.fn)
		}
		if e.worker == ref {
			k.violate("hedge-same-worker", c.ID,
				"hedged onto the primary's own worker %s (func %s)", refString(ref), e.fn)
		}
	}
	return true
}

// placement checks a dispatch's worker against the function's locality
// group and, with expiry sweeping on, the call's deadline. Callers hold
// k.mu.
func (k *Checker) placement(c *function.Call, arg int64) {
	if k.LocalityCheck != nil {
		region, idx := lifecycle.SplitRef(arg)
		if msg := k.LocalityCheck(c, int(region), idx); msg != "" {
			k.violate("locality", c.ID, "%s", msg)
		}
	}
	if k.ExpiryDispatchCheck && c.IsExpired(k.engine.Now()) {
		k.violate("expired-dispatched", c.ID,
			"func %s dispatched %s past its deadline",
			c.Spec.Name, k.engine.Now()-c.Deadline)
	}
}

// markOrphaned remembers an ID whose live copy may outlast its durable
// record. Callers hold k.mu.
func (k *Checker) markOrphaned(id uint64) {
	if k.orphaned == nil {
		k.orphaned = make(map[uint64]struct{})
	}
	k.orphaned[id] = struct{}{}
}

// evaluate runs every registered probe. Probes run outside the lock so
// they can read the checker's accessors and the platform's components.
func (k *Checker) evaluate(now sim.Time) {
	k.mu.Lock()
	k.evals++
	probes := k.probes
	k.mu.Unlock()
	for _, p := range probes {
		for _, detail := range p.fn(now) {
			k.mu.Lock()
			k.violate(p.name, 0, "%s", detail)
			k.mu.Unlock()
		}
	}
}

// Final runs one last evaluation at the current virtual time and returns
// the retained violations. Call it after the simulation finishes.
func (k *Checker) Final() []Violation {
	if k == nil {
		return nil
	}
	k.evaluate(k.engine.Now())
	return k.Violations()
}

// Violations returns a copy of the retained violation records.
func (k *Checker) Violations() []Violation {
	if k == nil {
		return nil
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]Violation(nil), k.violations...)
}

// TotalViolations returns the full breach count, including records past
// MaxViolations.
func (k *Checker) TotalViolations() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.nViol
}

// LateEvents counts tolerated post-terminal events from at-least-once
// execution overlap (see the Complete rule).
func (k *Checker) LateEvents() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.lateEvents
}

// Evals returns how many probe evaluations have run.
func (k *Checker) Evals() uint64 {
	if k == nil {
		return 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.evals
}

// Totals returns the platform-wide conservation snapshot.
func (k *Checker) Totals() Tally {
	if k == nil {
		return Tally{}
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	t := tally(k.total)
	t.InFlight = len(k.ledger)
	return t
}

// tally converts an internal counts record into the exported snapshot
// (InFlight is the caller's to fill).
func tally(c counts) Tally {
	return Tally{
		Submitted:    c[cSubmitted],
		Acked:        c[cAcked],
		DeadLettered: c[cDead],
		Dropped:      c[cDropped],
		Lost:         c[cLost],
		Resurrected:  c[cResurrected],
		Exhausted:    c[cExhausted],
		Expired:      c[cExpired],
		BudgetDenied: c[cBudgetDenied],
		Shed:         c[cShed],
		MigratedOut:  c[cMigratedOut],
		MigratedIn:   c[cMigratedIn],
	}
}

// EachFunc visits per-function conservation tallies in sorted name
// order, with in-flight counts taken from the live ledger.
func (k *Checker) EachFunc(fn func(name string, t Tally)) {
	if k == nil {
		return
	}
	k.mu.Lock()
	inflight := make(map[string]int, len(k.byFunc))
	for _, e := range k.ledger {
		inflight[e.fn]++
	}
	names := make([]string, 0, len(k.byFunc))
	for name := range k.byFunc {
		names = append(names, name)
	}
	sort.Strings(names)
	tallies := make([]Tally, len(names))
	for i, name := range names {
		tallies[i] = tally(*k.byFunc[name])
		tallies[i].InFlight = inflight[name]
	}
	k.mu.Unlock()
	for i, name := range names {
		fn(name, tallies[i])
	}
}

// EachRegion visits per-submission-region conservation tallies in
// region order.
func (k *Checker) EachRegion(fn func(region int, t Tally)) {
	if k == nil {
		return
	}
	k.mu.Lock()
	inflight := make([]int, len(k.byRegion))
	for _, e := range k.ledger {
		if int(e.region) < len(inflight) {
			inflight[e.region]++
		}
	}
	tallies := make([]Tally, len(k.byRegion))
	for i, c := range k.byRegion {
		tallies[i] = tally(c)
		tallies[i].InFlight = inflight[i]
	}
	k.mu.Unlock()
	for i := range tallies {
		fn(i, tallies[i])
	}
}

// Gap returns the conservation imbalance of a tally: zero when
// submitted + resurrected + migrated-in == acked + dead-lettered +
// dropped + lost + migrated-out + in-flight. The closure holds across
// crashes and restarts: a crash moves calls to Lost (never silently off
// the books), a torn-ack replay adds a Resurrected source to balance the
// call's second life, and a partitioned run's fabric handoffs appear as
// a matched MigratedOut terminal here and MigratedIn source there.
func (t Tally) Gap() int64 {
	return int64(t.Submitted) + int64(t.Resurrected) + int64(t.MigratedIn) -
		int64(t.Acked) - int64(t.DeadLettered) - int64(t.Dropped) -
		int64(t.Lost) - int64(t.MigratedOut) - int64(t.InFlight)
}
