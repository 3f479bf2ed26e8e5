package lifecycle

import (
	"testing"

	"xfaas/internal/function"
)

type fakeTracer struct {
	enabled  bool
	kinds    []Kind
	controls []string
}

func (f *fakeTracer) Enabled() bool { return f.enabled }
func (f *fakeTracer) Observe(c *function.Call, k Kind, arg int64) {
	f.kinds = append(f.kinds, k)
	if k == Submit && f.enabled {
		c.Sampled = true
	}
}
func (f *fakeTracer) Control(kind, detail string) { f.controls = append(f.controls, kind) }

type fakeLedger struct {
	kinds []Kind
	notes []string
}

func (f *fakeLedger) Observe(c *function.Call, k Kind, arg int64) { f.kinds = append(f.kinds, k) }
func (f *fakeLedger) Note(kind, detail string)                    { f.notes = append(f.notes, kind+" "+detail) }

func TestNilStreamIsSafe(t *testing.T) {
	var s *Stream
	c := &function.Call{}
	s.Emit(c, Submit, 0)
	s.Control("k", "d")
	s.Note("k", "d")
	NewStream(nil, nil).Emit(c, Ack, 0)
}

func TestStreamFanOut(t *testing.T) {
	tr, led := &fakeTracer{enabled: true}, &fakeLedger{}
	s := NewStream(tr, led)
	sampled, unsampled := &function.Call{}, &function.Call{}
	s.Emit(sampled, Submit, 0)
	s.Emit(sampled, Enqueue, 0)
	s.Emit(unsampled, Enqueue, 0)
	// The tracer sees the submit (its sampling decision) and the sampled
	// call's events only; the ledger sees every call.
	if len(tr.kinds) != 2 || tr.kinds[1] != Enqueue {
		t.Fatalf("tracer saw %v", tr.kinds)
	}
	if len(led.kinds) != 3 {
		t.Fatalf("ledger saw %v", led.kinds)
	}
	s.Control("breaker.open", "r0")
	s.Note("chaos.crash", "w-0-1")
	if len(tr.controls) != 2 || len(led.notes) != 1 || led.notes[0] != "chaos.crash w-0-1" {
		t.Fatalf("controls %v notes %v", tr.controls, led.notes)
	}
}

func TestDisabledTracerSkipsSubmit(t *testing.T) {
	tr := &fakeTracer{}
	s := NewStream(tr, nil)
	s.Emit(&function.Call{}, Submit, 0)
	if len(tr.kinds) != 0 {
		t.Fatalf("disabled tracer saw %v", tr.kinds)
	}
}

func TestEmitWhenOffDoesNotAllocate(t *testing.T) {
	s := NewStream(&fakeTracer{}, nil)
	c := &function.Call{}
	if n := testing.AllocsPerRun(100, func() {
		s.Emit(c, Submit, 0)
		s.Emit(c, Dispatch, Ref(1, 2))
	}); n != 0 {
		t.Fatalf("%v allocs per emit pair", n)
	}
}

func TestKindNamesAndRefs(t *testing.T) {
	if Submit.String() != "submit" || HedgeCancel.String() != "hedge-cancel" ||
		MigrateIn.String() != "migrate-in" || NumKinds.String() != "unknown" {
		t.Fatal("kind names out of order")
	}
	if r, i := SplitRef(Ref(3, 7)); r != 3 || i != 7 {
		t.Fatalf("SplitRef(Ref(3, 7)) = %d, %d", r, i)
	}
	if Migrated.Terminal() || !Shed.Terminal() {
		t.Fatal("Terminal: migration ends only a partition's part")
	}
}
