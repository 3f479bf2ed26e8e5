package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// protoBuf is a minimal protobuf writer for building synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint(x uint64) {
	for x >= 0x80 {
		p.b = append(p.b, byte(x)|0x80)
		x >>= 7
	}
	p.b = append(p.b, byte(x))
}

func (p *protoBuf) uint(num int, x uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(x)
}

func (p *protoBuf) bytes(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *protoBuf) packed(num int, xs []uint64) {
	var q protoBuf
	for _, x := range xs {
		q.varint(x)
	}
	p.bytes(num, q.b)
}

// synthProfile encodes a gzipped CPU profile. Each sample is a stack of
// locations, leaf first; each location lists its frames innermost first
// (more than one frame means inlining). Values are (count, nanoseconds).
// Odd samples encode their location IDs unpacked, as older writers did.
func synthProfile(samples [][][]string, nanos []int64) []byte {
	var prof protoBuf
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	str := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt protoBuf
		vt.uint(1, str(st[0]))
		vt.uint(2, str(st[1]))
		prof.bytes(1, vt.b)
	}
	funcID := map[string]uint64{}
	var nextLoc uint64
	for i, stack := range samples {
		var locs []uint64
		for _, frames := range stack {
			nextLoc++
			var loc protoBuf
			loc.uint(1, nextLoc)
			for _, f := range frames {
				id, ok := funcID[f]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[f] = id
					var fn protoBuf
					fn.uint(1, id)
					fn.uint(2, str(f))
					prof.bytes(5, fn.b)
				}
				var line protoBuf
				line.uint(1, id)
				line.uint(2, 7)
				loc.bytes(4, line.b)
			}
			prof.bytes(4, loc.b)
			locs = append(locs, nextLoc)
		}
		var s protoBuf
		if i%2 == 1 {
			for _, l := range locs {
				s.uint(1, l)
			}
		} else {
			s.packed(1, locs)
		}
		s.packed(2, []uint64{1, uint64(nanos[i])})
		prof.bytes(2, s.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	zw.Write(prof.b)
	zw.Close()
	return out.Bytes()
}

func TestAttributionOfASyntheticProfile(t *testing.T) {
	const (
		step    = "xfaas/internal/sim.(*Engine).Step"
		runPart = "xfaas/internal/sim.(*Group).runPart"
	)
	samples := [][][]string{
		// A map lookup inlined into DurableQ poll: charged to durableq.
		{{"runtime.mapaccess2_faststr", "xfaas/internal/durableq.(*Shard).PollInto"},
			{"xfaas/internal/scheduler.(*Scheduler).tick"}, {step}, {"main.main"}},
		// A GC worker: charged to gc, although no xfaas frame is present.
		{{"runtime.scanobject"}, {"runtime.gcDrain"}, {"runtime.gcBgMarkWorker"}},
		// A mark assist inside an allocation made by the generator: the
		// generator pays for it.
		{{"runtime.gcAssistAlloc"}, {"runtime.mallocgc"},
			{"xfaas/internal/workload.(*Generator).tick.func1"}, {step}},
		// The idle scheduler loop: other.
		{{"runtime.futex"}, {"runtime.findRunnable"}, {"runtime.schedule"}},
		// A partition goroutine waiting on the horizon: sim, and spin.
		{{"runtime.Gosched"}, {runPart}, {"xfaas/internal/sim.(*Group).RunUntil.func1"}},
		// A partition goroutine firing an event: worker, not spin.
		{{"xfaas/internal/worker.(*Worker).finish"}, {step}, {runPart}},
	}
	nanos := []int64{30e6, 20e6, 10e6, 10e6, 20e6, 10e6}
	decoded, err := decodeProfile(synthProfile(samples, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(decoded), len(samples))
	}
	if got := decoded[0].stack[:2]; got[0] != "runtime.mapaccess2_faststr" || got[1] != "xfaas/internal/durableq.(*Shard).PollInto" {
		t.Fatalf("inlined frames decoded as %v", got)
	}
	a := attribute(decoded)
	want := map[string]float64{"durableq": 0.3, "gc": 0.2, "workload": 0.1, "other": 0.1, "sim": 0.2, "worker": 0.1}
	sum := 0.0
	for l, s := range a.share {
		sum += s
		if math.Abs(s-want[l]) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, s, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if math.Abs(a.spin-2.0/3) > 1e-12 {
		t.Errorf("spin %v, want 2/3", a.spin)
	}
	if a.total != 100e6 {
		t.Errorf("total %d", a.total)
	}
}

func TestFoldLayersKeepsTheSum(t *testing.T) {
	got := foldLayers(map[string]float64{"durableq": 0.5, "experiment": 0.25, "other": 0.25})
	if got["durableq"] != 0.5 || got["other"] != 0.5 {
		t.Fatalf("folded %v", got)
	}
}

func TestAttributeEmptyProfile(t *testing.T) {
	a := attribute(nil)
	if len(a.share) != 0 || a.spin != 0 || a.total != 0 {
		t.Fatalf("empty profile attributed as %+v", a)
	}
}

// A real runtime/pprof profile decodes, and its stacks name this test's
// busy loop.
func TestDecodeARuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	x := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if x == 0 || len(samples) == 0 {
		t.Skip("no samples collected")
	}
	for _, s := range samples {
		if hasFrame(s.stack, "xfaas/perfbench.TestDecodeARuntimeProfile") {
			return
		}
	}
	t.Fatalf("no sample names the busy loop in %d samples", len(samples))
}
