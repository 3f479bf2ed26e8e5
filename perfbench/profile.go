package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one decoded CPU profile sample: its call stack as
// function names, leaf first (inlined frames expanded), and its value.
type stackSample struct {
	stack []string
	value int64
}

// decodeProfile reads a runtime/pprof CPU profile (gzipped profile.proto)
// and returns its samples valued by the last sample type (CPU
// nanoseconds for a CPU profile). It reads only the fields attribution
// needs: samples, locations, functions and the string table.
func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				stack = append(stack, strs[idx])
			}
		}
		out = append(out, stackSample{stack: stack, value: s.values[len(s.values)-1]})
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints decodes a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "xfaas/internal/"

// gcRoots are the runtime's background GC goroutines; a sample with one
// of them on its stack is garbage-collection work.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf charges one stack to a layer: "gc" for GC worker goroutines,
// else the package of the first xfaas/internal frame counting from the
// leaf (so runtime map lookups, allocation and hashing count against the
// layer that called them), else "other" (scheduler idle loop, the
// benchmark harness itself).
func layerOf(stack []string) string {
	for _, f := range stack {
		for _, g := range gcRoots {
			if f == g {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, internalPrefix) {
			pkg := f[len(internalPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			return pkg
		}
	}
	return "other"
}

// attribution is a CPU profile charged to layers.
type attribution struct {
	// share is each layer's fraction of all sampled CPU; they sum to 1.
	share map[string]float64
	// spin is the fraction of partition-goroutine CPU (samples under
	// sim.(*Group).runPart) outside Engine.Step: time spent waiting on
	// the horizon. Zero when no sample ran a partition goroutine.
	spin float64
	// total is the profile's summed sample value.
	total int64
}

const (
	runPartFrame = "xfaas/internal/sim.(*Group).runPart"
	stepFrame    = "xfaas/internal/sim.(*Engine).Step"
)

func attribute(samples []stackSample) attribution {
	a := attribution{share: map[string]float64{}}
	var part, partStep int64
	for _, s := range samples {
		a.total += s.value
		a.share[layerOf(s.stack)] += float64(s.value)
		if hasFrame(s.stack, runPartFrame) {
			part += s.value
			if hasFrame(s.stack, stepFrame) {
				partStep += s.value
			}
		}
	}
	if a.total == 0 {
		return a
	}
	for k, v := range a.share {
		a.share[k] = v / float64(a.total)
	}
	if part > 0 {
		a.spin = float64(part-partStep) / float64(part)
	}
	return a
}

func hasFrame(stack []string, name string) bool {
	for _, f := range stack {
		if f == name {
			return true
		}
	}
	return false
}
