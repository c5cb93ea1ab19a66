package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"slices"
	"strings"
)

// CPU-profile attribution: a small decoder of the gzipped pprof protobuf
// that runtime/pprof writes (no third-party module), and the rule that
// charges each sample to a layer of this repository.

// stackSample is one decoded profile sample: its call stack as function
// names, leaf first (inlined frames included), and its weight (CPU
// nanoseconds for a CPU profile).
type stackSample struct {
	frames []string
	weight int64
}

// decodeProfile parses a gzipped (or raw) pprof profile into weighted
// stacks. The weight is the last sample value, which for Go CPU profiles
// is CPU time in nanoseconds.
func decodeProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string table index
		strs      []string
	)
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var vals []uint64
					if err := appendPacked(&vals, v, b); err != nil {
						return err
					}
					for _, x := range vals {
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
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
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
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
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
		st := stackSample{weight: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (wire types 0, 1 and 5) or its
// length-delimited payload (wire type 2, v = 0).
func eachField(b []byte, fn func(field int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(b[i])
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that may arrive packed (a
// payload of varints) or as one unpacked value.
func appendPacked(dst *[]uint64, v uint64, payload []byte) error {
	if payload == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(payload) > 0 {
		x, n := uvarint(payload)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		payload = payload[n:]
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

// The layers a host share is reported for: the repository's packages
// that workloads exercise, background garbage collection, the
// benchmark program itself, and everything else.
var shareLayers = []string{
	"interp", "cpu", "calendar", "mem", "bpred", "runahead", "prefetch",
	"sampling", "workloads", "graphgen", "experiments", "service", "cluster",
	"api", "client", "obs", "checkpoint", "gc", "bench", "other",
}

const internalPrefix = "dvr/internal/"

// layerOf names the layer a function belongs to: the last element of its
// dvr/internal package path (so dvr/internal/service/api is "api"),
// "bench" for the benchmark's own package main, "" otherwise.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		if dot := strings.IndexByte(rest, '.'); dot > 0 {
			return path.Base(rest[:dot])
		}
		return ""
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// gcRoots are the runtime's background collector entry points.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.forcegchelper"}

// attribute charges a stack to a layer of shareLayers: its nearest
// (leaf-most) frame that belongs to a layer, so runtime, map and
// standard-library frames are charged to the repository code that called
// them. Stacks with no repository frame are background GC ("gc") or
// "other", and so are repository packages off every workload's path.
func attribute(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			if slices.Contains(shareLayers, l) {
				return l
			}
			return "other"
		}
	}
	for _, fn := range frames {
		if slices.Contains(gcRoots, fn) {
			return "gc"
		}
	}
	return "other"
}

// hostShares returns each layer's share of the profile's total weight,
// with every layer of shareLayers present (zero when unsampled).
func hostShares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		out[attribute(s.frames)] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}
