package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAttributeSampleStacks(t *testing.T) {
	f, err := os.Open("testdata/stacks.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var samples []stackSample
	want := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 {
			t.Fatalf("malformed line %q", line)
		}
		w, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		frames := strings.Split(fields[2], ";")
		if got := attribute(frames); got != fields[0] {
			t.Errorf("stack %q charged to %q, want %q", fields[2], got, fields[0])
		}
		samples = append(samples, stackSample{frames: frames, weight: w})
		want[fields[0]] += float64(w)
		total += float64(w)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	shares := hostShares(samples)
	if len(shares) != len(shareLayers) {
		t.Fatalf("%d shares, want one per layer (%d)", len(shares), len(shareLayers))
	}
	var sum float64
	for l, s := range shares {
		sum += s
		if math.Abs(s-want[l]/total) > 1e-12 {
			t.Errorf("%s share %.4f, want %.4f", l, s, want[l]/total)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestDecodeRuntimeProfile(t *testing.T) {
	// A real profile written by runtime/pprof must decode, and the test's
	// own busy loop must dominate it and be charged to the benchmark.
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spin, total int64
	for _, s := range samples {
		total += s.weight
		for _, fn := range s.frames {
			if fn == "dvr/e2ebench.spinForProfile" || fn == "main.spinForProfile" {
				spin += s.weight
				break
			}
		}
	}
	if total == 0 || float64(spin) < 0.5*float64(total) {
		t.Fatalf("spin loop holds %d of %d profiled ns, want most of it", spin, total)
	}
	if _, err := decodeProfile(buf.Bytes()[:len(buf.Bytes())/2]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
