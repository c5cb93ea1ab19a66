package main

import (
	"context"
	"fmt"
	"math"
	"testing"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/service/api"
)

// quickMatrix builds the default-seed suite at the quick suite's ROI and
// runs its exact Figure 7 matrix, with its checker primed by that run.
func quickMatrix(t *testing.T) (*checker, matrix) {
	t.Helper()
	s, err := buildSuite(defaultSeed, quickROI, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := runMatrix(context.Background(), simKind{roi: quickROI}, s)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := functionalCounts(s, nil, 0)
	chk := newChecker(s, false, want)
	var tl tally
	chk.check(&tl, m, nil)
	if a, f := tl.counts(); a != len(s.specs)*len(fig7Techs) || f != 0 {
		t.Fatalf("clean matrix: %d attempted, %d failed (%v)", a, f, tl.errs)
	}
	return chk, m
}

func TestDefaultSeedReproducesQuickFigure7(t *testing.T) {
	// The default seed at the quick suite's ROI is the quick Figure 7:
	// its h-means are DVR 2.511 and VR 1.159, as dvrbench -quick fig7
	// prints them.
	_, m := quickMatrix(t)
	for _, c := range []struct {
		tech experiments.Technique
		want string
	}{{experiments.TechDVR, "2.511"}, {experiments.TechVR, "1.159"}} {
		if got := fmt.Sprintf("%.3f", hmeanSpeedup(m, c.tech)); got != c.want {
			t.Errorf("%s h-mean %s, want %s", c.tech, got, c.want)
		}
	}
}

func TestCorruptedCellsCountAsFailures(t *testing.T) {
	chk, m := quickMatrix(t)
	ncells := len(chk.s.specs) * len(fig7Techs)
	corrupt := []struct {
		name string
		edit func(m matrix)
	}{
		{"short commit", func(m matrix) { m[0][0].Instructions-- }},
		{"cycles below width", func(m matrix) { m[1][2].Cycles = m[1][2].Instructions / 10 }},
		{"wrong technique", func(m matrix) { m[2][3].Technique = "ooo" }},
		{"changed statistic", func(m matrix) { m[3][4].Mem.Writebacks++ }},
		{"sampled provenance on an exact cell", func(m matrix) { m[4][5].Sampled = &cpu.SampledProvenance{} }},
	}
	for _, c := range corrupt {
		t.Run(c.name, func(t *testing.T) {
			bad := make(matrix, len(m))
			for i := range m {
				bad[i] = append(bad[i], m[i]...)
			}
			c.edit(bad)
			var tl tally
			chk.check(&tl, bad, nil)
			a, f := tl.counts()
			if a != ncells {
				t.Fatalf("%d attempted, want %d", a, ncells)
			}
			if f != 1 {
				t.Fatalf("one corrupted cell: %d failed, want 1 (%v)", f, tl.errs)
			}
		})
	}

	// A fleet answer is checked against the in-process bytes: a corrupted
	// result, an error cell or the wrong cache status each fail.
	good := api.SimResponse{Result: m[5][1]}
	if err := checkResponse(chk, good, 5, 1, wantMiss); err != nil {
		t.Fatalf("faithful fleet answer rejected: %v", err)
	}
	changed := good
	changed.Result.ROBStallCycles++
	for name, r := range map[string]api.SimResponse{
		"corrupted result": changed,
		"error cell":       {Error: &api.Error{Code: api.CodeInternal, Error: "boom"}},
		"cached when cold": {Cached: true, Result: m[5][1]},
	} {
		if checkResponse(chk, r, 5, 1, wantMiss) == nil {
			t.Errorf("%s: fleet answer accepted", name)
		}
	}

	// A failed matrix counts every cell failed.
	var tl tally
	chk.check(&tl, nil, fmt.Errorf("worker died"))
	if a, f := tl.counts(); a != ncells || f != ncells {
		t.Fatalf("failed matrix: %d attempted, %d failed, want %d/%d", a, f, ncells, ncells)
	}
}

func TestSummaryStatistics(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Fatal("median of nothing is not NaN")
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
}
