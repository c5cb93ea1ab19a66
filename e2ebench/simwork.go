package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/mem"
	"dvr/internal/sampling"
	"dvr/internal/stats"
)

// The in-process workloads: Figure 7 regenerated with experiments'
// matrix runners, exactly (sim-exact) or from phase samples over a longer
// ROI (sim-sampled).

// The paper's headline h-mean speedups over the OoO baseline.
const (
	paperDVR = 2.4
	paperVR  = 1.2
)

// setupReps is how many times a sim run builds the suite; setup_s is the
// median.
const setupReps = 3

type simKind struct {
	roi     uint64
	sampled bool
}

var (
	simExact   = simKind{roi: exactROI}
	simSampled = simKind{roi: sampledROI, sampled: true}
)

// runMatrix runs the Figure 7 matrix over the suite with every core busy.
func runMatrix(ctx context.Context, k simKind, s *suite) (matrix, error) {
	var (
		m   map[string]map[experiments.Technique]cpu.Result
		err error
	)
	if k.sampled {
		m, err = experiments.MatrixSampled(ctx, s.specs, fig7Techs, cfg(), experiments.SampleOptions{})
	} else {
		m, err = experiments.MatrixE(ctx, s.specs, fig7Techs, cfg())
	}
	if err != nil {
		return nil, err
	}
	return fromMap(s.specs, m), nil
}

// buildSetups builds the suite setupReps times, each from a collected
// heap, and returns the last suite with each build's wall and CPU
// seconds.
func buildSetups(seed, roi uint64) (s *suite, walls, cpus []float64, err error) {
	for i := 0; i < setupReps; i++ {
		s = nil
		runtime.GC()
		debug.FreeOSMemory()
		t0, c0 := time.Now(), cpuTime()
		if s, err = buildSuite(seed, roi, nil, 0); err != nil {
			return nil, nil, nil, err
		}
		walls = append(walls, since(t0))
		cpus = append(cpus, (cpuTime() - c0).Seconds())
	}
	return s, walls, cpus, nil
}

// simRun is the timed, untraced run: set up, then run the matrix until
// the budget is spent, checking every cell.
func simRun(ctx context.Context, e *env, k simKind) (metrics, error) {
	if err := startPeakWindow(); err != nil {
		return nil, err
	}
	s, setups, setupCPUs, err := buildSetups(e.seed, k.roi)
	if err != nil {
		return nil, err
	}
	want, _ := functionalCounts(s, nil, 0)
	chk := newChecker(s, k.sampled, want)
	var (
		walls, cpus []float64
		first       matrix
	)
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < e.budget; rep++ {
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		m, err := runMatrix(ctx, k, s)
		wall, cpu := since(t0), (cpuTime() - c0).Seconds()
		chk.check(e.tally, m, err)
		if err != nil {
			return nil, fmt.Errorf("matrix: %w", err)
		}
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		if first == nil {
			first = m
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.logf("%d matrices: wall %.3f s, cpu %.3f s; setup wall %.3f s, cpu %.3f s", len(walls), walls, cpus, setups, setupCPUs)
	// Set-up and the matrix are counted in CPU seconds, not wall seconds:
	// on a shared host the wall clock also counts time a hypervisor stole,
	// which swung between runs by more than any code change these metrics
	// exist to show. The wall clock is logged above.
	out := metrics{
		"setup_s":     {median(setupCPUs), "s"},
		"cell_cpu_ms": {median(cpus) / float64(len(s.specs)*len(fig7Techs)) * 1e3, "cpu-ms"},
		"peak_rss_mb": {peak, "MB"},
	}
	if err := addAccuracy(ctx, e, k, first, out); err != nil {
		return nil, err
	}
	return out, nil
}

// addAccuracy adds how far the figure's DVR and VR h-means are from the
// paper's, on the default seed's input (see defaultInputMatrix).
func addAccuracy(ctx context.Context, e *env, k simKind, m matrix, out metrics) error {
	canon, err := defaultInputMatrix(ctx, e, k, m)
	if err != nil {
		return err
	}
	out["dvr_speedup_err_pct"] = metric{math.Abs(hmeanSpeedup(canon, experiments.TechDVR)-paperDVR) / paperDVR * 100, "%"}
	out["vr_speedup_err_pct"] = metric{math.Abs(hmeanSpeedup(canon, experiments.TechVR)-paperVR) / paperVR * 100, "%"}
	return nil
}

// defaultInputMatrix returns the run's matrix as it would be on the
// default seed's graph, the input the figure is published on: the
// accuracy metrics compare that against the paper. Across seeds the
// error is a small difference of a seed-dependent h-mean, so it would
// swing by far more than any run-to-run bound; on one fixed input it is
// deterministic, and any change to the model moves it. For another seed
// the five graph kernels are simulated again on the default graph (each
// cell counted and checked) and spliced with the seed-independent
// hpc-db rows of m.
func defaultInputMatrix(ctx context.Context, e *env, k simKind, m matrix) (matrix, error) {
	if e.seed == defaultSeed {
		return m, nil
	}
	g, err := buildGAP(defaultSeed, k.roi)
	if err != nil {
		return nil, err
	}
	gm, err := runMatrix(ctx, k, g)
	want, _ := functionalCounts(g, nil, 0)
	newChecker(g, k.sampled, want).check(e.tally, gm, err)
	if err != nil {
		return nil, fmt.Errorf("default-input matrix: %w", err)
	}
	return append(gm, m[len(g.specs):]...), nil
}

// functionalCounts runs each benchmark functionally for its ROI and
// returns the instruction counts with the nanoseconds the interpreter
// took, recording an interp.Run span per benchmark.
func functionalCounts(s *suite, rec *recorder, parent uint64) ([]uint64, int64) {
	want := make([]uint64, len(s.specs))
	var ns int64
	for i, b := range s.bases {
		fe := b.Fork().Frontend()
		sp := rec.begin("interp.Run", parent, uint64(i))
		want[i] = fe.Run(s.specs[i].ROI)
		ns += sp.end()
	}
	return want, ns
}

// simTraced is the per-layer run: one untraced and one traced (CPU
// profile plus spans) matrix on the same inputs, then the layer probes.
func simTraced(ctx context.Context, e *env, k simKind) (metrics, error) {
	rec := e.rec
	root := rec.begin("e2ebench.run", 0, 0)
	defer root.end()
	s, err := buildSuite(e.seed, k.roi, rec, root.id())
	if err != nil {
		return nil, err
	}
	out := metrics{
		"graphgen.build_ms":  {float64(s.graphNS) / 1e6, "ms"},
		"workloads.build_ms": {float64(s.buildNS) / 1e6, "ms"},
	}
	var forks []float64
	for rep := 0; rep < 5; rep++ {
		for i, b := range s.bases {
			sp := rec.begin("workloads.Fork", root.id(), uint64(i))
			b.Fork()
			forks = append(forks, float64(sp.end())/1e3)
		}
	}
	out["workloads.fork_us"] = metric{median(forks), "us"}

	want, interpNS := functionalCounts(s, rec, root.id())
	var insts uint64
	for _, n := range want {
		insts += n
	}
	out["interp.minst_per_s"] = metric{float64(insts) / float64(interpNS) * 1e3, "Minst/s"}

	chk := newChecker(s, k.sampled, want)
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	untraced, err := runMatrix(ctx, k, s)
	wallU, cpuU := since(t0), (cpuTime() - c0).Seconds()
	chk.check(e.tally, untraced, err)
	if err != nil {
		return nil, fmt.Errorf("matrix: %w", err)
	}
	out["sim_mips"] = metric{float64(totalInsts(untraced)) / cpuU / 1e6, "Minst/cpu-s"}
	out["wall_s"] = metric{float64(s.graphNS+s.buildNS)/1e9 + wallU, "s"}
	runtime.GC()
	var (
		traced matrix
		runErr error
	)
	wallT, shares, err := profiled(e, func() {
		sp := rec.begin("experiments.Matrix", root.id(), 0)
		traced, runErr = runMatrix(ctx, k, s)
		sp.end()
	})
	if err != nil {
		return nil, err
	}
	// The traced matrix must be byte-identical to the untraced one.
	chk.check(e.tally, traced, runErr)
	if runErr != nil {
		return nil, fmt.Errorf("traced matrix: %w", runErr)
	}
	addShares(out, shares)
	out["obs.overhead_pct"] = metric{(wallT - wallU) / wallU * 100, "%"}
	addModel(out, untraced)

	if k.sampled {
		if err := samplingProbes(ctx, e, s, chk, untraced, root.id(), out); err != nil {
			return nil, err
		}
	} else {
		var hostNS int64
		for _, row := range untraced {
			for _, r := range row {
				hostNS += r.HostNS
			}
		}
		workers := min(runtime.GOMAXPROCS(0), len(s.specs)*len(fig7Techs))
		out["experiments.sched_loss_s"] = metric{wallU - float64(hostNS)/1e9/float64(workers), "s"}
		serialProbes(ctx, e, s, chk, root.id(), out)
	}
	return out, nil
}

// serialProbes runs every cell alone, so its host time and allocations
// belong to it: the core's ns per instruction on OoO cells, each
// engine's extra ns per instruction over the same benchmark's OoO run,
// and allocations per instruction.
func serialProbes(ctx context.Context, e *env, s *suite, chk *checker, parent uint64, out metrics) {
	nsPerInst := make([]float64, len(fig7Techs))
	for j, tech := range fig7Techs {
		var (
			hostNS  int64
			insts   uint64
			mallocs uint64
			before  runtime.MemStats
			after   runtime.MemStats
		)
		for i, spec := range s.specs {
			runtime.ReadMemStats(&before)
			sp := e.rec.begin("experiments.RunE", parent, uint64(i*len(fig7Techs)+j))
			r, err := experiments.RunE(ctx, spec, tech, cfg())
			sp.end()
			runtime.ReadMemStats(&after)
			if err == nil {
				err = chk.checkAgainst(r, i, j)
			}
			e.tally.add(err)
			hostNS += r.HostNS
			insts += r.Instructions
			mallocs += after.Mallocs - before.Mallocs
		}
		nsPerInst[j] = float64(hostNS) / float64(insts)
		out["engine.allocs_per_inst."+string(tech)] = metric{float64(mallocs) / float64(insts), "allocs/inst"}
	}
	out["cpu.ns_per_inst.ooo"] = metric{nsPerInst[0], "ns/inst"}
	for j, tech := range fig7Techs[1:] {
		out["engine.ns_per_inst."+string(tech)] = metric{nsPerInst[j+1] - nsPerInst[0], "ns/inst"}
	}
}

// samplingProbes times the sampling layer: plan construction per
// benchmark, the replays inside the sampled matrix, the share of the
// projected instructions the timing core actually ran, and the
// projection's h-mean error against an exact matrix at the same ROI.
func samplingProbes(ctx context.Context, e *env, s *suite, chk *checker, sampled matrix, parent uint64, out metrics) error {
	var planNS int64
	for i, b := range s.bases {
		sp := e.rec.begin("sampling.NewPlan", parent, uint64(i))
		_, err := sampling.NewPlan(b.Fork(), sampling.Options{ROI: s.specs[i].ROI})
		planNS += sp.end()
		e.tally.add(err)
	}
	var replayNS int64
	var simulated, profiled uint64
	for _, row := range sampled {
		for _, r := range row {
			replayNS += r.HostNS
			if r.Sampled != nil {
				simulated += r.Sampled.SimulatedInsts
				profiled += r.Sampled.ProfiledInsts
			}
		}
	}
	out["sampling.plan_ms"] = metric{float64(planNS) / 1e6, "ms"}
	out["sampling.replay_ms"] = metric{float64(replayNS) / 1e6, "ms"}
	out["sampling.detailed_frac"] = metric{float64(simulated) / float64(profiled), "ratio"}

	sp := e.rec.begin("experiments.Matrix", parent, 1)
	exact, err := runMatrix(ctx, simKind{roi: s.specs[0].ROI}, s)
	sp.end()
	exactChk := newChecker(s, false, chk.want)
	exactChk.check(e.tally, exact, err)
	if err != nil {
		return fmt.Errorf("exact matrix: %w", err)
	}
	var worst float64
	for _, tech := range experiments.AllTechniques {
		x := hmeanSpeedup(exact, tech)
		worst = max(worst, math.Abs(hmeanSpeedup(sampled, tech)-x)/x*100)
	}
	out["sampling.hmean_err_pct"] = metric{worst, "%"}
	return nil
}

// addModel adds the simulated model's own statistics: deterministic per
// seed, so a change that only speeds up the host must leave them
// identical.
func addModel(out metrics, m matrix) {
	for _, tech := range experiments.AllTechniques {
		out["model.speedup."+string(tech)] = metric{hmeanSpeedup(m, tech), "x"}
	}
	col := func(tech experiments.Technique) []cpu.Result {
		j := techIndex(tech)
		rs := make([]cpu.Result, len(m))
		for i := range m {
			rs[i] = m[i][j]
		}
		return rs
	}
	meanOf := func(rs []cpu.Result, f func(cpu.Result) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return stats.Mean(xs)
	}
	dram := func(rs []cpu.Result) float64 {
		var n uint64
		for _, r := range rs {
			for _, a := range r.Mem.DRAMAccesses {
				n += a
			}
		}
		return float64(n)
	}
	ooo, vr, dvr := col(experiments.TechOoO), col(experiments.TechVR), col(experiments.TechDVR)
	out["mem.llc_mpki.ooo"] = metric{meanOf(ooo, cpu.Result.LLCMPKI), "1/kinst"}
	out["mem.mlp.ooo"] = metric{meanOf(ooo, cpu.Result.MLP), "mshrs"}
	out["mem.mlp.dvr"] = metric{meanOf(dvr, cpu.Result.MLP), "mshrs"}
	out["mem.dram_ratio.vr"] = metric{dram(vr) / dram(ooo), "ratio"}
	out["mem.dram_ratio.dvr"] = metric{dram(dvr) / dram(ooo), "ratio"}
	var l1, found uint64
	for _, r := range dvr {
		for lvl, n := range r.Mem.PrefUsefulAt {
			found += n
			if mem.Level(lvl) == mem.LvlL1 {
				l1 += n
			}
		}
	}
	out["prefetch.l1_found.dvr"] = metric{float64(l1) / float64(found), "ratio"}
	out["cpu.rob_stall_frac.ooo"] = metric{meanOf(ooo, cpu.Result.ROBStallFrac), "ratio"}
	var miss, lookups uint64
	for _, r := range ooo {
		miss += r.BranchMispredict
		lookups += r.BranchLookups
	}
	out["bpred.mispredict_rate.ooo"] = metric{float64(miss) / float64(lookups), "ratio"}
}

func techIndex(tech experiments.Technique) int {
	for j, t := range fig7Techs {
		if t == tech {
			return j
		}
	}
	panic("e2ebench: technique outside the Figure 7 lineup: " + string(tech))
}

// hmeanSpeedup is the figure's aggregate: the harmonic mean over
// benchmarks of tech's IPC over the OoO baseline.
func hmeanSpeedup(m matrix, tech experiments.Technique) float64 {
	j := techIndex(tech)
	xs := make([]float64, len(m))
	for i, row := range m {
		xs[i] = experiments.Speedup(row[0], row[j])
	}
	return stats.HarmonicMean(xs)
}

func totalInsts(m matrix) uint64 {
	var n uint64
	for _, row := range m {
		for _, r := range row {
			n += r.Instructions
		}
	}
	return n
}
