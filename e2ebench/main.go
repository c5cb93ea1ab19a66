// Command e2ebench is the repository's benchmark: four workloads that
// exercise the simulator and the dvrd service the way their users do,
// with end-to-end metrics from timed runs and per-layer metrics from a
// separate traced run. See README.md in this directory for the workloads,
// the metrics and which layer each one is expected to move.
//
// Usage (from the repository root; run.sh builds the program first):
//
//	bash e2ebench/run.sh --workload sim-exact --seed 7 --seconds 15 --trace 0
//	bash e2ebench/run.sh --workload all
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// With --trace 0 the metrics are every end-to-end metric; with --trace 1
// every per-layer metric, where a layer the workload does not exercise
// reads 0. The names and units are endToEndUnits and perLayerUnits,
// which BENCHMARK.json lists too. A human-readable table of what was
// measured goes to standard error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"dvr/internal/experiments"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// env is one workload run's context.
type env struct {
	name   string
	seed   uint64
	budget time.Duration // how long the timed phase measures
	tally  *tally
	rec    *recorder // nil in the timed (untraced) run
	out    string    // where the traced run writes its spans and profile
	log    io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, "e2ebench: %s: %s\n", e.name, fmt.Sprintf(format, args...))
}

// artifact returns the path of a traced-run output file.
func (e *env) artifact(suffix string) string {
	return filepath.Join(e.out, fmt.Sprintf("%s-seed%d.%s", e.name, e.seed, suffix))
}

// endToEndUnits names every end-to-end metric with its unit. Each
// workload measures all of them; time is CPU time, which on a shared
// host leaves out what a hypervisor stole (see README.md).
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"cell_cpu_ms":         "cpu-ms",
	"peak_rss_mb":         "MB",
	"dvr_speedup_err_pct": "%",
	"vr_speedup_err_pct":  "%",
}

// perLayerUnits names every per-layer metric with its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{
		"wall_s":                    "s",
		"sim_mips":                  "Minst/cpu-s",
		"cells_per_s":               "cells/s",
		"closed_rps":                "req/s",
		"p50_ms.closed":             "ms",
		"p50_ms.r500":               "ms",
		"p99_ms.r500":               "ms",
		"p50_ms.r1500":              "ms",
		"p99_ms.r1500":              "ms",
		"loadgen.late_ms.p99":       "ms",
		"loadgen.backlog_max":       "count",
		"obs.overhead_pct":          "%",
		"graphgen.build_ms":         "ms",
		"workloads.build_ms":        "ms",
		"workloads.fork_us":         "us",
		"interp.minst_per_s":        "Minst/s",
		"cpu.ns_per_inst.ooo":       "ns/inst",
		"experiments.sched_loss_s":  "s",
		"sampling.plan_ms":          "ms",
		"sampling.replay_ms":        "ms",
		"sampling.detailed_frac":    "ratio",
		"sampling.hmean_err_pct":    "%",
		"service.queue_wait_ms.p50": "ms",
		"service.sim_ms.sum":        "ms",
		"service.cache_hit_us.mean": "us",
		"service.spill_writes":      "count",
		"checkpoint.writes":         "count",
		"cluster.route_us.p50":      "us",
		"cluster.dispatch_ms.p50":   "ms",
		"cluster.replica_imbalance": "ratio",
		"client.rtt_us.p50":         "us",
		"client.retries":            "count",
		"mem.llc_mpki.ooo":          "1/kinst",
		"mem.mlp.ooo":               "mshrs",
		"mem.mlp.dvr":               "mshrs",
		"mem.dram_ratio.vr":         "ratio",
		"mem.dram_ratio.dvr":        "ratio",
		"prefetch.l1_found.dvr":     "ratio",
		"cpu.rob_stall_frac.ooo":    "ratio",
		"bpred.mispredict_rate.ooo": "ratio",
	}
	for _, layer := range shareLayers {
		u[layer+".host_share"] = "share"
	}
	for _, tech := range fig7Techs {
		u["engine.allocs_per_inst."+string(tech)] = "allocs/inst"
		if tech != experiments.TechOoO {
			u["engine.ns_per_inst."+string(tech)] = "ns/inst"
		}
	}
	for _, tech := range experiments.AllTechniques {
		u["model.speedup."+string(tech)] = "x"
	}
	return u
}

// conform checks a workload's metrics against the table its run reports
// from: only listed names, each with its listed unit. A timed run must
// have measured every end-to-end metric; a traced run reports a layer
// metric its workload does not exercise as 0 (fill).
func conform(m metrics, units map[string]string, fill bool) error {
	for k, v := range m {
		if u, ok := units[k]; !ok {
			return fmt.Errorf("metric %s is not in the benchmark's table", k)
		} else if u != v.Unit {
			return fmt.Errorf("metric %s has unit %s, the table says %s", k, v.Unit, u)
		}
	}
	for k, u := range units {
		if _, ok := m[k]; !ok {
			if !fill {
				return fmt.Errorf("end-to-end metric %s was not measured", k)
			}
			m[k] = metric{0, u}
		}
	}
	return nil
}

// startPeakWindow collects the heap, returns the freed memory to the
// system and starts a new peak-RSS window, so peak_rss_mb leaves out
// whatever the process ran before: an earlier workload, or the
// benchmark's own in-process reference.
func startPeakWindow() error {
	runtime.GC()
	debug.FreeOSMemory()
	return resetPeakRSS()
}

type workloadDef struct {
	name   string
	timed  func(context.Context, *env) (metrics, error)
	traced func(context.Context, *env) (metrics, error)
}

var workloadDefs = []workloadDef{
	{"sim-exact",
		func(ctx context.Context, e *env) (metrics, error) { return simRun(ctx, e, simExact) },
		func(ctx context.Context, e *env) (metrics, error) { return simTraced(ctx, e, simExact) }},
	{"sim-sampled",
		func(ctx context.Context, e *env) (metrics, error) { return simRun(ctx, e, simSampled) },
		func(ctx context.Context, e *env) (metrics, error) { return simTraced(ctx, e, simSampled) }},
	{"fleet-cold", coldRun, coldTraced},
	{"fleet-warm", warmRun, warmTraced},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", defaultSeed, "input seed; 7 is the quick suite's KR-S graph")
	seconds := fs.Int("seconds", 15, "how long each timed run measures, in seconds")
	traced := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build/out", "directory for the traced run's span and profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workloadDef
	for _, w := range workloadDefs {
		if *workload == w.name || *workload == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 1 {
		fmt.Fprintf(stderr, "usage: e2ebench --workload {%s|all} [--seed N] [--seconds S] [--trace 0|1]\n", strings.Join(names, "|"))
		return 2
	}
	if *traced == 1 {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %v\n", err)
			return 1
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	total := result{Correct: true, Metrics: metrics{}}
	for _, w := range selected {
		e := &env{name: w.name, seed: *seed, budget: time.Duration(*seconds) * time.Second,
			tally: &tally{}, out: *out, log: stderr}
		fn := w.timed
		if *traced == 1 {
			e.rec = newRecorder()
			fn = w.traced
		}
		m, err := fn(ctx, e)
		if err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		if e.rec != nil {
			if err := e.rec.writePerfetto(e.artifact("spans.json")); err != nil {
				fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
				return 1
			}
		}
		attempted, failed := e.tally.counts()
		for _, msg := range e.tally.errs {
			e.logf("FAILED: %s", msg)
		}
		printTable(stderr, w.name, m, attempted, failed)
		units := endToEndUnits
		if *traced == 1 {
			units = perLayerUnits()
		}
		if err := conform(m, units, *traced == 1); err != nil {
			fmt.Fprintf(stderr, "e2ebench: %s: %v\n", w.name, err)
			return 1
		}
		total.Attempted += attempted
		total.Failed += failed
		total.Correct = total.Correct && failed == 0 && attempted > 0
		for k, v := range m {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				// JSON has no encoding for these; they only arise from
				// failed operations, which the result already counts.
				e.logf("metric %s is %v; left out of the result", k, v.Value)
				continue
			}
			if len(selected) > 1 {
				k = w.name + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// printTable writes one workload's metrics, by name with units, plus its
// operation counts and error rate.
func printTable(w io.Writer, workload string, m metrics, attempted, failed int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	tw := bufio.NewWriter(w)
	fmt.Fprintf(tw, "== %s: %d operations, %d failed\n", workload, attempted, failed)
	for _, k := range keys {
		fmt.Fprintf(tw, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	rate := 1.0
	if attempted > 0 {
		rate = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(tw, "  %-34s %14.6g %s\n", "error_rate", rate, "ratio")
	tw.Flush()
}

// profiled runs fn under the CPU profiler, saves the profile next to the
// traced run's spans, and returns fn's wall time in seconds with the
// profile's host share per layer.
func profiled(e *env, fn func()) (float64, map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, nil, fmt.Errorf("starting the CPU profile: %w", err)
	}
	t0 := time.Now()
	fn()
	wall := since(t0)
	pprof.StopCPUProfile()
	if err := os.WriteFile(e.artifact("cpu.pprof"), buf.Bytes(), 0o644); err != nil {
		return 0, nil, err
	}
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		return 0, nil, err
	}
	return wall, hostShares(samples), nil
}

func addShares(out metrics, shares map[string]float64) {
	for layer, s := range shares {
		out[layer+".host_share"] = metric{s, "share"}
	}
}
