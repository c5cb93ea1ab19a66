package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"dvr/internal/experiments"
	"dvr/internal/obs"
	"dvr/internal/service"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stats"
	"dvr/internal/workloads"
)

// The service workloads run against an in-process loopback fleet: one
// frontend routing over two workers with one simulation slot each,
// sharing one fresh cache directory with checkpointing, as
// docker-compose.yml deploys dvrd.

const (
	fleetWorkers = 2
	// checkpointEvery is docker-compose.yml's -checkpoint-every. No Figure
	// 7 cell at the quick ROI reaches it; fleet-cold's long cell does.
	checkpointEvery = 100_000
	// longROI is the long cell's instruction budget.
	longROI = checkpointEvery + 20_000
	// spanRing sizes each process's span collector in the traced run:
	// larger than the spans a traced phase produces, so none are dropped.
	spanRing = 1 << 16
	// A fleet boot takes a few milliseconds of CPU, too little to time
	// alone: fleet-cold times coldBootGroups groups of coldGroupBoots.
	coldBootGroups = 5
	coldGroupBoots = 8
	// warmSetups is how many times fleet-warm boots and fills a fleet.
	warmSetups = 3
)

type fleet struct {
	dir        string
	frontend   *service.Frontend
	workers    []*service.Server
	servers    []*http.Server // workers first, frontend last
	wg         sync.WaitGroup
	feURL      string
	workerURLs []string
}

// bootFleet starts a fleet in a fresh directory and waits until every
// member answers /readyz; it returns the fleet and the seconds that took.
// spans > 0 turns on each process's span collector.
func bootFleet(ctx context.Context, spans int) (*fleet, float64, error) {
	dir, err := os.MkdirTemp("", "e2ebench-fleet-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	f := &fleet{dir: dir}
	if err := f.start(spans); err != nil {
		f.close()
		return nil, 0, err
	}
	if err := f.ready(ctx); err != nil {
		f.close()
		return nil, 0, err
	}
	return f, since(t0), nil
}

func (f *fleet) cacheDir() string { return filepath.Join(f.dir, "cache") }

func (f *fleet) start(spans int) error {
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := service.New(service.Config{
			Workers:         1,
			CacheDir:        f.cacheDir(),
			CheckpointEvery: checkpointEvery,
			TraceSpans:      spans,
			ProcName:        "worker@" + ln.Addr().String(),
		})
		f.workers = append(f.workers, srv)
		f.workerURLs = append(f.workerURLs, "http://"+ln.Addr().String())
		f.serve(ln, srv.Handler())
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fe, err := service.NewFrontend(service.FrontendConfig{
		Replicas:      f.workerURLs,
		ProbeInterval: 500 * time.Millisecond,
		FailThreshold: 3,
		TraceSpans:    spans,
		ProcName:      "frontend@" + ln.Addr().String(),
	})
	if err != nil {
		ln.Close()
		return err
	}
	f.frontend = fe
	f.feURL = "http://" + ln.Addr().String()
	f.serve(ln, fe.Handler())
	return nil
}

func (f *fleet) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // ErrServerClosed after Shutdown
	}()
}

func (f *fleet) members() []string { return append([]string{f.feURL}, f.workerURLs...) }

func (f *fleet) ready(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, u := range f.members() {
		c := client.New(u)
		for c.Readyz(ctx) != nil {
			select {
			case <-ctx.Done():
				return fmt.Errorf("fleet member %s never became ready: %w", u, ctx.Err())
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	return nil
}

// close stops the fleet front to back, waits for every server goroutine,
// and removes its directory.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Shutdown(ctx)
	}
	f.wg.Wait()
	if f.frontend != nil {
		_ = f.frontend.Shutdown(ctx)
	}
	for _, w := range f.workers {
		_ = w.Shutdown(ctx)
	}
	_ = os.RemoveAll(f.dir)
}

// workerCounters sums checkpoint writes over the workers and returns the
// detailed simulations each completed.
func (f *fleet) workerCounters(ctx context.Context) (ckpts uint64, sims []float64, err error) {
	for _, u := range f.workerURLs {
		m, err := client.New(u).Metrics(ctx)
		if err != nil {
			return 0, nil, err
		}
		ckpts += m.CheckpointsWritten
		sims = append(sims, float64(m.SimsCompleted))
	}
	return ckpts, sims, nil
}

// spillFiles counts the result-cache entries spilled to the shared
// directory.
func (f *fleet) spillFiles() int {
	files, _ := filepath.Glob(filepath.Join(f.cacheDir(), "*.json"))
	return len(files)
}

// spans collects every member's spans of one trace.
func (f *fleet) spans(ctx context.Context, traceID string) ([]obs.Slice, error) {
	var out []obs.Slice
	for _, u := range f.members() {
		sl, err := client.New(u).Spans(ctx, traceID)
		if err != nil {
			return nil, err
		}
		out = append(out, obs.Slice{Proc: sl.Proc, Spans: sl.Spans})
	}
	return out, nil
}

// writeFleetTrace writes the fleet's spans as a Perfetto document next to
// the benchmark's own.
func writeFleetTrace(e *env, procs []obs.Slice) error {
	fh, err := os.Create(e.artifact("fleet.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteFleetPerfetto(fh, procs); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// spanStat returns the p50, mean and sum of the durations, in
// microseconds, of every span named name across the processes' slices.
func spanStat(procs []obs.Slice, name string) (p50US, meanUS, sumUS float64) {
	var ds []float64
	for _, sl := range procs {
		for _, r := range sl.Spans {
			if r.Name == name {
				ds = append(ds, float64(r.DurUS))
				sumUS += float64(r.DurUS)
			}
		}
	}
	return percentile(ds, 50), sumUS / float64(len(ds)), sumUS
}

func techNames() []string {
	out := make([]string, len(fig7Techs))
	for j, t := range fig7Techs {
		out[j] = string(t)
	}
	return out
}

// cacheWant is the cache status a fleet answer must report.
type cacheWant int

const (
	anyCache cacheWant = iota
	wantMiss
	wantHit
)

// batch sends the suite's Figure 7 batch and checks every cell against the
// in-process reference. It returns the wall and process CPU seconds the
// call took.
func batch(ctx context.Context, e *env, c *client.Client, chk *checker, want cacheWant) (wall, cpu float64, err error) {
	req := api.BatchRequest{Workloads: chk.s.refs(), Techniques: techNames()}
	t0, c0 := time.Now(), cpuTime()
	resp, err := c.Batch(ctx, req)
	wall, cpu = since(t0), (cpuTime() - c0).Seconds()
	ncells := len(chk.s.specs) * len(fig7Techs)
	if err == nil && len(resp.Cells) != ncells {
		err = fmt.Errorf("batch answered %d cells, want %d", len(resp.Cells), ncells)
	}
	if err != nil {
		for k := 0; k < ncells; k++ {
			e.tally.add(err)
		}
		return wall, cpu, err
	}
	for k, cell := range resp.Cells {
		i, j := k/len(fig7Techs), k%len(fig7Techs)
		e.tally.add(checkResponse(chk, cell, i, j, want))
	}
	return wall, cpu, nil
}

// checkResponse verifies one fleet answer: no error, the expected cache
// status, and the in-process result's canonical bytes.
func checkResponse(chk *checker, r api.SimResponse, i, j int, want cacheWant) error {
	if r.Error != nil {
		return fmt.Errorf("cell %s/%s: %s", chk.s.specs[i].Name, fig7Techs[j], r.Error.Error)
	}
	if want != anyCache && r.Cached != (want == wantHit) {
		return fmt.Errorf("cell %s/%s: cached=%v, want %v", chk.s.specs[i].Name, fig7Techs[j], r.Cached, want == wantHit)
	}
	return chk.checkAgainst(r.Result, i, j)
}

// fleetReference runs the suite's matrix in-process: the answers every
// fleet cell must reproduce byte for byte, and so the figure the fleet
// serves.
func fleetReference(ctx context.Context, e *env, s *suite) (*checker, matrix, error) {
	want, _ := functionalCounts(s, nil, 0)
	chk := newChecker(s, false, want)
	ref, err := runMatrix(ctx, simKind{roi: s.specs[0].ROI}, s)
	chk.check(e.tally, ref, err)
	if err != nil {
		return nil, nil, fmt.Errorf("in-process reference: %w", err)
	}
	s.release()
	return chk, ref, nil
}

// longCell is fleet-cold's one cell longer than the checkpoint interval,
// sent after the Figure 7 batch: the OoO run of the first hpc-db kernel
// at longROI, so the worker that runs it writes a checkpoint journal.
type longCell struct {
	req  api.SimRequest
	name string
	want uint64 // committed instructions
	ref  []byte // the in-process result's canonical bytes
}

func newLongCell(ctx context.Context, e *env) (*longCell, error) {
	spec := workloads.HPCDBSpecs()[0].WithROI(longROI)
	base := spec.Build()
	spec.Build = base.Fork
	want := base.Fork().Frontend().Run(spec.ROI)
	r, err := experiments.RunE(ctx, spec, experiments.TechOoO, cfg())
	if err == nil {
		err = checkCell(r, spec.Name, experiments.TechOoO, want, cfg().Width, false)
	}
	e.tally.add(err)
	if err != nil {
		return nil, fmt.Errorf("long cell: %w", err)
	}
	return &longCell{
		req:  api.SimRequest{Workload: spec.Ref, Technique: string(experiments.TechOoO)},
		name: spec.Name, want: want, ref: canonJSON(r),
	}, nil
}

// send asks the fleet for the long cell, which must be a miss, and checks
// the answer. It returns the process CPU seconds the call took.
func (l *longCell) send(ctx context.Context, e *env, c *client.Client) (float64, error) {
	c0 := cpuTime()
	resp, err := c.Sim(ctx, l.req)
	cpu := (cpuTime() - c0).Seconds()
	switch {
	case err != nil:
	case resp.Cached:
		err = fmt.Errorf("long cell %s: answered from the cache, want a miss", l.name)
	default:
		if err = checkCell(resp.Result, l.name, experiments.TechOoO, l.want, cfg().Width, false); err == nil && !bytes.Equal(canonJSON(resp.Result), l.ref) {
			err = fmt.Errorf("long cell %s: fleet result differs from the in-process result", l.name)
		}
	}
	e.tally.add(err)
	return cpu, err
}

// ---- fleet-cold: a closed-loop sweep client, every cell a miss ----

// coldBatch boots a fresh fleet, sends the cold batch and the long cell,
// stops the fleet, and returns the batch's wall time and the process CPU
// seconds both requests took.
func coldBatch(ctx context.Context, e *env, chk *checker, long *longCell) (makespan, cpu float64, err error) {
	f, _, err := bootFleet(ctx, 0)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()
	c := client.New(f.feURL)
	makespan, cpu, err = batch(ctx, e, c, chk, wantMiss)
	if err != nil {
		return 0, 0, err
	}
	longCPU, err := long.send(ctx, e, c)
	return makespan, cpu + longCPU, err
}

// coldInputs builds fleet-cold's in-process reference from the suite s,
// its long cell and the figure's accuracy metrics, then starts the
// peak-memory window.
func coldInputs(ctx context.Context, e *env, s *suite) (*checker, matrix, *longCell, metrics, error) {
	chk, ref, err := fleetReference(ctx, e, s)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	long, err := newLongCell(ctx, e)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	out := metrics{}
	if err := addAccuracy(ctx, e, simKind{roi: quickROI}, ref, out); err != nil {
		return nil, nil, nil, nil, err
	}
	return chk, ref, long, out, startPeakWindow()
}

func coldRun(ctx context.Context, e *env) (metrics, error) {
	s, _, builds, err := buildSetups(e.seed, quickROI)
	if err != nil {
		return nil, err
	}
	chk, _, long, out, err := coldInputs(ctx, e, s)
	if err != nil {
		return nil, err
	}
	var makespans, cpus []float64
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < e.budget; rep++ {
		runtime.GC()
		makespan, cpu, err := coldBatch(ctx, e, chk, long)
		if err != nil {
			return nil, err
		}
		makespans = append(makespans, makespan)
		cpus = append(cpus, cpu)
	}
	var boots []float64
	for g := 0; g < coldBootGroups; g++ {
		runtime.GC()
		var sum float64
		for i := 0; i < coldGroupBoots; i++ {
			c0 := cpuTime()
			f, _, err := bootFleet(ctx, 0)
			if err != nil {
				return nil, err
			}
			sum += (cpuTime() - c0).Seconds()
			f.close()
		}
		boots = append(boots, sum/coldGroupBoots)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.logf("%d cold batches: wall %.3f s, cpu %.3f s; input build cpu %.3f s, boot cpu per group %.5f s", len(makespans), makespans, cpus, builds, boots)
	cells := float64(len(chk.s.specs)*len(fig7Techs) + 1)
	// Set-up is what a sweep needs before its first batch: its inputs
	// built (graphgen and workloads, the same builds the workers repeat
	// for cold cells) and a fleet booted.
	out["setup_s"] = metric{median(builds) + median(boots), "s"}
	out["cell_cpu_ms"] = metric{median(cpus) / cells * 1e3, "cpu-ms"}
	out["peak_rss_mb"] = metric{peak, "MB"}
	return out, nil
}

func coldTraced(ctx context.Context, e *env) (metrics, error) {
	root := e.rec.begin("e2ebench.run", 0, 0)
	defer root.end()
	s, err := buildSuite(e.seed, quickROI, e.rec, root.id())
	if err != nil {
		return nil, err
	}
	chk, ref, long, _, err := coldInputs(ctx, e, s)
	if err != nil {
		return nil, err
	}
	out := metrics{
		"graphgen.build_ms":  {float64(chk.s.graphNS) / 1e6, "ms"},
		"workloads.build_ms": {float64(chk.s.buildNS) / 1e6, "ms"},
	}
	addModel(out, ref)
	runtime.GC()
	untracedWall, untracedCPU, err := coldBatch(ctx, e, chk, long)
	if err != nil {
		return nil, err
	}
	out["cells_per_s"] = metric{float64(len(chk.s.specs)*len(fig7Techs)) / untracedWall, "cells/s"}
	out["sim_mips"] = metric{float64(totalInsts(ref)+long.want) / untracedCPU / 1e6, "Minst/cpu-s"}

	runtime.GC()
	f, _, err := bootFleet(ctx, spanRing)
	if err != nil {
		return nil, err
	}
	defer f.close()
	tracer := obs.New("e2ebench", 1)
	top := tracer.StartRoot("e2ebench.cold-batch")
	var (
		tracedWall float64
		batchErr   error
	)
	_, shares, err := profiled(e, func() {
		sp := e.rec.begin("client.Batch", root.id(), 0)
		c := client.New(f.feURL)
		tracedWall, _, batchErr = batch(obs.ContextWithSpan(ctx, top), e, c, chk, wantMiss)
		sp.end()
		if batchErr == nil {
			sp := e.rec.begin("client.Sim", root.id(), 1)
			_, batchErr = long.send(obs.ContextWithSpan(ctx, top), e, c)
			sp.end()
		}
	})
	top.End()
	if err != nil {
		return nil, err
	}
	if batchErr != nil {
		return nil, batchErr
	}
	addShares(out, shares)
	out["obs.overhead_pct"] = metric{(tracedWall - untracedWall) / untracedWall * 100, "%"}

	procs, err := f.spans(ctx, top.TraceID())
	if err != nil {
		return nil, err
	}
	if err := writeFleetTrace(e, procs); err != nil {
		return nil, err
	}
	waitP50, _, _ := spanStat(procs, "worker.queue-wait")
	_, _, simSum := spanStat(procs, "worker.sim")
	out["service.queue_wait_ms.p50"] = metric{waitP50 / 1e3, "ms"}
	out["service.sim_ms.sum"] = metric{simSum / 1e3, "ms"}
	ckpts, sims, err := f.workerCounters(ctx)
	if err != nil {
		return nil, err
	}
	out["cluster.replica_imbalance"] = metric{slices.Max(sims) / stats.Mean(sims), "ratio"}
	out["checkpoint.writes"] = metric{float64(ckpts), "count"}
	out["service.spill_writes"] = metric{float64(f.spillFiles()), "count"}
	return out, nil
}

// ---- fleet-warm: interactive clients reading cached cells ----

const (
	// sloLimit is the interactive latency limit on p99.
	sloLimit = 5 * time.Millisecond
	// closedWindow is one closed-loop measurement window; the timed run
	// repeats windows until its budget is spent and reports medians.
	// closedLimit caps one window's requests far above what it sends.
	closedWindow = 2 * time.Second
	closedLimit  = 30_000
	// Requests per open-loop step: at least 1000, so p99 has ten or more
	// samples beyond it.
	r500Requests  = 2000
	r1500Requests = 3000
)

// warmConns is the client connection count: at most two, and no more
// than there are processors.
func warmConns() int { return min(2, runtime.GOMAXPROCS(0)) }

// warmFleet boots a fleet and fills its cache with the suite's batch; it
// returns the fleet and the process CPU seconds both took.
func warmFleet(ctx context.Context, e *env, chk *checker, spans int) (*fleet, float64, error) {
	c0 := cpuTime()
	f, _, err := bootFleet(ctx, spans)
	if err != nil {
		return nil, 0, err
	}
	if _, _, err := batch(ctx, e, client.New(f.feURL), chk, anyCache); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("filling the cache: %w", err)
	}
	return f, (cpuTime() - c0).Seconds(), nil
}

// warmClient is a client whose transport holds at most warmConns
// connections to the frontend.
func warmClient(url string) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: warmConns(), MaxIdleConnsPerHost: warmConns()}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr})), tr
}

// warmLoad is one step's single-cell requests, each for a cached cell
// drawn from the seeded generator, and their answers, checked after the
// step so checking never competes with it.
type warmLoad struct {
	chk   *checker
	refs  []workloads.Ref
	cells []int
	resps []api.SimResponse
}

func newWarmLoad(chk *checker, rng *rand.Rand, n int) *warmLoad {
	w := &warmLoad{chk: chk, refs: chk.s.refs(), cells: make([]int, n), resps: make([]api.SimResponse, n)}
	ncells := len(chk.s.specs) * len(fig7Techs)
	for i := range w.cells {
		w.cells[i] = rng.IntN(ncells)
	}
	return w
}

// send is the generator's request i: POST /v1/sim through c, with a
// client.Sim span around the call when rec is set.
func (w *warmLoad) send(c *client.Client, rec *recorder) func(context.Context, int) error {
	return func(ctx context.Context, i int) error {
		b, t := w.cells[i]/len(fig7Techs), w.cells[i]%len(fig7Techs)
		sp := rec.begin("client.Sim", 0, uint64(i))
		var err error
		w.resps[i], err = c.Sim(ctx, api.SimRequest{Workload: w.refs[b], Technique: string(fig7Techs[t])})
		sp.end()
		return err
	}
}

// check counts every request in e's tally; a wrong or uncached answer
// fails its request.
func (w *warmLoad) check(e *env, recs []record) {
	for i := range recs {
		if recs[i].err == nil {
			recs[i].err = checkResponse(w.chk, w.resps[i], w.cells[i]/len(fig7Techs), w.cells[i]%len(fig7Techs), wantHit)
		}
		e.tally.add(recs[i].err)
	}
}

// closedStep runs warmConns clients in a closed loop for closedWindow
// and returns the rate they achieved with its latency summary, and the
// process CPU milliseconds per request: the client, frontend and workers
// all run in this process.
func closedStep(ctx context.Context, e *env, c *client.Client, chk *checker, rng *rand.Rand, rec *recorder) (stepResult, float64) {
	w := newWarmLoad(chk, rng, closedLimit)
	runtime.GC()
	c0 := cpuTime()
	recs := closedLoop(ctx, newRealClock(), closedWindow, warmConns(), closedLimit, w.send(c, rec))
	cpuMS := float64(cpuTime()-c0) / float64(time.Millisecond) / float64(len(recs))
	w.check(e, recs)
	var end time.Duration
	for _, r := range recs {
		end = max(end, r.done)
	}
	st := summarize(float64(len(recs))/end.Seconds(), recs, sloLimit)
	e.logf("closed loop, %d clients: %.0f req/s, %d failed, p50 %.3f ms, p99 %.3f ms, %.4f cpu-ms/req", warmConns(), st.Rate, st.Failed, st.P50MS, st.P99MS, cpuMS)
	return st, cpuMS
}

// openStep offers n requests at rate on the open-loop schedule drawn
// from rng.
func openStep(ctx context.Context, e *env, c *client.Client, chk *checker, rng *rand.Rand, rate float64, n int) stepResult {
	due := poissonSchedule(rng, rate, n)
	w := newWarmLoad(chk, rng, n)
	runtime.GC()
	recs := openLoop(ctx, newRealClock(), due, warmConns(), w.send(c, nil))
	w.check(e, recs)
	st := summarize(rate, recs, sloLimit)
	e.logf("open loop at %5.0f/s: %d sent, %d failed, p50 %.3f ms, p99 %.3f ms, late p99 %.3f ms, backlog max %d grows %v, meets the limit %v",
		rate, st.Sent, st.Failed, st.P50MS, st.P99MS, st.LateP99, st.Backlog, st.Grows, st.MeetsSLO)
	return st
}

// warmRNG is the request generator for a seed.
func warmRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x5eed_f1ee7)) }

// warmInputs builds fleet-warm's in-process reference and the figure's
// accuracy metrics, then starts the peak-memory window.
func warmInputs(ctx context.Context, e *env) (*checker, matrix, metrics, error) {
	s, err := buildSuite(e.seed, warmROI, nil, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	chk, ref, err := fleetReference(ctx, e, s)
	if err != nil {
		return nil, nil, nil, err
	}
	out := metrics{}
	if err := addAccuracy(ctx, e, simKind{roi: warmROI}, ref, out); err != nil {
		return nil, nil, nil, err
	}
	return chk, ref, out, startPeakWindow()
}

func warmRun(ctx context.Context, e *env) (metrics, error) {
	chk, _, out, err := warmInputs(ctx, e)
	if err != nil {
		return nil, err
	}
	var (
		f      *fleet
		setups []float64
	)
	for i := 0; i < warmSetups; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		var setup float64
		if f, setup, err = warmFleet(ctx, e, chk, 0); err != nil {
			return nil, err
		}
		setups = append(setups, setup)
	}
	defer f.close()
	c, tr := warmClient(f.feURL)
	defer tr.CloseIdleConnections()
	rng := warmRNG(e.seed)
	var cpus []float64
	start := time.Now()
	for w := 0; w == 0 || time.Since(start) < e.budget; w++ {
		_, cpuMS := closedStep(ctx, e, c, chk, rng, nil)
		cpus = append(cpus, cpuMS)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	e.logf("setup cpu %.3f s, %d retries", setups, c.Retries())
	out["setup_s"] = metric{median(setups), "s"}
	out["cell_cpu_ms"] = metric{median(cpus), "cpu-ms"}
	out["peak_rss_mb"] = metric{peak, "MB"}
	return out, nil
}

// warmTraced runs an untraced fleet for the tracing-overhead baseline and
// the open-loop measurements (latency at 500 and 1500 req/s, with the
// generator's own lateness and backlog), then a traced fleet under the
// CPU profiler for the layer split.
func warmTraced(ctx context.Context, e *env) (metrics, error) {
	chk, ref, _, err := warmInputs(ctx, e)
	if err != nil {
		return nil, err
	}
	f, _, err := warmFleet(ctx, e, chk, 0)
	if err != nil {
		return nil, err
	}
	c, tr := warmClient(f.feURL)
	rng := warmRNG(e.seed)
	base, _ := closedStep(ctx, e, c, chk, rng, nil)
	r500 := openStep(ctx, e, c, chk, rng, 500, r500Requests)
	r1500 := openStep(ctx, e, c, chk, rng, 1500, r1500Requests)
	tr.CloseIdleConnections()
	f.close()
	out := metrics{
		"p50_ms.r500":         {r500.P50MS, "ms"},
		"p99_ms.r500":         {r500.P99MS, "ms"},
		"p50_ms.r1500":        {r1500.P50MS, "ms"},
		"p99_ms.r1500":        {r1500.P99MS, "ms"},
		"p50_ms.closed":       {base.P50MS, "ms"},
		"closed_rps":          {base.Rate, "req/s"},
		"loadgen.late_ms.p99": {max(r500.LateP99, r1500.LateP99), "ms"},
		"loadgen.backlog_max": {float64(max(r500.Backlog, r1500.Backlog)), "count"},
	}
	addModel(out, ref)

	if f, _, err = warmFleet(ctx, e, chk, spanRing); err != nil {
		return nil, err
	}
	defer f.close()
	c, tr = warmClient(f.feURL)
	defer tr.CloseIdleConnections()
	top := obs.New("e2ebench", 1).StartRoot("e2ebench.warm")
	var traced stepResult
	_, shares, err := profiled(e, func() {
		traced, _ = closedStep(obs.ContextWithSpan(ctx, top), e, c, chk, warmRNG(e.seed), e.rec)
	})
	top.End()
	if err != nil {
		return nil, err
	}
	addShares(out, shares)
	out["obs.overhead_pct"] = metric{(traced.P50MS - base.P50MS) / base.P50MS * 100, "%"}
	out["client.retries"] = metric{float64(c.Retries()), "count"}
	out["client.rtt_us.p50"] = metric{percentile(millis(e.rec.durations("client.Sim")), 50) * 1e3, "us"}

	procs, err := f.spans(ctx, top.TraceID())
	if err != nil {
		return nil, err
	}
	if err := writeFleetTrace(e, procs); err != nil {
		return nil, err
	}
	// A cache hit takes about a microsecond, the spans' resolution, so its
	// median would read the same whole number on every run: report the
	// mean.
	_, hitMean, _ := spanStat(procs, "worker.cache-hit")
	routeP50, _, _ := spanStat(procs, "frontend.route")
	dispatchP50, _, _ := spanStat(procs, "frontend.dispatch")
	out["service.cache_hit_us.mean"] = metric{hitMean, "us"}
	out["cluster.route_us.p50"] = metric{routeP50, "us"}
	out["cluster.dispatch_ms.p50"] = metric{dispatchP50 / 1e3, "ms"}
	return out, nil
}
