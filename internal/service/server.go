// Package service implements dvrd, the cached, concurrent simulation
// service: an HTTP/JSON server that accepts declarative simulation jobs
// (workloads.Ref + technique + cpu.Config), runs them on a bounded worker
// pool with per-request deadlines that cancel in-flight simulations, and
// deduplicates identical jobs twice over — a content-addressed result
// cache for repeated jobs, single-flight collapsing for concurrent ones.
// The wire types live in internal/service/api; a Go client in
// internal/service/client.
package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/obs"
	"dvr/internal/service/api"
	"dvr/internal/stream"
	"dvr/internal/workloads"
)

// baseEntries bounds the memoized built workload images; traceEntries
// bounds the in-memory interval-trace store (with CacheDir set, series
// also spill to <dir>/traces/).
const (
	baseEntries  = 32
	traceEntries = 1024
)

// Config sizes the server.
type Config struct {
	// Workers bounds concurrent simulations; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds tasks waiting for a worker; 0 means 256.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache; 0 means 4096.
	CacheEntries int
	// CacheDir, when set, spills cached results to disk as
	// <dir>/<key>.json and reads them back on memory misses.
	CacheDir string
	// CheckpointEvery, when nonzero (and CacheDir is set), checkpoints
	// every running simulation to <CacheDir>/checkpoints/<key>.ckpt each
	// N committed instructions; interrupted jobs resume from their latest
	// valid checkpoint at the next startup.
	CheckpointEvery uint64
	// WatchdogCycles, when nonzero, aborts any simulation that commits no
	// instruction for this many cycles with a typed livelock error and a
	// forensics dump under <CacheDir>/forensics/.
	WatchdogCycles uint64
	// DefaultTimeout bounds requests that do not set timeout_ms; 0 means
	// 5 minutes.
	DefaultTimeout time.Duration
	// Faults injects scripted failures (chaos tests); nil means none.
	Faults *faults.Injector
	// Logger receives one structured line per request (id, status, span
	// timings); nil discards them.
	Logger *slog.Logger
	// TraceIntervalEvery, when nonzero, attaches an interval sampler to
	// every simulation (one sample per N committed instructions) and keeps
	// each cell's series in the trace store, served at
	// GET /v1/jobs/{id}/trace. 0 disables tracing. Tracing is
	// observational: results are bit-identical either way.
	TraceIntervalEvery uint64
	// StreamReplay bounds each job's replay ring — the Last-Event-ID
	// resume window of GET /v1/jobs/{id}/stream; 0 means 4096 events.
	StreamReplay int
	// StreamBuffer is the default per-subscriber delivery buffer; 0 means
	// 1024 events. A subscriber that falls further behind loses its oldest
	// undelivered events (counted at /metrics).
	StreamBuffer int
	// StreamTTL reaps stream sessions not polled for this long (a wedged
	// proxy, an abandoned connection); 0 means 60s.
	StreamTTL time.Duration
	// StreamHeartbeat is the SSE comment-keepalive interval on quiet
	// streams; 0 means 15s.
	StreamHeartbeat time.Duration
	// TraceSpans, when nonzero, enables distributed tracing: the server
	// continues propagated X-Trace-Ctx contexts, collects finished spans
	// in a bounded ring of this capacity (served at GET /v1/spans, dumped
	// by the flight recorder), and stamps trace_id/span_id onto its log
	// lines. 0 disables span tracing at zero cost on the request path.
	TraceSpans int
	// ProcName labels this process's spans in fleet trace views (e.g.
	// "worker@127.0.0.1:8381"); "" means "worker".
	ProcName string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	return c
}

// Server is the dvrd worker: the serving core over the local executor — a
// bounded worker pool behind AIMD admission, the content-addressed result
// cache with single-flight collapsing, checkpoints, and interval traces.
// Construct with New, mount Handler, and call Shutdown to drain.
type Server struct {
	*core
	cfg    Config
	cache  *resultCache
	flight *flightGroup[cpu.Result]
	pool   *pool
	bases  *baseCache

	// ckpts is the durable checkpoint store (nil when disabled);
	// ckptHealth is its startup scan.
	ckpts      *checkpoint.Store
	ckptHealth checkpoint.Health

	// traces holds per-cell interval telemetry (nil when tracing is
	// disabled); queueHist is the queue-wait histogram.
	traces    *traceStore
	queueHist *histogram

	startInsts uint64
	sfRetries  atomic.Uint64 // single-flight followers that re-ran after a leader error
	simsDone   atomic.Uint64 // detailed simulations run to completion and committed

	// adm is the AIMD admission controller gating interactive requests.
	adm *aimd

	ckptWritten   atomic.Uint64 // checkpoints persisted
	ckptResumed   atomic.Uint64 // runs resumed from a checkpoint
	ckptErrors    atomic.Uint64 // checkpoint writes that failed (run continued)
	watchdogTrips atomic.Uint64 // simulations aborted by the retirement watchdog
}

// New builds a server. It starts the worker pool immediately; with
// checkpointing configured it also scans the checkpoint directory and
// resumes any jobs a previous process left interrupted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheEntries, cfg.CacheDir, cfg.Faults.Filesystem()),
		flight:     newFlightGroup[cpu.Result](),
		pool:       newPool(cfg.Workers, cfg.QueueDepth),
		bases:      newBaseCache(baseEntries),
		queueHist:  newHistogram(latencyBounds),
		startInsts: experiments.SimInstructions(),
		adm:        newAIMD(cfg.Workers, cfg.Workers+cfg.QueueDepth),
	}
	s.core = newCore(s, coreConfig{
		role:           "worker",
		procName:       cfg.ProcName,
		traceSpans:     cfg.TraceSpans,
		defaultTimeout: cfg.DefaultTimeout,
		heartbeat:      cfg.StreamHeartbeat,
		streamCfg: stream.Config{
			ReplayEntries: cfg.StreamReplay,
			SessionBuffer: cfg.StreamBuffer,
			SessionTTL:    cfg.StreamTTL,
		},
		faults:    cfg.Faults,
		logger:    cfg.Logger,
		flightDir: cfg.CacheDir,
	})
	if cfg.TraceIntervalEvery > 0 {
		traceDir := ""
		if cfg.CacheDir != "" {
			traceDir = filepath.Join(cfg.CacheDir, "traces")
		}
		s.traces = newTraceStore(traceEntries, traceDir, cfg.Faults.Filesystem())
	}
	if cfg.CacheDir != "" && cfg.CheckpointEvery > 0 {
		store, err := checkpoint.NewStore(filepath.Join(cfg.CacheDir, "checkpoints"), cfg.Faults.Filesystem())
		if err == nil {
			s.ckpts = store
			s.ckptHealth = store.Scan()
			s.resumePending()
		}
		// An unopenable checkpoint dir disables durability, not the server.
	}
	return s
}

// SpillHealth reports the startup scan of the spill directory (zero when
// no -cache-dir is configured).
func (s *Server) SpillHealth() SpillHealth { return s.cache.Health() }

// CheckpointHealth reports the startup scan of the checkpoint directory
// (zero when checkpointing is disabled). Pending lists the interrupted
// jobs found journaled at boot; the server resumes them in the background.
func (s *Server) CheckpointHealth() checkpoint.Health { return s.ckptHealth }

func (s *Server) stop() { s.pool.Close() }

// ---- cell execution ----

// admission selects how a cell enters the worker pool: interactive
// /v1/sim requests shed on a full queue (429 + Retry-After) so the
// connection never stalls; batch cells queue and wait — the batch was
// admitted as one request at the handler, and shedding its individual
// cells would tear half-finished matrices apart.
type admission int

const (
	admitShed admission = iota
	admitQueue
)

// sim answers an interactive /v1/sim cell behind the admission gate.
func (s *Server) sim(ctx context.Context, c cell, _ api.SimRequest) (resp api.SimResponse, err error) {
	err = s.admit(func() error {
		resp, err = s.run(ctx, c, admitShed, nil)
		return err
	})
	return resp, err
}

// batch answers a batch. A synchronous one is admitted like /v1/sim, and
// with the queue already full it would park its every cell behind it, so
// it is shed up front instead of stalling the connection. Async batches
// were answered 202 already; their cells queue in the background by
// design.
func (s *Server) batch(ctx context.Context, req api.BatchRequest, j *job) (out *api.BatchResponse, err error) {
	if j != nil {
		return s.runBatch(ctx, req, j)
	}
	if s.pool.Saturated() {
		s.pool.shed.Add(1)
		s.adm.Overload()
		return nil, errOverloaded
	}
	err = s.admit(func() error {
		out, err = s.runBatch(ctx, req, nil)
		return err
	})
	return out, err
}

// admit runs an interactive request behind the AIMD admission gate (429
// when the limit is reached) and feeds its outcome back: a queue that
// filled behind the gate is congestion evidence to cut on, a completion
// earns an additive step.
func (s *Server) admit(fn func() error) error {
	if !s.adm.Acquire() {
		s.pool.shed.Add(1)
		return fmt.Errorf("%w (admission limit)", errOverloaded)
	}
	defer s.adm.Release()
	err := fn()
	switch {
	case err == nil:
		s.adm.Success()
	case errors.Is(err, errOverloaded):
		s.adm.Overload()
	}
	return err
}

// runCell resolves and answers one cell; see run.
func (s *Server) runCell(ctx context.Context, ref workloads.Ref, tech string, cfg cpu.Config, so *api.SamplingOptions, adm admission, pub *cellPub) (api.SimResponse, error) {
	c, err := resolveCell(ref, tech, cfg, so)
	if err != nil {
		return api.SimResponse{}, err
	}
	return s.run(ctx, c, adm, pub)
}

// run answers one resolved cell: from the result cache when possible,
// otherwise via single-flight on the cell's content address and a
// worker-pool simulation. The result stored and returned is canonical
// (deterministic), so repeated requests are byte-identical. A non-nil
// c.so selects the sampled path: the cell's content address includes the
// sampling options, so sampled and exact results never share a cache line
// or a single-flight. A non-nil pub streams the cell's lifecycle and
// telemetry to its job's subscribers; cells answered without running here
// (cache hits, single-flight followers) replay their stored series
// instead.
func (s *Server) run(ctx context.Context, c cell, adm admission, pub *cellPub) (api.SimResponse, error) {
	key := c.key
	pub.publish(api.Event{Kind: api.EventCellStarted, Key: key})
	if res, ok := s.cache.Get(key); ok {
		obs.FromContext(ctx).StartChild("worker.cache-hit").
			Attr("key", key).Attr("bench", c.spec.Ref.Kernel).Attr("technique", c.tech).End()
		s.replayTrace(pub, key, true)
		return api.SimResponse{Key: key, Cached: true, Result: res}, nil
	}
	simulate := func() (cpu.Result, error) {
		// Re-check under the flight: a just-landed leader may have filled
		// the cache between our miss and here. Peek, not Get — this
		// request's miss is already counted.
		if res, ok := s.cache.Peek(key); ok {
			return res, nil
		}
		runSpec := s.bases.memoize(c.spec)
		var (
			out    cpu.Result
			runErr error
		)
		enqueued := time.Now()
		task := func() {
			// Queue wait = admission to worker pickup: the span and
			// histogram the capacity dashboards watch.
			wait := time.Since(enqueued)
			parent := obs.FromContext(ctx)
			s.queueHist.observeTraced(wait, parent.TraceID())
			parent.StartChildAt("worker.queue-wait", enqueued).End()
			sp := spansFrom(ctx)
			sp.addQueueWait(wait)
			// The fault hook runs inside the worker so scripted panics
			// and slowdowns exercise the same recover/occupancy paths a
			// real simulator bug would.
			s.cfg.Faults.Sim(key)
			simStart := time.Now()
			ssp := parent.StartChild("worker.sim").
				Attr("key", key).Attr("bench", c.spec.Ref.Kernel).Attr("technique", c.tech)
			if c.so != nil {
				out, runErr = s.simulateSampled(ctx, runSpec, c.tech, c.cfg, c.so)
				ssp.Attr("sampled", "true")
			} else {
				out, runErr = s.simulate(ctx, key, runSpec, c.tech, c.cfg, pub)
			}
			ssp.Fail(runErr).End()
			sp.addSim(time.Since(simStart))
		}
		var err error
		if adm == admitShed {
			err = s.pool.TryDo(ctx, task)
		} else {
			err = s.pool.Do(ctx, task)
		}
		if err != nil {
			return cpu.Result{}, err
		}
		if runErr != nil {
			return cpu.Result{}, runErr
		}
		canon := out.Canonical()
		s.cache.Put(key, canon)
		// Counted only here — after the run committed its result — so a
		// simulation aborted mid-flight (caller gone, frontend crash) never
		// inflates it. Unlike CacheMisses, which counts at lookup time, the
		// fleet-wide sum of SimsCompleted equals the number of unique cells
		// even when a crash cancels in-flight work: that is the exactly-once
		// invariant the resume smoke asserts.
		s.simsDone.Add(1)
		return canon, nil
	}
	res, shared, err := s.flight.Do(ctx, key, simulate)
	if err != nil && shared && ctx.Err() == nil {
		// The leader failed for reasons of its own (panic, shed, its
		// context); this follower's request is still live, so retry once
		// as a potential new leader. The cache absorbs the case where the
		// leader actually succeeded before dying.
		s.sfRetries.Add(1)
		res, _, err = s.flight.Do(ctx, key, simulate)
	}
	if err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			// A recovered worker panic is exactly what the flight recorder
			// exists for: breadcrumb the event into the ring, then seal the
			// ring to disk while the evidence is fresh.
			s.tracer.Event(obs.FromContext(ctx).TraceID(), "panic", pe.Error())
			s.DumpFlight("panic")
		}
		return api.SimResponse{}, err
	}
	if shared {
		// A follower never saw the leader's live samples (the leader may
		// even belong to a different job); the leader stored the series
		// before its flight resolved, so replay it here.
		s.replayTrace(pub, key, false)
	}
	// A follower's result came from the in-flight leader, not the cache;
	// report it uncached (metrics count it under single_flight_shared).
	return api.SimResponse{Key: key, Cached: false, Result: res}, nil
}

// runBatch answers a batch's cells concurrently (the pool bounds actual
// simulation parallelism). A recovered worker panic or a watchdog trip
// fails only its own cell — the cell carries a typed api.Error and the
// rest of the batch completes — while systemic failures (deadline,
// shutdown) cancel the batch.
func (s *Server) runBatch(ctx context.Context, req api.BatchRequest, j *job) (*api.BatchResponse, error) {
	cells, err := resolveCells(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]api.SimResponse, len(cells))
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for idx, c := range cells {
		idx, c := idx, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			pub := j.cellPub(idx, c.spec.Ref.Kernel, c.tech)
			resp, err := s.run(ctx, c, admitQueue, pub)
			if err != nil {
				var (
					pe *PanicError
					le *cpu.LivelockError
				)
				if !errors.As(err, &pe) && !errors.As(err, &le) {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				// Isolated crash or wedge of this one cell: report it in
				// place and let the rest of the batch finish.
				resp = api.SimResponse{Key: c.key, Error: &api.Error{Code: api.CodeInternal, Error: err.Error()}}
			}
			out[idx] = resp
			pub.done(resp)
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return batchOf(out), nil
}

// Metrics snapshots the service counters. The cache pair is read under
// the cache lock and the clock is read once, so one snapshot is
// internally consistent (handleMetrics serves it as JSON or Prometheus
// text; see observe.go).
func (s *Server) Metrics() api.Metrics {
	now := time.Now()
	uptime := now.Sub(s.start).Seconds()
	hits, misses := s.cache.counters()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	insts := experiments.SimInstructions()
	mips := 0.0
	if uptime > 0 {
		mips = float64(insts-s.startInsts) / uptime / 1e6
	}
	active, finished := s.jobs.counts()
	sm := s.streams.Snapshot()
	admLimit, admInflight, admRejected := s.adm.Snapshot()
	var ckptQuarantined uint64
	if s.ckpts != nil {
		ckptQuarantined = s.ckpts.Quarantined()
	}
	return api.Metrics{
		UptimeSeconds:      uptime,
		Workers:            s.cfg.Workers,
		BusyWorkers:        s.pool.Busy(),
		QueueDepth:         s.pool.QueueDepth(),
		CacheEntries:       s.cache.Len(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheHitRate:       hitRate,
		SingleFlightShared: s.flight.Shared(),
		SimsCompleted:      s.simsDone.Load(),
		JobsActive:         active,
		JobsDone:           finished,
		SimInstructions:    insts,
		SimMIPS:            mips,

		AdmissionLimit:    admLimit,
		AdmissionInflight: admInflight,
		AdmissionRejected: admRejected,
		DeadlineRejected:  s.deadlineRejected.Load(),

		PanicsRecovered:     s.pool.Panics(),
		ShedTotal:           s.pool.Shed(),
		SingleFlightRetries: s.sfRetries.Load(),
		SpillQuarantined:    s.cache.Quarantined(),

		CheckpointsWritten:     s.ckptWritten.Load(),
		CheckpointsResumed:     s.ckptResumed.Load(),
		CheckpointWriteErrors:  s.ckptErrors.Load(),
		CheckpointsQuarantined: ckptQuarantined,
		WatchdogTrips:          s.watchdogTrips.Load(),

		RequestsTotal:   s.reqTotal.Load(),
		TracesStored:    s.traces.Len(),
		ObsSpans:        s.tracer.Len(),
		ObsSpansDropped: s.tracer.Dropped(),

		StreamSessionsActive:  sm.SessionsActive,
		StreamSessionsOpened:  sm.SessionsOpened,
		StreamSessionsExpired: sm.SessionsExpired,
		StreamEventsPublished: sm.EventsPublished,
		StreamEventsDropped:   sm.EventsDropped,
		StreamSessions:        sm.Sessions,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	serveMetrics(w, r, m, func(w io.Writer, om bool) { writePrometheus(w, m, s.reqHist, s.queueHist, om) })
}

// ---- built-workload memoization ----

// baseCache memoizes built workload images by their ref identity (kernel +
// graph; the image does not depend on the ROI), bounded by an LRU. Every
// simulation runs on a copy-on-write Fork of the shared base — the same
// sharing discipline as experiments.RunAll — so a batch over one graph
// builds it once, not once per cell. Evicting a base while forks of it are
// running is safe: the forks hold their own references.
type baseCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List
	items map[string]*list.Element
}

type baseEntry struct {
	key  string
	once sync.Once
	w    *workloads.Workload
}

func newBaseCache(capacity int) *baseCache {
	if capacity < 1 {
		capacity = 1
	}
	return &baseCache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// memoize wraps spec.Build to build the base image at most once per cache
// residency and hand out forks.
func (b *baseCache) memoize(spec workloads.Spec) workloads.Spec {
	ref := spec.Ref
	ref.ROI = 0
	keyBytes, err := json.Marshal(ref)
	if err != nil {
		return spec
	}
	entry := b.entry(string(keyBytes))
	build := spec.Build
	spec.Build = func() *workloads.Workload {
		entry.once.Do(func() { entry.w = build() })
		return entry.w.Fork()
	}
	return spec
}

func (b *baseCache) entry(key string) *baseEntry {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.items[key]; ok {
		b.order.MoveToFront(el)
		return el.Value.(*baseEntry)
	}
	e := &baseEntry{key: key}
	b.items[key] = b.order.PushFront(e)
	for b.order.Len() > b.cap {
		el := b.order.Back()
		b.order.Remove(el)
		delete(b.items, el.Value.(*baseEntry).key)
	}
	return e
}
