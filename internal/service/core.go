package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"dvr/internal/checkpoint"
	"dvr/internal/cpu"
	"dvr/internal/experiments"
	"dvr/internal/faults"
	"dvr/internal/ledger"
	"dvr/internal/obs"
	"dvr/internal/service/api"
	"dvr/internal/service/client"
	"dvr/internal/stream"
	"dvr/internal/workloads"
)

// The serving core: the HTTP and job lifecycle both dvrd roles share.
// It owns everything that does not depend on where a cell runs — routes
// and instrumentation, decode/validate and the deadline budget, async
// accept (idempotency dedup, job span, ledger, crash points), background
// launch and settle, the synchronous Idempotency-Key single-flight, the
// job/stream/span/health endpoints, and drain/abort/shutdown. Below it an
// executor runs cells: the worker Server on its local pool, the cluster
// Frontend over its ring of replicas (DESIGN.md, "Cluster architecture").

// executor is the role-specific half of a dvrd process: where a cell
// executes, and the two endpoints whose content depends on it.
type executor interface {
	// sim answers one resolved /v1/sim cell within ctx.
	sim(ctx context.Context, c cell, req api.SimRequest) (api.SimResponse, error)
	// batch answers a batch. j is the async job whose stream receives the
	// batch's progress, nil for a synchronous batch.
	batch(ctx context.Context, req api.BatchRequest, j *job) (*api.BatchResponse, error)
	handleMetrics(w http.ResponseWriter, r *http.Request)
	handleJobTrace(w http.ResponseWriter, r *http.Request)
	// stop releases the executor's own machinery once every async job has
	// drained.
	stop()
}

var (
	errShuttingDown = errors.New("service: shutting down")
	// errOverloaded is the load-shed signal: the worker queue is full, so
	// the request is rejected 429 + Retry-After instead of stalling the
	// connection behind every queued job. Jobs are idempotent by cache
	// key, so clients retry safely (internal/service/client does).
	errOverloaded = errors.New("service: overloaded: simulation queue is full")
	// errNoReplica is the routing dead end: every candidate replica for a
	// key was tried and failed at the transport level. It maps to 503 +
	// Retry-After — a fleet-wide outage is transient from the client's
	// view (workers restart, partitions heal), so the retrying client
	// keeps its budget working.
	errNoReplica = errors.New("service: no live replica")
)

// retryAfterSeconds is the hint sent with 429/503 responses. Simulations
// are short relative to human patience but long relative to a network
// round trip; one second keeps honest clients from busy-spinning without
// parking them needlessly.
const retryAfterSeconds = 1

// minDeadlineBudget is the smallest propagated deadline budget worth
// admitting: below it the request is doomed — any work started would be
// abandoned before it could answer — so the server rejects 504
// immediately and the upstream's own deadline machinery takes over.
const minDeadlineBudget = 2 * time.Millisecond

// errDeadlineBudget is the typed doomed-request rejection; it wraps
// context.DeadlineExceeded so the existing status/code mapping answers
// 504 api.CodeTimeout.
var errDeadlineBudget = fmt.Errorf("service: deadline budget exhausted: %w", context.DeadlineExceeded)

// coreConfig is the part of Config and FrontendConfig the core reads.
type coreConfig struct {
	// role names the process kind ("worker" or "frontend"): the default
	// span process name and the prefix of the core's own span names.
	role           string
	procName       string
	traceSpans     int
	defaultTimeout time.Duration
	heartbeat      time.Duration
	streamCfg      stream.Config
	faults         *faults.Injector
	logger         *slog.Logger
	// flightDir roots the flight recorder's forensics directory; "" (or
	// tracing disabled) means no dumps.
	flightDir string
	// ledger journals accepted async jobs; nil runs without durability.
	ledger *ledger.Store
}

type core struct {
	coreConfig
	exec executor

	jobs        *jobStore
	streams     *stream.Registry
	batchFlight *flightGroup[*api.BatchResponse]

	// rootCtx parents every async job (and boot-time resume or recovery),
	// so jobs outlive their accepting request but not the process; Abort
	// cancels it — the in-process analogue of SIGKILL for chaos tests.
	rootCtx    context.Context
	rootCancel context.CancelFunc

	// draining flips when graceful shutdown begins: /readyz answers 503 so
	// whatever routes here stops sending new work while owned work
	// finishes.
	draining atomic.Bool

	// tracer is the distributed-tracing span collector (nil when
	// disabled); reqSeq and reqHist back the request observability layer
	// (observe.go).
	tracer   *obs.Tracer
	reqSeq   atomic.Uint64
	reqTotal atomic.Uint64
	reqHist  *histogram
	start    time.Time

	deadlineRejected atomic.Uint64 // requests refused for exhausted budget
	idemHits         atomic.Uint64 // submissions answered by an existing job
	recovered        atomic.Uint64 // jobs replayed from the ledger at boot
}

func newCore(exec executor, cfg coreConfig) *core {
	if cfg.defaultTimeout <= 0 {
		cfg.defaultTimeout = 5 * time.Minute
	}
	if cfg.heartbeat <= 0 {
		cfg.heartbeat = 15 * time.Second
	}
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.procName == "" {
		cfg.procName = cfg.role
	}
	c := &core{
		coreConfig:  cfg,
		exec:        exec,
		jobs:        newJobStore(),
		streams:     stream.NewRegistry(cfg.streamCfg),
		batchFlight: newFlightGroup[*api.BatchResponse](),
		reqHist:     newHistogram(latencyBounds),
		start:       time.Now(),
	}
	c.rootCtx, c.rootCancel = context.WithCancel(context.Background())
	if cfg.traceSpans > 0 {
		c.tracer = obs.New(cfg.procName, cfg.traceSpans)
	}
	return c
}

// Handler returns the routed HTTP handler, wrapped in the request
// observability middleware (request IDs, span log lines, the duration
// histogram). The route set is the same on both roles, so clients need
// not know which one they are talking to.
func (c *core) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /"+api.Version+"/sim", c.handleSim)
	mux.HandleFunc("POST /"+api.Version+"/batch", c.handleBatch)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}/trace", c.exec.handleJobTrace)
	mux.HandleFunc("GET /"+api.Version+"/jobs/{id}/stream", c.handleJobStream)
	mux.HandleFunc("GET /"+api.Version+"/spans", c.handleSpans)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /readyz", c.handleReadyz)
	mux.HandleFunc("GET /metrics", c.exec.handleMetrics)
	// normalizeErrors turns the mux's own plain-text 404/405 pages into
	// typed api.Error JSON; every other error body is already typed.
	return c.instrument(normalizeErrors(mux))
}

// BeginDrain marks the process draining: /healthz keeps answering ok (the
// process is alive) while /readyz flips to 503, so whatever routes here —
// a frontend in front of a worker, a load balancer in front of a
// frontend — stops sending new work before the listener closes. Requests
// still arriving are served normally.
func (c *core) BeginDrain() { c.draining.Store(true) }

// Abort hard-cancels the root context without draining: every async job
// (and any boot-time resume or recovery) stops at its next cancellation
// check and records nothing — no job outcome, no ledger done record —
// leaving checkpoint journals and the ledger exactly as a kill -9 would,
// so the next incarnation recovers what this one drops. Chaos tests use
// it, paired with a network partition, as the in-process SIGKILL.
func (c *core) Abort() {
	c.draining.Store(true)
	c.rootCancel()
}

// Shutdown drains: it waits for every async job to finish, then stops the
// executor (the worker pool drains its queue; the frontend's prober
// stops) and closes every job stream. In-flight HTTP requests are the
// http.Server's to drain; call its Shutdown first.
func (c *core) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	done := make(chan struct{})
	go func() {
		c.jobs.wg.Wait()
		c.exec.stop()
		c.streams.Close()
		c.rootCancel()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ---- errors ----

// statusError pairs an error with the HTTP status it maps to.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(err error) error { return &statusError{http.StatusBadRequest, err} }

// httpStatus maps an error to its response code: 400 for malformed jobs,
// 504 for deadline-exceeded, 429 on a shed request, 503 while shutting
// down or with no live replica, 500 otherwise (including recovered worker
// panics).
func httpStatus(err error) int {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the code is moot but 499-ish.
		return http.StatusGatewayTimeout
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, errShuttingDown), errors.Is(err, errNoReplica):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorCode classifies an error for api.Error.Code — the machine-readable
// half of the failure model (DESIGN.md, "failure model").
func errorCode(err error) string {
	var (
		se *statusError
		pe *PanicError
	)
	switch {
	case errors.As(err, &pe):
		return api.CodeInternal
	case errors.As(err, &se) && se.code == http.StatusBadRequest:
		return api.CodeBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeTimeout
	case errors.Is(err, context.Canceled):
		return api.CodeCanceled
	case errors.Is(err, errOverloaded):
		return api.CodeOverloaded
	case errors.Is(err, errShuttingDown), errors.Is(err, errNoReplica):
		return api.CodeShuttingDown
	default:
		return api.CodeInternal
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError answers err as a typed api.Error. A replica's own typed
// verdict passes through with its original status, code and Retry-After
// — the frontend is transparent; everything else goes through the
// status/code taxonomy above.
func writeError(w http.ResponseWriter, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		if ae.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(int(ae.RetryAfter/time.Second)))
		}
		writeJSON(w, ae.Status, api.Error{Code: ae.Code, Error: ae.Message})
		return
	}
	code := httpStatus(err)
	if (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) &&
		w.Header().Get("Retry-After") == "" {
		// Both conditions are transient; tell well-behaved clients when to
		// come back instead of letting them busy-spin. A handler that set
		// its own (adaptive) hint keeps it.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, code, api.Error{Code: errorCode(err), Error: err.Error()})
}

func writeNotFound(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusNotFound, api.Error{Code: api.CodeNotFound, Error: msg})
}

// ---- request resolution ----

// cell is one resolved (workload, technique, config) job: the built
// workload spec (ROI normalized) and its content address. The worker runs
// it; the frontend routes by its key, which is computed exactly as the
// worker computes it — that is what keeps routing aligned with the
// workers' caches.
type cell struct {
	spec workloads.Spec
	tech string
	cfg  cpu.Config
	so   *api.SamplingOptions
	key  string
}

// resolveCell validates one cell (400 on an unknown technique or an
// unresolvable workload) and computes its content address. Resolve
// normalizes the ROI (0 -> kernel default), so explicit-default and
// defaulted requests share a cache line.
func resolveCell(ref workloads.Ref, tech string, cfg cpu.Config, so *api.SamplingOptions) (cell, error) {
	if _, err := experiments.ParseTechnique(tech); err != nil {
		return cell{}, badRequest(err)
	}
	spec, err := workloads.Resolve(ref)
	if err != nil {
		return cell{}, badRequest(err)
	}
	return cell{spec: spec, tech: tech, cfg: cfg, so: so, key: CacheKeySampled(spec.Ref, tech, cfg, so)}, nil
}

// resolveCells resolves a batch's cell list (the Workloads×Techniques
// matrix row-major, or the explicit Cells form — see
// api.BatchRequest.CellList) up front, so a malformed cell is a clean 400
// before any work starts.
func resolveCells(req api.BatchRequest) ([]cell, error) {
	cfg := configOf(req.Config)
	list := req.CellList()
	cells := make([]cell, len(list))
	for i, c := range list {
		var err error
		if cells[i], err = resolveCell(c.Workload, c.Technique, cfg, req.Sampling); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// configOf resolves a request's config override against the default.
func configOf(override *cpu.Config) cpu.Config {
	if override != nil {
		return *override
	}
	return cpu.DefaultConfig()
}

// timeout resolves a request's timeout_ms against the configured default.
func (c *core) timeout(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return c.defaultTimeout
}

// requestTimeout resolves the effective deadline of a request: the
// tighter of its timeout_ms and the propagated X-Deadline-Ms budget (the
// client's remaining deadline at send time, shrunk hop by hop). A budget
// too small to fit any work rejects the request outright
// (errDeadlineBudget, 504) — cancelling doomed work at admission instead
// of spending capacity on a request whose client has already given up. A
// malformed budget is ignored, not fatal: the request still has
// timeout_ms and the default.
func (c *core) requestTimeout(r *http.Request, ms int64) (time.Duration, error) {
	d := c.timeout(ms)
	h := r.Header.Get(api.HeaderDeadlineMS)
	if h == "" {
		return d, nil
	}
	if ms, err := strconv.ParseInt(h, 10, 64); err == nil {
		budget := time.Duration(ms) * time.Millisecond
		if budget < minDeadlineBudget {
			c.deadlineRejected.Add(1)
			return 0, errDeadlineBudget
		}
		d = min(d, budget)
	}
	return d, nil
}

// batchOf assembles a batch response from its finished cells.
func batchOf(cells []api.SimResponse) *api.BatchResponse {
	out := &api.BatchResponse{Cells: cells}
	for _, c := range cells {
		if c.Cached {
			out.CacheHits++
		}
		if c.Error != nil {
			out.Failed++
		}
	}
	return out
}

// ---- handlers ----

func (c *core) handleSim(w http.ResponseWriter, r *http.Request) {
	var req api.SimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, badRequest(fmt.Errorf("service: bad request body: %w", err)))
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, badRequest(err))
		return
	}
	cl, err := resolveCell(req.Workload, req.Technique, configOf(req.Config), req.Sampling)
	if err != nil {
		writeError(w, err)
		return
	}
	d, err := c.requestTimeout(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	resp, err := c.exec.sim(ctx, cl, req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSONTimed(r.Context(), w, http.StatusOK, resp)
}

func (c *core) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, badRequest(fmt.Errorf("service: bad request body: %w", err)))
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, badRequest(err))
		return
	}
	if h := r.Header.Get(api.HeaderIdempotencyKey); h != "" {
		req.IdempotencyKey = h
	}
	if req.Async {
		c.acceptAsync(w, r, req)
		return
	}
	d, err := c.requestTimeout(r, req.TimeoutMS)
	if err != nil {
		writeError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	var (
		batch  *api.BatchResponse
		shared bool
	)
	if req.IdempotencyKey == "" {
		batch, err = c.exec.batch(ctx, req, nil)
	} else {
		// A synchronous duplicate of a key some job already owns waits for
		// that job and serves its outcome — the same exactly-once answer,
		// without a second execution.
		if j, ok := c.jobs.getIdem(req.IdempotencyKey); ok {
			c.idemHits.Add(1)
			c.serveJobOutcome(ctx, w, r, j)
			return
		}
		// Concurrent synchronous duplicates collapse on a single flight.
		batch, shared, err = c.batchFlight.Do(ctx, req.IdempotencyKey, func() (*api.BatchResponse, error) {
			return c.exec.batch(ctx, req, nil)
		})
	}
	if err != nil {
		writeError(w, err)
		return
	}
	out := *batch
	if shared {
		c.idemHits.Add(1)
		out.Deduped = true
	}
	writeJSONTimed(r.Context(), w, http.StatusOK, out)
}

// acceptAsync admits an async batch: idempotency-key dedup, durable
// ledger append (when a ledger is configured), then the 202. The two
// crash points bracket the append so the chaos suite can pin both halves
// of the exactly-once argument — die before the append and the job never
// existed (the client's retry re-runs it from scratch); die after and a
// rebooted process recovers it under the same identity.
func (c *core) acceptAsync(w http.ResponseWriter, r *http.Request, req api.BatchRequest) {
	if c.faults.CrashAt(faults.FrontendCrashBeforeLedgerWrite) {
		panic(http.ErrAbortHandler)
	}
	total := len(req.CellList())
	j, created := c.jobs.create(total, req.IdempotencyKey, c.streams)
	if !created {
		// A retried submission: the original job answers it. A key reused
		// for a *different* batch is a client bug worth a loud error rather
		// than silently serving unrelated results.
		if j.total != total {
			writeError(w, badRequest(fmt.Errorf(
				"service: idempotency key %q was used for a different batch (%d cells, resubmission has %d)",
				req.IdempotencyKey, j.total, total)))
			return
		}
		c.idemHits.Add(1)
		writeJSON(w, http.StatusAccepted, api.BatchResponse{JobID: j.id, Deduped: true})
		return
	}
	// The job span is a child of the accepting request's span, so the whole
	// async batch hangs off the submitter's trace. The trace id rides the
	// accepted ledger record so a post-crash recovery can link its
	// re-dispatch spans back.
	jsp := obs.FromContext(r.Context()).StartChild(c.role+".job").Attr("job_id", j.id)
	j.setTrace(jsp.TraceID())
	if c.ledger != nil {
		rec := ledger.Record{Kind: ledger.KindAccepted, JobID: j.id,
			Key: req.IdempotencyKey, Total: j.total, Request: &req, TraceID: jsp.TraceID()}
		if err := c.ledger.Append(j.id, rec); err != nil {
			c.logger.Warn("ledger accepted-record append failed", "job", j.id, "err", err)
		}
	}
	if c.faults.CrashAt(faults.FrontendCrashAfterLedgerWrite) {
		panic(http.ErrAbortHandler)
	}
	c.launchJob(j, req, jsp, obs.RequestIDFrom(r.Context()))
	writeJSON(w, http.StatusAccepted, api.BatchResponse{JobID: j.id})
}

// launchJob runs an accepted async batch in the background under rootCtx
// — not the accepting request's context, which dies with the 202. The job
// span and request id are copied over explicitly (rootCtx knows nothing
// of the connection) so the batch's spans stay in the submitter's trace.
func (c *core) launchJob(j *job, req api.BatchRequest, jsp *obs.Span, reqID string) {
	ctx := obs.ContextWithSpan(obs.ContextWithRequestID(c.rootCtx, reqID), jsp)
	var cancel context.CancelFunc = func() {}
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.timeout(req.TimeoutMS))
	}
	c.jobs.wg.Add(1)
	go func() {
		defer c.jobs.wg.Done()
		defer cancel()
		batch, err := c.exec.batch(ctx, req, j)
		jsp.Fail(err).End()
		if err != nil && c.rootCtx.Err() != nil {
			// The process is dying (Abort), not the job: a real kill -9
			// would record nothing either. Leave the journal pending so the
			// next incarnation recovers the job under its own identity.
			return
		}
		c.settle(j, batch, err)
	}()
}

// settle seals a finished job: its outcome (releasing synchronous
// waiters), the durable done record (so a crash after this point dedups
// rather than re-runs), then the terminal job-done event and the stream
// close — subscribers drain whatever is buffered and see a clean end.
func (c *core) settle(j *job, batch *api.BatchResponse, err error) {
	j.finish(batch, err)
	if c.ledger != nil {
		rec := ledger.Record{Kind: ledger.KindDone, JobID: j.id}
		if err != nil {
			rec.Error = err.Error()
		} else {
			rec.Batch = batch
		}
		if aerr := c.ledger.Append(j.id, rec); aerr != nil {
			c.logger.Warn("ledger done-record append failed", "job", j.id, "err", aerr)
		}
	}
	if j.bc != nil {
		ev := api.Event{Kind: api.EventJobDone, Done: j.doneCount(), Total: j.total, Cell: -1}
		if err != nil {
			ev.Error = err.Error()
		}
		j.bc.Publish(ev)
		j.bc.Close()
	}
}

// recoverLedger replays a boot-time ledger scan. Completed jobs
// re-register finished under their original ids — the durable dedup
// window, so a client retrying an idempotency key after the crash gets
// the original results. Pending jobs re-attach their event stream under a
// fresh event-id epoch and re-dispatch through the executor; worker-side
// exactly-once (content-addressed cache + single-flight) turns the
// re-dispatch into re-attachment — cells the fleet already finished come
// back as cache hits, cells still running collapse onto the running
// flight, and only truly lost work executes again.
func (c *core) recoverLedger(h ledger.Health) {
	for _, lj := range h.Completed {
		j := c.jobs.restore(lj.ID, lj.Accepted.Total, lj.Accepted.Key, nil)
		var err error
		if lj.Done.Error != "" {
			err = errors.New(lj.Done.Error)
		}
		j.finish(lj.Done.Batch, err)
	}
	for _, lj := range h.Pending {
		// Event-id epoch: (recoveries+1)<<32 keeps recovered stream ids
		// strictly above anything a previous incarnation served, so a
		// subscriber's Last-Event-ID resume stays monotonic across the
		// crash instead of replaying ids it has already seen.
		epoch := (uint64(lj.Recoveries) + 1) << 32
		bc := c.streams.CreateAt(lj.ID, epoch)
		j := c.jobs.restore(lj.ID, lj.Accepted.Total, lj.Accepted.Key, bc)
		if lj.Accepted.Request == nil {
			// A journal whose accepted record lost its payload cannot be
			// re-run; settle it as failed rather than recover a ghost.
			c.settle(j, nil, errors.New("service: recovered job has no request payload"))
			continue
		}
		if err := c.ledger.Append(lj.ID, ledger.Record{Kind: ledger.KindRecovered, JobID: lj.ID, TraceID: lj.Accepted.TraceID}); err != nil {
			c.logger.Warn("ledger recovered-record append failed", "job", lj.ID, "err", err)
		}
		c.recovered.Add(1)
		// The re-dispatch joins the original submission's trace: the journal
		// recorded the trace id at acceptance, so the recovery spans land in
		// the same trace the (now dead) first incarnation was building —
		// with no recorded id (pre-tracing journal) this roots a fresh one.
		jsp := c.tracer.StartLinked(lj.Accepted.TraceID, c.role+".recover").Attr("job_id", lj.ID)
		j.setTrace(jsp.TraceID())
		c.launchJob(j, *lj.Accepted.Request, jsp, "")
	}
}

// serveJobOutcome answers a synchronous request with an existing job's
// outcome, waiting (bounded by ctx) if the job is still running — the
// synchronous view of an asynchronous original.
func (c *core) serveJobOutcome(ctx context.Context, w http.ResponseWriter, r *http.Request, j *job) {
	select {
	case <-ctx.Done():
		writeError(w, ctx.Err())
		return
	case <-j.doneCh:
	}
	batch, err := j.outcome()
	if err != nil {
		writeError(w, err)
		return
	}
	out := *batch
	out.JobID = j.id
	out.Deduped = true
	writeJSONTimed(r.Context(), w, http.StatusOK, out)
}

func (c *core) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := c.jobs.get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Sprintf("service: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (c *core) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the routing gate: liveness (/healthz) says "don't kill
// me", readiness says "send me work". They diverge exactly during a
// graceful drain — the process is alive finishing owned work but must not
// receive new work. The unready answer is typed JSON (like every other
// error this server emits) so a prober can read the reason, not just the
// status.
func (c *core) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if c.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeJSON(w, http.StatusServiceUnavailable, api.Error{Code: api.CodeShuttingDown, Error: "service: draining"})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// handleSpans answers GET /v1/spans?trace={id}: this process's collected
// span slice for one trace, in canonical order. The frontend's cluster
// trace view is assembled from these.
func (c *core) handleSpans(w http.ResponseWriter, r *http.Request) {
	if c.tracer == nil {
		writeNotFound(w, "service: span tracing is disabled (start dvrd with -trace-spans)")
		return
	}
	tid := r.URL.Query().Get("trace")
	if tid == "" {
		writeJSON(w, http.StatusBadRequest, api.Error{Code: api.CodeBadRequest,
			Error: "service: /v1/spans requires ?trace=<trace id>"})
		return
	}
	spans := c.tracer.Slice(tid)
	if spans == nil {
		spans = []obs.SpanRecord{}
	}
	writeJSON(w, http.StatusOK, api.SpanSlice{Proc: c.tracer.Proc(), TraceID: tid, Spans: spans})
}

// ---- flight recorder ----

// DumpFlight seals the span collector's flight record — the ring of the
// last N finished spans plus error events — to
// <dir>/forensics/flight-<reason>-<µs>.json and returns the path; dir is
// the worker's CacheDir or the frontend's LedgerDir. The payload is
// integrity-sealed like a checkpoint (payload + sha256 footer;
// checkpoint.Unseal verifies), so a post-mortem can trust a dump that
// survived the crash it documents. Returns "" (and writes nothing) when
// tracing is disabled or no directory is configured. cmd/dvrd calls this
// on SIGTERM; the watchdog and panic paths call it in-process.
// Best-effort by contract: a failed dump must never worsen the crash
// being documented, so every error path just returns "".
func (c *core) DumpFlight(reason string) string {
	if c.tracer == nil || c.flightDir == "" {
		return ""
	}
	fr := c.tracer.Flight(reason)
	payload, err := json.MarshalIndent(fr, "", "  ")
	if err != nil {
		return ""
	}
	fdir := filepath.Join(c.flightDir, "forensics")
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(fdir, fmt.Sprintf("flight-%s-%d.json", reason, fr.DumpedAtUS))
	if err := os.WriteFile(path, checkpoint.Seal(payload), 0o644); err != nil {
		return ""
	}
	c.logger.Info("flight recorder dump",
		"reason", reason, "path", path, "spans", len(fr.Spans), "dropped", fr.Dropped)
	return path
}
